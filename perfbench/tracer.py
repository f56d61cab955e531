"""Spans around the public functions of the ionphoton layers, installed from outside.

`Tracer.install` replaces every public function of the seven layers
(atomic, bloch, geometry, photonstats, entangle, config, cli), wherever the
package holds a reference to it, with a wrapper that records a span: name,
start, end and the index of the enclosing span.  The program itself is not
edited.  Spans stay in memory and are written out once the op has ended.

Self time of a span is its duration minus the time its child spans cover.
The program is single-threaded and has no queues, so no layer waits.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("atomic", "bloch", "geometry", "photonstats", "entangle", "config", "cli")

# Functions reported under a shared span name instead of their own.
SHARED_NAMES = {
    "photonstats.write_stream_binary": "photonstats.stream_write",
    "photonstats.write_stream_csv": "photonstats.stream_write",
    "photonstats.read_stream": "photonstats.stream_read",
    "photonstats.read_stream_binary": "photonstats.stream_read",
    "photonstats.read_stream_csv": "photonstats.stream_read",
    "photonstats.write_scan_csv": "photonstats.csv_out",
}
# CSV writer methods of result classes, by (module, class).
WRITERS = {
    ("photonstats", "CoincidenceHistogram"): "photonstats.csv_out",
    ("bloch", "ErrorCurve"): "cli.csv_write",
    ("geometry", "TradeoffCurve"): "cli.csv_write",
    ("entangle", "FringePrediction"): "cli.csv_write",
    ("entangle", "FringeCounts"): "cli.csv_write",
}
# Work counts taken from a wrapped call: span name -> (counter, count from args and result).
COUNTERS = {
    "photonstats.simulate_stream": ("photonstats.clicks", lambda args, result: len(result)),
    "photonstats.coincidence_histogram": ("photonstats.pairs", lambda args, result: result.n_pairs),
    "photonstats.stream_write": ("photonstats.stream_bytes", lambda args, result: os.path.getsize(args[1])),
}


class _CountingIntegrate:
    """Stands in for the `scipy.integrate` binding of geometry and counts `quad` work."""

    def __init__(self, module, counters):
        self._module = module
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        out = self._module.quad(*args, **kwargs)
        self._counters["geometry.quad.calls"] += 1
        if len(out) > 2 and isinstance(out[2], dict):
            self._counters["geometry.quad.neval"] += out[2].get("neval", 0)
        return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ionphoton.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                span = f"{layer}.{name}"
                wrapped[obj] = self.wrap(SHARED_NAMES.get(span, span), obj)
        for module_name, module in list(sys.modules.items()):
            if module_name == "ionphoton" or module_name.startswith("ionphoton."):
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        namespace[key] = wrapped[value]

        # AtomSpec builds its channel table through a dataclass default factory,
        # which its generated __init__ holds in a closure cell.
        atom_spec = modules["atomic"].AtomSpec
        init = atom_spec.__init__
        for cell in init.__closure__ or ():
            if inspect.isfunction(cell.cell_contents) and cell.cell_contents in wrapped:
                cell.cell_contents = wrapped[cell.cell_contents]
        atom_spec.__init__ = self.wrap("atomic.AtomSpec", init)

        for (layer, cls_name), span in WRITERS.items():
            cls = getattr(modules[layer], cls_name)
            cls.write_csv = self.wrap(span, cls.write_csv)

        geometry = modules["geometry"]
        if hasattr(geometry, "integrate"):
            geometry.integrate = _CountingIntegrate(geometry.integrate, self.counters)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


def summarize(spans: list[list]) -> dict[str, float]:
    """Calls and self time per span name, and solid_angle calls per slit solve."""
    child_time = [0.0] * len(spans)
    in_solve = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_solve[i] = in_solve[parent] or spans[parent][0] == "geometry.solve_slit_for_solid_angle"
    out: dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[i]
        if name == "geometry.solid_angle" and in_solve[i]:
            out["geometry.solid_angle.calls_in_solve"] += 1
    return out
