"""Benchmark of the ionphoton command-line pipelines.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a closed loop of one
client: its CLI subcommands run back to back, each in a child process of its
own (`child.py`), on inputs made from --seed, with the program imported from
the checkout's `src/`.  One pass runs every op of the workload once; passes
repeat while another one fits in --seconds, and metrics are medians over
passes.  Every op's outputs are checked (`checks.py`); an op that exits
non-zero or fails its check counts as failed.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
Their times are scaled to a reference machine speed, measured in the same
run by a calibration child, started before every op, that repeats the
program-independent part of the set-up: on a shared machine whose speed
drifts by tens of percent from minute to minute, this keeps two runs of the
same code comparable.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics: self times and work counts from spans recorded around
the public functions of each layer (`tracer.py`), the tracing overhead, and
the known-defect probe of the geometry layer.  The last line of standard
output is one JSON object; a full run record goes to `perfbench/_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from child import PEAK, READY
from tracer import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
OP_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
# Times are reported at a reference machine speed: scaled by this over the run's
# median calibration time (child.py --calibrate, run before every op), which is
# about 0.8 s on the 2-vCPU machine the bounds were set on.  The raw times stay
# in the run record.
CALIBRATION_REFERENCE_S = 0.8
TIME_METRICS = ("setup_s", "wall_s", "op1_s", "op2_s")
WAIT_TIME_NOTE = "no layer waits: the program is single-threaded and has no queues"

BLOCH_GRID_NS = ",".join(f"{10 ** (3 * i / 30):.12g}" for i in range(31))  # 1 to 1000 ns, log-spaced
DENSE_G2 = {"p_emit": 0.9, "p_double": 0.3, "dark_rate_hz": 20000}
MODEL_ENTANGLE = {"quadrature_tol": 1e-9, "shots": 200000}

# Inputs per workload, as config sections; "tiny" is the self-check size.
WORKLOADS = {
    "g2_sparse": {
        "ops": ("g2_simulate", "g2_analyze"),
        "full": {"g2": {"n_trials": 20_000_000}},
        "tiny": {"g2": {"n_trials": 5000}},
    },
    "g2_dense_csv": {
        "ops": ("g2_simulate", "g2_analyze"),
        "full": {"g2": {"n_trials": 2_000_000, **DENSE_G2, "stream_format": "csv"}},
        "tiny": {"g2": {"n_trials": 5000, **DENSE_G2, "stream_format": "csv"}},
    },
    "model_curves": {
        "ops": ("bloch", "aperture", "entangle"),
        "full": {
            "bloch": {"t_p_grid_ns": BLOCH_GRID_NS},
            "aperture": {"na_list": "0.2,0.4,0.6,0.8,0.95", "n_points": 100, "quadrature_tol": 1e-9},
            "entangle": MODEL_ENTANGLE,
        },
        "tiny": {
            "bloch": {"t_p_grid_ns": "1,1000"},
            "aperture": {"na_list": "0.6", "n_points": 2, "quadrature_tol": 1e-9},
            "entangle": MODEL_ENTANGLE,
        },
    },
}
CLI_ARGS = {
    "g2_simulate": ["g2", "simulate"],
    "g2_analyze": ["g2", "analyze"],
    "bloch": ["bloch"],
    "aperture": ["aperture"],
    "entangle": ["entangle"],
}
G2_FILES = ("g2_histogram.csv", "g2_window_scan.csv", "g2_summary.csv")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here."""


def _use_checkout_sources() -> None:
    """Import ionphoton, for the checks and the probe, from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _on_alarm(signum, frame):
    raise TimeoutError("op exceeded its time limit")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which stops its child


def _write_ini(path: Path, sections: dict) -> None:
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")


def _child_env() -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    blas = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            threads = nproc
        env[var] = blas[var] = str(max(threads, 1))
    return env, {"nproc": nproc, "blas_threads": blas}


def run_child(cli_args: list[str], cwd: Path, env: dict, flags: tuple = ()) -> dict:
    """Run one child; return its exit code, set-up and op time, and peak RSS."""
    cmd = [sys.executable, str(HERE / "child.py"), *flags, "--", *cli_args]
    with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.alarm(0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    marks = dict(line.split(maxsplit=1) for line in stderr.splitlines() if line.startswith((READY, PEAK)))
    # The child's own VmHWM; wait4's maxrss also counts what it inherited from this process at fork.
    peak_kb = float(marks.get(PEAK, usage.ru_maxrss))
    result = {"exit": proc.returncode, "rss_mb": peak_kb / 1024.0, "stderr": stderr[-2000:]}
    if READY in marks:
        ready = float(marks[READY])
        result["setup_s"] = ready - spawned
        result["op_s"] = ended - ready
    return result


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
        self.workload, self.seed, self.seconds, self.trace, self.size = workload, seed, seconds, trace, size
        self.spec = WORKLOADS[workload]
        self.inputs = self.spec[size]
        self.env, self.machine = _child_env()
        self.work = WORK / workload
        self.out = OUT / f"{workload}-{size}-seed{seed}-trace{int(trace)}"
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []
        self.calibration_samples: list[float] = []
        self.reference = None
        self.expected_stream = None

    # -- ops ---------------------------------------------------------------
    def _stream_path(self) -> Path:
        csv = self.inputs["g2"].get("stream_format") == "csv"
        return self.work / "g2_simulate" / ("clicks.csv" if csv else "clicks.ipw")

    def _op_args(self, op: str) -> list[str]:
        args = CLI_ARGS[op] + ["--config", str(self.work / "config.ini"), "--out", str(self.work / op)]
        args += ["--seed", str(self.seed)]
        if op == "g2_analyze":
            args += ["--input", str(self._stream_path())]
        return args

    def _check(self, op: str) -> list[str]:
        out_dir = self.work / op
        if op == "g2_simulate":
            stream = self._stream_path()
            problems = [] if stream.is_file() and stream.read_bytes() == self.expected_stream else [
                f"{stream.name}: clicks differ from the reference stream"
            ]
            return problems + self.reference.check_outputs(out_dir, self.inputs["g2"])
        if op == "g2_analyze":
            problems = self.reference.check_outputs(out_dir, self.inputs["g2"])
            return problems + checks.same_rows(self.work / "g2_simulate", out_dir, G2_FILES)
        reference = checks.REFERENCE_DIR / f"model_curves-{self.size}"
        if op == "bloch":
            return checks.check_bloch(out_dir, reference)
        if op == "aperture":
            return checks.check_aperture(out_dir, reference, self.inputs["aperture"]["quadrature_tol"])
        ent = self.inputs["entangle"]
        return checks.check_entangle(out_dir, reference, ent["quadrature_tol"], ent["shots"])

    def _run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        ops = []
        for op in self.spec["ops"]:
            self._calibrate()
            flags = ("--trace", str(self.out / f"spans-pass{index}-{op}.json")) if traced else ()
            result = run_child(self._op_args(op), self.work, self.env, flags)
            if "setup_s" in result:
                self.setup_samples.append(result["setup_s"])
            if result["exit"] != 0:
                result["problems"] = [f"exit code {result['exit']}"]
            else:
                try:
                    result["problems"] = self._check(op)
                except (OSError, ValueError, IndexError) as exc:
                    result["problems"] = [f"outputs unreadable: {exc!r}"]
            if "op_s" not in result:
                result["problems"].append("child never reported ready")
            ops.append({"op": op, **result})
        return {
            "traced": traced,
            "ops": ops,
            "wall_s": sum(o.get("op_s", 0.0) for o in ops),
            "duration_s": sum(o.get("setup_s", 0.0) + o.get("op_s", 0.0) for o in ops),
        }

    # -- the run -----------------------------------------------------------
    def execute(self) -> dict:
        _use_checkout_sources()
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGTERM, _on_term)
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out.mkdir(parents=True)
        _write_ini(self.work / "config.ini", self.inputs)
        try:
            if "g2" in self.inputs:
                self.reference = checks.G2Reference(self.inputs["g2"], self.seed)
                self.expected_stream = self.reference.stream_bytes()
            measured = 0.0
            while True:
                traced = self.trace and len(self.passes) % 2 == 1
                self.passes.append(self._run_pass(traced))
                measured += self.passes[-1]["duration_s"]
                enough = len(self.passes) >= (2 if self.trace else 1)  # a traced run needs both kinds
                if enough and measured + measured / len(self.passes) > self.seconds:
                    break
            self._calibrate()
            while len(self.setup_samples) < MIN_SETUP_SAMPLES:
                probe = run_child(["--config", str(self.work / "config.ini")], self.work, self.env, ("--setup-only",))
                if probe["exit"] != 0 or "setup_s" not in probe:
                    raise BenchmarkError(f"set-up probe failed: {probe['stderr']}")
                self.setup_samples.append(probe["setup_s"])
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self._result()

    def _calibrate(self) -> None:
        probe = run_child([], self.work, self.env, ("--calibrate",))
        if probe["exit"] != 0 or "setup_s" not in probe:
            raise BenchmarkError(f"calibration failed: {probe['stderr']}")
        self.calibration_samples.append(probe["setup_s"])

    def _result(self) -> dict:
        ops = [o for p in self.passes for o in p["ops"]]
        failed = sum(1 for o in ops if o["problems"])
        raw = self._end_to_end()
        scale = CALIBRATION_REFERENCE_S / statistics.median(self.calibration_samples)
        metrics = {k: v * scale if k in TIME_METRICS else v for k, v in raw.items()}
        if self.trace:
            metrics.update(self._per_layer())
        record = {
            "workload": self.workload,
            "why": next(w["why"] for w in _spec()["workloads"] if w["name"] == self.workload),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "size": self.size,
            "inputs": self.inputs,
            "ops": list(self.spec["ops"]),
            "environment": _environment(self.machine),
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "failed_frac": failed / len(ops),
            "wait_time": WAIT_TIME_NOTE,
            "metrics": metrics,
            "raw_metrics": raw,
            "speed_scale": scale,
            "passes": self.passes,
            "setup_samples_s": self.setup_samples,
            "calibration_samples_s": self.calibration_samples,
        }
        (self.out / "result.json").write_text(json.dumps(record, indent=1))
        return record

    def _end_to_end(self) -> dict:
        plain = [p for p in self.passes if not p["traced"]]

        def op_median(i, key):
            return statistics.median(p["ops"][i].get(key, 0.0) for p in plain)

        return {
            "setup_s": statistics.median(self.setup_samples),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(max(o["rss_mb"] for o in p["ops"]) for p in plain),
            "op1_s": op_median(0, "op_s"),
            "op2_s": op_median(1, "op_s"),
            "op2_rss_mb": op_median(1, "rss_mb"),
        }

    def _per_layer(self) -> dict:
        per_pass = []
        import_times = []
        for index, p in enumerate(self.passes):
            if not p["traced"]:
                continue
            values: dict[str, float] = {}
            for op in self.spec["ops"]:
                path = self.out / f"spans-pass{index}-{op}.json"
                if not path.is_file():
                    continue
                dump = json.loads(path.read_text())
                import_times.append(dump["import_s"])
                for key, value in list(summarize(dump["spans"]).items()) + list(dump["counters"].items()):
                    values[key] = values.get(key, 0.0) + value
            for layer in LAYERS:
                values[f"{layer}.self_s"] = sum(
                    v for k, v in values.items()
                    if k.startswith(f"{layer}.") and k.endswith(".self_s") and k.count(".") == 2
                    and not k.startswith("cli.csv_write")
                )
            solves = values.get("geometry.solve_slit_for_solid_angle.calls", 0.0)
            values["geometry.solid_angle_per_solve"] = (
                values.get("geometry.solid_angle.calls_in_solve", 0.0) / solves if solves else 0.0
            )
            values["trace.wall_s"] = p["wall_s"]
            per_pass.append(values)

        names = {k for values in per_pass for k in values}
        metrics = {k: statistics.median(v.get(k, 0.0) for v in per_pass) for k in names}
        plain_wall = statistics.median(p["wall_s"] for p in self.passes if not p["traced"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
        metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
        metrics["photonstats.active_trial_frac"] = self.reference.active_trial_frac if self.reference else 0.0
        metrics["geometry.probe_attempted"], metrics["geometry.probe_failed"] = _probe()
        return metrics


def _probe() -> tuple[int, int]:
    """Run the wide-aperture inputs known to raise QuadratureError; count those that fail."""
    from ionphoton.geometry import ApertureSpec, collection_probabilities, solid_angle, solve_slit_for_solid_angle

    cases = [
        lambda: solid_angle(ApertureSpec.slit(2.2, 1.5)),
        lambda: solid_angle(ApertureSpec.slit(1.7, 1.7)),
        lambda: solve_slit_for_solid_angle(2.2, 3.0),
        *(lambda a=a: collection_probabilities(ApertureSpec.circular(a), tol=1e-12) for a in (1.0, 1.6, 2.2, 3.0)),
    ]
    failed = 0
    for case in cases:
        try:
            case()
        except Exception:  # any failure counts; today each raises QuadratureError
            failed += 1
    return len(cases), failed


def _environment(machine: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "commit": commit,
        **machine,
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(record: dict, names: list[dict]) -> dict:
    """Print a readable table; return the metrics of `names` with units."""
    labels = {
        "g2": {"op1_s": "g2_simulate_s", "op2_s": "g2_analyze_s", "op2_rss_mb": "g2_analyze_rss_mb"},
        "model": {"op1_s": "bloch_s", "op2_s": "aperture_s", "op2_rss_mb": "aperture_rss_mb"},
    }["g2" if record["workload"].startswith("g2") else "model"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['attempted']} ops, failed_frac {record['failed_frac']:.3g}")
    for p in record["passes"]:
        for o in p["ops"]:
            if o["problems"]:
                print(f"  FAILED {o['op']}: {'; '.join(o['problems'])}")
    metrics = {}
    for m in names:
        value = record["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        alias = labels.get(m["name"])
        raw = f"  raw {record['raw_metrics'][m['name']]:.6g}" if m["name"] in TIME_METRICS else ""
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}{raw}" + (f"  ({alias})" if alias else ""))
    if record["trace"]:
        print(f"  wait time: {WAIT_TIME_NOTE}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ionphoton" / "cli.py").is_file():
        print(f"error: no ionphoton sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        record = Run(workload, args.seed, args.seconds, bool(args.trace)).execute()
        metrics = _report(record, names)
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
