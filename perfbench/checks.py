"""Output checks for the benchmark's ops.

Every check compares CSV data rows with the provenance `#` lines removed, so
a change that only moves the config hash in the header does not trip it.

The g2 pipeline is checked against a frozen reference: a copy of the click
generator and of the g2 estimator as they stand at the commit that defined
this benchmark.  It regenerates the stream for any seed and derives the
histogram, window-scan and summary rows from it, so the CLI's rows must be
identical to the rows of that commit for every seed the benchmark is given.
The model curves do not depend on the seed and are compared with the CSVs in
`reference/`, recorded at that commit by `record_reference.py`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# [g2] defaults of the config schema at the reference commit, in config units.
G2_DEFAULTS = {
    "n_trials": 2_000_000,
    "p_emit": 0.2,
    "p_double": 0.0,
    "source_tau_e_ns": 10.0,
    "eta": 0.75,
    "dark_rate_hz": 35.6,
    "leakage_rate_hz": 121.2,
    "rep_period_ns": 26000.0,
    "gate_offset_ns": 0.0,
    "gate_width_ns": 200.0,
    "window_ns": 30.0,
    "window_grid_ns": (5, 10, 15, 20, 30, 50, 100, 150, 200),
    "bin_width_ns": 1.0,
    "max_delay_periods": 5,
    "n_norm_peaks": 4,
    "stream_format": "binary",
}
_SIM_CHUNK = 1_000_000  # trials per generation chunk in the reference generator
_STREAM_MAGIC = b"IPWTAG01"
_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "<u4"), ("reserved", "<u4")])
CLOSURE_SIGMAS = 5.0


def data_rows(path) -> list[str]:
    """Lines of a CSV file without the provenance comment lines."""
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def _ps(value_ns) -> int:
    return int(round(float(value_ns) * 1000.0))


class G2Reference:
    """Reference stream and CSV rows of the g2 pipeline for one config and seed."""

    def __init__(self, g2_config: dict, seed: int):
        p = {**G2_DEFAULTS, **g2_config}
        self.n_trials = int(p["n_trials"])
        self.rep = _ps(p["rep_period_ns"])
        self.offset = _ps(p["gate_offset_ns"])
        self.gate = _ps(p["gate_width_ns"])
        self.window = _ps(p["window_ns"])
        self.grid = [_ps(w) for w in p["window_grid_ns"]]
        self.bin_width = _ps(p["bin_width_ns"])
        self.max_delay = int(p["max_delay_periods"]) * self.rep
        self.n_peaks = int(p["n_norm_peaks"])
        self.stream_format = p["stream_format"]
        self.times, self.channels = self._generate(p, seed)
        self.rows = self._analyze()

    def _generate(self, p: dict, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        gw = self.gate
        p_emit, p_double, eta = float(p["p_emit"]), float(p["p_double"]), float(p["eta"])
        tau_e = float(p["source_tau_e_ns"]) * 1000.0
        dark_mu = float(p["dark_rate_hz"]) * 1e-12 * gw
        leak_mu = float(p["leakage_rate_hz"]) * 1e-12 * gw
        times, channels = [], []
        for start in range(0, self.n_trials, _SIM_CHUNK):
            count = min(_SIM_CHUNK, self.n_trials - start)
            base = np.arange(start, start + count, dtype=np.int64) * self.rep + self.offset
            u = rng.random(count)
            n_emit = np.where(u < p_double, 2, np.where(u < p_emit, 1, 0))
            photon = np.repeat(base, n_emit)
            delays = rng.exponential(tau_e, photon.size)
            detected = rng.random(photon.size) < eta
            channel = rng.integers(0, 2, photon.size, dtype=np.uint32)
            delay_ps = np.floor(delays).astype(np.int64)
            keep = detected & (delay_ps < gw)
            times.append(photon[keep] + delay_ps[keep])
            channels.append(channel[keep])
            if dark_mu > 0.0:
                for fixed in (0, 1):
                    at = np.repeat(base, rng.poisson(dark_mu, count))
                    times.append(at + np.floor(rng.random(at.size) * gw).astype(np.int64))
                    channels.append(np.full(at.size, fixed, np.uint32))
            if leak_mu > 0.0:
                at = np.repeat(base, rng.poisson(leak_mu, count))
                times.append(at + np.floor(rng.random(at.size) * gw).astype(np.int64))
                channels.append(rng.integers(0, 2, at.size, dtype=np.uint32))
        t = np.concatenate(times)
        c = np.concatenate(channels)
        order = np.lexsort((c, t))
        return t[order], c[order]

    @property
    def active_trial_frac(self) -> float:
        """Share of trials with at least one click."""
        return np.unique(self.times // self.rep).size / self.n_trials

    def _analyze(self) -> dict[str, list[str]]:
        """Histogram, window-scan and summary rows, from the cross-channel pairs."""
        t0 = self.times[self.channels == 0]
        t1 = self.times[self.channels == 1]
        lo = np.searchsorted(t1, t0 - self.max_delay, "left")
        hi = np.searchsorted(t1, t0 + self.max_delay, "right")
        n = hi - lo
        i0 = np.repeat(np.arange(t0.size), n)
        i1 = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n) + np.repeat(lo, n)
        delays = t1[i1] - t0[i0]

        half_bins = self.max_delay // self.bin_width
        k = (delays + self.bin_width // 2) // self.bin_width
        counts = np.bincount(k + half_bins, minlength=2 * half_bins + 1)
        tau = np.arange(-half_bins, half_bins + 1, dtype=np.int64) * self.bin_width
        histogram = ["tau_ps,count"] + [f"{t},{c}" for t, c in zip(tau.tolist(), counts.tolist())]

        # A pair counts in window w when both clicks sit in [0, w) of their gate.
        trial0, trial1 = t0[i0] // self.rep, t1[i1] // self.rep
        pos0 = t0[i0] - trial0 * self.rep - self.offset
        pos1 = t1[i1] - trial1 * self.rep - self.offset
        reach = np.where(np.minimum(pos0, pos1) < 0, np.iinfo(np.int64).max, np.maximum(pos0, pos1))
        shift = trial1 - trial0
        ks = [(j + 1) // 2 * (1 if j % 2 else -1) for j in range(1, self.n_peaks + 1)]
        assert max(abs(s) for s in ks) * self.rep + self.gate <= self.max_delay
        reach_by_shift = {s: np.sort(reach[shift == s]) for s in [0] + ks}

        pos = self.times - (self.times // self.rep) * self.rep - self.offset
        pos = np.sort(pos[pos >= 0])

        def in_window(sorted_values, w):
            return int(np.searchsorted(sorted_values, w, "left"))

        def g2(w):
            n_zero = in_window(reach_by_shift[0], w)
            n_norm = float(np.mean([float(in_window(reach_by_shift[s], w)) for s in ks]))
            g = n_zero / n_norm
            var = max(n_zero, 1) / n_norm**2 + (n_zero / n_norm**2) ** 2 * (n_norm / self.n_peaks)
            return g, math.sqrt(var), n_zero, n_norm

        in_gate = in_window(pos, self.gate)
        scan = ["window_ns,g2,g2_sigma,collected_fraction"]
        for w in self.grid:
            g, sigma, _, _ = g2(w)
            frac = in_window(pos, w) / in_gate if in_gate else 0.0
            scan.append(f"{w / 1000:.12g},{g:.12g},{sigma:.12g},{frac:.12g}")
        g, sigma, n_zero, n_norm = g2(self.window)
        summary = [
            "window_ns,g2,g2_sigma,n_zero,n_norm",
            f"{self.window / 1000:.12g},{g:.12g},{sigma:.12g},{n_zero},{n_norm:.12g}",
        ]
        return {
            "g2_histogram.csv": histogram,
            "g2_window_scan.csv": scan,
            "g2_summary.csv": summary,
        }

    def stream_bytes(self) -> bytes:
        """The stream file `g2 simulate` must write, in the configured format."""
        if self.stream_format == "binary":
            records = np.zeros(self.times.size, dtype=_RECORD_DTYPE)
            records["time"] = self.times
            records["channel"] = self.channels
            return _STREAM_MAGIC + self.times.size.to_bytes(8, "little") + records.tobytes()
        lines = (f"{c},{t}\n" for c, t in zip(self.channels.tolist(), self.times.tolist()))
        return ("channel,time_ps\n" + "".join(lines)).encode()

    def check_outputs(self, out_dir, g2_config: dict) -> list[str]:
        """Histogram, scan and summary rows identical to the reference, and closure."""
        out_dir = Path(out_dir)
        problems = []
        for name, expected in self.rows.items():
            if not (out_dir / name).is_file():
                problems.append(f"{name}: missing")
            elif data_rows(out_dir / name) != expected:
                problems.append(f"{name}: rows differ from the reference")
        if not problems:
            problems += self._check_closure(out_dir / "g2_summary.csv", g2_config)
        return problems

    def _check_closure(self, summary: Path, g2_config: dict) -> list[str]:
        """n_zero and n_norm agree with the program's expected_g2 within a few sigma."""
        from ionphoton.photonstats import ExperimentTiming, SourceModel, expected_g2

        p = {**G2_DEFAULTS, **g2_config}
        model = SourceModel(
            p_emit=float(p["p_emit"]),
            p_double=float(p["p_double"]),
            tau_e=float(p["source_tau_e_ns"]) * 1000.0,
            eta=float(p["eta"]),
            dark_rate=float(p["dark_rate_hz"]),
            leakage_rate=float(p["leakage_rate_hz"]),
        )
        timing = ExperimentTiming(rep_period=self.rep, gate_offset=self.offset, gate_width=self.gate)
        exp = expected_g2(model, timing, self.window, self.n_trials, self.n_peaks)
        _, n_zero, n_norm = data_rows(summary)[1].split(",")[2:]
        problems = []
        for label, got, want in (("n_zero", float(n_zero), exp.n_zero), ("n_norm", float(n_norm), exp.n_norm)):
            if abs(got - want) > CLOSURE_SIGMAS * math.sqrt(max(want, 1.0)):
                problems.append(f"{label} = {got:g}, expected_g2 gives {want:g}")
        return problems


def same_rows(dir_a, dir_b, names) -> list[str]:
    """Files of the same name in two output directories hold the same data rows."""
    problems = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not (a.is_file() and b.is_file()) or data_rows(a) != data_rows(b):
            problems.append(f"{name}: {Path(dir_b).name} does not reproduce {Path(dir_a).name}")
    return problems


def _numeric_rows(path, first_numeric=0):
    rows = data_rows(path)
    header, body = rows[0], [r.split(",") for r in rows[1:]]
    return header, [(r[:first_numeric], [float(x) for x in r[first_numeric:]]) for r in body]


def close_rows(path, ref_path, *, rel=0.0, abs_tol=0.0, columns=None, first_numeric=0) -> list[str]:
    """Numeric rows within `rel` relative or `abs_tol` absolute of the reference rows."""
    name = Path(path).name
    if not Path(path).is_file():
        return [f"{name}: missing"]
    header, rows = _numeric_rows(path, first_numeric)
    ref_header, ref_rows = _numeric_rows(ref_path, first_numeric)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: header or row count differs from the reference"]
    worst = 0.0
    for (labels, values), (ref_labels, ref_values) in zip(rows, ref_rows):
        if labels != ref_labels:
            return [f"{name}: row labels differ from the reference"]
        picked = range(len(values)) if columns is None else columns
        for i in picked:
            limit = max(rel * abs(ref_values[i]), abs_tol)
            excess = abs(values[i] - ref_values[i]) - limit
            worst = max(worst, excess)
    if worst > 0.0:
        return [f"{name}: a value is off the reference by {worst:.3g} beyond its tolerance"]
    return []


def check_bloch(out_dir, reference: Path) -> list[str]:
    """The error curve within 1e-8 relative of the reference."""
    return close_rows(Path(out_dir) / "bloch_error_curve.csv", reference / "bloch_error_curve.csv", rel=1e-8)


def check_aperture(out_dir, reference: Path, tol: float) -> list[str]:
    """Every trade-off curve within the aperture quadrature tolerance of the reference."""
    names = sorted(p.name for p in reference.glob("tradeoff_*.csv"))
    problems = []
    for name in names:
        problems += close_rows(Path(out_dir) / name, reference / name, abs_tol=tol)
    return problems


def check_entangle(out_dir, reference: Path, tol: float, shots: int) -> list[str]:
    """Fringes and the deterministic fidelity columns within tol; sampled counts consistent.

    Counts depend on the seed, so they are checked for shot totals, and the
    estimated fidelity for closure with the predicted one.
    """
    out_dir = Path(out_dir)
    problems = []
    for ref in sorted(reference.glob("fringe_*.csv")):
        problems += close_rows(out_dir / ref.name, ref, abs_tol=tol)
    summary = out_dir / "fidelity_summary.csv"
    problems += close_rows(
        summary, reference / "fidelity_summary.csv", abs_tol=tol, columns=(0, 1, 2), first_numeric=1
    )
    if summary.is_file():
        for labels, (_, _, f_pred, f_est, f_sigma) in _numeric_rows(summary, 1)[1]:
            if abs(f_est - f_pred) > CLOSURE_SIGMAS * f_sigma:
                problems.append(f"fidelity_summary.csv: {labels[0]} F_est off F_pred by > {CLOSURE_SIGMAS:g} sigma")
    for ref in sorted(reference.glob("fringe_*.csv")):
        path = out_dir / ref.name.replace("fringe_", "counts_")
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        per_setting: dict[str, int] = {}
        for row in data_rows(path)[1:]:
            setting, _, up, down = row.split(",")
            per_setting[setting] = per_setting.get(setting, 0) + int(up) + int(down)
        if len(per_setting) != len(data_rows(ref)) - 1 or set(per_setting.values()) != {shots}:
            problems.append(f"{path.name}: settings or shot totals wrong")
    return problems
