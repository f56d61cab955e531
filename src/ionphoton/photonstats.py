"""Click-stream simulation and pulsed autocorrelation analysis.

Detector records are (channel, time) pairs with integer picosecond
timestamps so file round-trips are bit-exact.  The experiment is a train of
excitation attempts separated by rep_period; detection is gated to a window
of gate_width starting gate_offset after each attempt.

The generative model is parametric, not a dynamical simulation: per attempt
at most two photons are emitted with exponential delay from the pulse, each
detected with efficiency eta and routed 50/50 between the two detectors.
Dark counts are an independent Poisson process per detector; modulator light
leakage is a Poisson process at the splitter input, routed 50/50.  Both only
count inside the gate (gated detection).

Analysis normalizes zero-delay coincidences by the mean of the nearest
cross-attempt coincidence peaks, the standard pulsed-source estimator.  A
closed-form expectation for the same estimator is provided so simulated runs
can be checked against the model they were drawn from.  No background
subtraction is performed anywhere.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, StreamFormatError, ValidationError

STREAM_MAGIC = b"IPWTAG01"
_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "<u4"), ("reserved", "<u4")])
_SIM_CHUNK = 1_000_000  # trials per generation chunk; fixed so streams are seed-reproducible
_CSV_BLOCK_ROWS = 65_536  # CSV rows formatted per write; bounds the text held in memory
_READ_CHUNK = 65_536  # binary records per read; bounds the memory above the final arrays
_CSV_HEADER = "channel,time_ps"
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class ExperimentTiming:
    """Gating of the pulsed experiment.  All fields are integer picoseconds."""

    rep_period: int = 26_000_000
    gate_offset: int = 0
    gate_width: int = 200_000
    pulse_duration: int = 10_000

    def __post_init__(self):
        for name in ("rep_period", "gate_offset", "gate_width", "pulse_duration"):
            value = getattr(self, name)
            if value != int(value):
                raise ValidationError(f"{name}={value} must be an integer (ps)")
            object.__setattr__(self, name, int(value))
        if self.rep_period <= 0 or self.gate_width <= 0 or self.pulse_duration <= 0:
            raise ValidationError("rep_period, gate_width and pulse_duration must be positive")
        if self.gate_offset < 0:
            raise ValidationError("gate_offset must be nonnegative")
        if self.gate_width >= self.rep_period:
            raise ValidationError("gate_width must be smaller than rep_period")
        if self.gate_offset + self.gate_width > self.rep_period:
            raise ValidationError("gate must fit inside one repetition period")


@dataclass(frozen=True)
class SourceModel:
    """Parametric single-photon source plus detector noise.

    p_emit is the probability of at least one collected-band emission per
    attempt and p_double the probability of a second one (p_double <=
    p_emit).  tau_e is the exponential emission delay in ps.  dark_rate is
    per detector, leakage_rate is the collected leakage click rate at the
    splitter input; both in Hz and active only inside the gate.  dead_time
    (ps, default 0 = off) drops any click that follows the previous kept
    click of the same detector by less than dead_time.
    """

    p_emit: float = 0.1
    p_double: float = 0.0
    tau_e: float = 10_000.0
    eta: float = 1.0
    dark_rate: float = 0.0
    leakage_rate: float = 0.0
    dead_time: int = 0

    def __post_init__(self):
        for name in ("p_emit", "p_double", "eta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name}={value} outside [0, 1]")
        if self.p_double > self.p_emit:
            raise ValidationError("p_double cannot exceed p_emit")
        if self.tau_e <= 0:
            raise ValidationError("tau_e must be positive")
        if self.dark_rate < 0 or self.leakage_rate < 0:
            raise ValidationError("rates must be nonnegative")
        if self.dead_time < 0:
            raise ValidationError("dead_time must be nonnegative")


class ClickStream:
    """Time-ordered detector records: int64 ps timestamps, channels in {0, 1}."""

    __slots__ = ("times", "channels")

    def __init__(self, times, channels):
        self.times = np.ascontiguousarray(times, dtype=np.int64)
        channels = np.asarray(channels)
        self._validate(channels)
        self.channels = np.ascontiguousarray(channels, dtype=np.uint32)

    def _validate(self, channels: np.ndarray):
        """Checks on the channels as given, before the uint32 cast, so a bad value is reported as written.

        Order is checked by comparing adjacent elements: a few bytes per
        record, with no int64 differences.
        """
        t = self.times
        if t.shape != channels.shape or t.ndim != 1:
            raise StreamFormatError("times and channels must be 1-D arrays of equal length")
        if t.size == 0:
            return
        bad = channels > 1
        if channels.dtype.kind != "u":
            bad |= channels < 0
        if bad.any():
            first = int(bad.argmax())
            raise StreamFormatError(f"record {first}: channel {channels[first]} not in {{0, 1}}")
        if t[0] < 0:
            raise StreamFormatError("record 0: negative timestamp")
        bad = t[1:] < t[:-1]
        tie = t[1:] == t[:-1]
        tie &= channels[1:] < channels[:-1]
        bad |= tie
        if bad.any():
            raise StreamFormatError(f"record {int(bad.argmax()) + 1}: stream not sorted by (time, channel)")

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClickStream)
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.channels, other.channels)
        )

    @classmethod
    def empty(cls) -> "ClickStream":
        return cls(np.empty(0, np.int64), np.empty(0, np.uint32))


def simulate_stream(
    model: SourceModel, timing: ExperimentTiming, n_trials: int, seed: int
) -> ClickStream:
    """Draw a synthetic gated click stream; bit-identical for a fixed seed."""
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    gw = timing.gate_width
    dark_mu = model.dark_rate * 1e-12 * gw
    leak_mu = model.leakage_rate * 1e-12 * gw

    all_times: list[np.ndarray] = []
    all_channels: list[np.ndarray] = []
    for start in range(0, n_trials, _SIM_CHUNK):
        count = min(_SIM_CHUNK, n_trials - start)
        trial_base = (
            np.arange(start, start + count, dtype=np.int64) * timing.rep_period
            + timing.gate_offset
        )

        u = rng.random(count)
        n_emit = np.where(u < model.p_double, 2, np.where(u < model.p_emit, 1, 0))
        photon_trial = np.repeat(trial_base, n_emit)
        delays = rng.exponential(model.tau_e, photon_trial.size)
        detected = rng.random(photon_trial.size) < model.eta
        channel = rng.integers(0, 2, photon_trial.size, dtype=np.uint32)
        delay_ps = np.floor(delays).astype(np.int64)
        keep = detected & (delay_ps < gw)
        all_times.append(photon_trial[keep] + delay_ps[keep])
        all_channels.append(channel[keep])

        if dark_mu > 0.0:
            for fixed_channel in (0, 1):
                counts = rng.poisson(dark_mu, count)
                base = np.repeat(trial_base, counts)
                offs = np.floor(rng.random(base.size) * gw).astype(np.int64)
                all_times.append(base + offs)
                all_channels.append(np.full(base.size, fixed_channel, np.uint32))

        if leak_mu > 0.0:
            counts = rng.poisson(leak_mu, count)
            base = np.repeat(trial_base, counts)
            offs = np.floor(rng.random(base.size) * gw).astype(np.int64)
            all_times.append(base + offs)
            all_channels.append(rng.integers(0, 2, base.size, dtype=np.uint32))

    times = np.concatenate(all_times) if all_times else np.empty(0, np.int64)
    channels = np.concatenate(all_channels) if all_channels else np.empty(0, np.uint32)

    order = np.lexsort((channels, times))
    times, channels = times[order], channels[order]

    if model.dead_time > 0 and times.size:
        keep = np.ones(times.size, bool)
        for c in (0, 1):
            idx = np.nonzero(channels == c)[0]
            last = -1 - model.dead_time
            for i in idx:
                if times[i] - last < model.dead_time:
                    keep[i] = False
                else:
                    last = times[i]
        times, channels = times[keep], channels[keep]

    return ClickStream(times, channels)


@dataclass
class CoincidenceHistogram:
    """Signed cross-channel delay histogram; tau values are bin centers (ps)."""

    bin_width: int
    tau: np.ndarray
    counts: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.counts.sum())

    def write_csv(self, fileobj) -> None:
        fileobj.write("tau_ps,count\n")
        _write_int_rows(fileobj, self.tau, self.counts)


def _pair_delays(stream: ClickStream, max_delay: int) -> np.ndarray:
    """All t1 - t0 for channel-0 x channel-1 pairs with |delta| <= max_delay."""
    t0 = stream.times[stream.channels == 0]
    t1 = stream.times[stream.channels == 1]
    if t0.size == 0 or t1.size == 0:
        return np.empty(0, np.int64)
    lo = np.searchsorted(t1, t0 - max_delay, "left")
    hi = np.searchsorted(t1, t0 + max_delay, "right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    flat = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + np.repeat(lo, counts)
    return t1[flat] - np.repeat(t0, counts)


def coincidence_histogram(
    stream: ClickStream, timing: ExperimentTiming, bin_width: int, max_delay: int
) -> CoincidenceHistogram:
    """Histogram cross-channel pair delays into signed bins centered on k*bin_width.

    max_delay must be a whole number of repetition periods covering at least
    +-5 peaks, and a multiple of bin_width so binning conserves the pair
    count exactly.
    """
    if bin_width <= 0:
        raise ValidationError("bin_width must be positive")
    if max_delay % timing.rep_period != 0 or max_delay < 5 * timing.rep_period:
        raise ValidationError("max_delay must be a multiple of rep_period covering >= 5 peaks")
    if max_delay % bin_width != 0:
        raise ValidationError("max_delay must be a multiple of bin_width")
    delays = _pair_delays(stream, max_delay)
    half = bin_width // 2
    k = (delays + half) // bin_width
    n_bins_half = max_delay // bin_width
    counts = np.bincount((k + n_bins_half).astype(np.int64), minlength=2 * n_bins_half + 1)
    tau = (np.arange(-n_bins_half, n_bins_half + 1, dtype=np.int64)) * bin_width
    return CoincidenceHistogram(bin_width=int(bin_width), tau=tau, counts=counts.astype(np.int64))


@dataclass(frozen=True)
class G2Result:
    """Zero-delay autocorrelation estimate with its 1-sigma uncertainty."""

    g2: float
    sigma: float
    n_zero: int
    n_norm: float
    window: Optional[int] = None


def g2_from_counts(
    n_zero: int,
    n_norm: float,
    n_peaks: Optional[int] = None,
    window: Optional[int] = None,
) -> G2Result:
    """g2(0) from raw coincidence numbers: n_zero over the mean peak n_norm.

    sigma combines Poisson uncertainty on the zero-delay count (a one-count
    upper bound is used when n_zero = 0, so the uncertainty never vanishes)
    with the propagated uncertainty of the normalization, var(n_norm) =
    n_norm / n_peaks (n_peaks defaults to 1).
    """
    if n_zero < 0 or n_norm < 0:
        raise ValidationError("counts must be nonnegative")
    if n_norm == 0:
        raise InsufficientDataError("normalization peaks are empty; cannot form g2")
    g2 = n_zero / n_norm
    var_norm = n_norm / (n_peaks or 1)
    var = max(n_zero, 1) / n_norm**2 + (n_zero / n_norm**2) ** 2 * var_norm
    return G2Result(g2=g2, sigma=math.sqrt(var), n_zero=int(n_zero), n_norm=float(n_norm), window=window)


def _int_dtype(limit: int) -> type:
    """int32 if it holds every integer in [0, limit], else int64."""
    return np.int32 if limit <= np.iinfo(np.int32).max else np.int64


class _GateClicks:
    """The in-gate clicks of a stream, indexed by the trials that have any.

    Built once per stream, so that counting a window costs in proportion to
    the clicks in the gate, not to the number of trials: same-trial and
    shifted-trial products are joins on the ids of active trials (the
    asynchronous time-tag correlation of Wahl et al. 2003, Opt. Express 11,
    3583).  Per channel, `slots` holds each click's index among the active
    trial ids and `pos` its position in the gate; `shifts[k - 1]` holds the
    index pairs (a, b) of active trials with ids[b] == ids[a] + k, for
    k = 1 .. max_shift.
    """

    def __init__(self, stream: ClickStream, timing: ExperimentTiming, max_shift: int):
        trial, pos = np.divmod(stream.times, timing.rep_period)
        pos -= timing.gate_offset
        in_gate = (pos >= 0) & (pos < timing.gate_width)
        # per-click arrays set the peak memory: filter and split them one at
        # a time, drop each once it is used, and keep positions and slots in
        # int32 where they fit
        pos = pos[in_gate].astype(_int_dtype(timing.gate_width))
        trial = trial[in_gate]
        is0 = stream.channels[in_gate] == 0
        del in_gate
        # the stream is time-sorted, so trial ids never decrease
        first = np.ones(trial.size, bool)
        first[1:] = trial[1:] != trial[:-1]
        ids = trial[first]
        del trial
        slot = np.cumsum(first, dtype=_int_dtype(ids.size))
        del first
        slot -= 1
        self.n_active = ids.size
        is1 = ~is0
        self.slots = (slot[is0], slot[is1])
        del slot
        self.pos = (pos[is0], pos[is1])
        del pos
        # ids are unique and increasing, so ids[a] + k can only sit at b = a + d, d <= k
        self.shifts = []
        for k in range(1, max_shift + 1):
            a = [np.flatnonzero(ids[d:] - ids[:-d] == k) for d in range(1, k + 1)]
            b = [a_d + d for d, a_d in enumerate(a, start=1)]
            self.shifts.append((np.concatenate(a), np.concatenate(b)))

    def n_in_window(self, window: int) -> int:
        return sum(int(np.count_nonzero(p < window)) for p in self.pos)

    def counts(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Clicks per active trial inside the analysis window, per channel."""
        c0, c1 = (
            np.bincount(s[p < window], minlength=self.n_active) for s, p in zip(self.slots, self.pos)
        )
        return c0, c1

    def peaks(self, c0: np.ndarray, c1: np.ndarray, n_peaks: int) -> list[float]:
        """Cross-attempt coincidences sum_i c0[i] * c1[i + k], for k = +1, -1, +2, -2, ..."""
        out = []
        for a, b in self.shifts[: (n_peaks + 1) // 2]:
            out += [float(np.dot(c0[a], c1[b])), float(np.dot(c0[b], c1[a]))]
        return out[:n_peaks]

    def g2(self, window: int, n_norm_peaks: int) -> G2Result:
        c0, c1 = self.counts(window)
        n_zero = int(np.dot(c0, c1))
        n_norm = float(np.mean(self.peaks(c0, c1, n_norm_peaks)))
        if n_norm == 0.0:
            raise InsufficientDataError(
                f"no cross-attempt coincidences in the nearest {n_norm_peaks} peaks"
            )
        return g2_from_counts(n_zero, n_norm, n_peaks=n_norm_peaks, window=window)


def _check_g2_args(timing: ExperimentTiming, window: int, n_norm_peaks: int) -> None:
    if window <= 0 or window > timing.gate_width:
        raise ValidationError(f"window={window} outside (0, gate_width]")
    if n_norm_peaks < 2:
        raise ValidationError("n_norm_peaks must be >= 2")


def g2_zero(
    stream: ClickStream,
    timing: ExperimentTiming,
    window: int,
    n_norm_peaks: int = 4,
) -> G2Result:
    """Gated g2(0): same-attempt cross-channel pairs over the mean nearby peak.

    Both clicks of a pair must fall within `window` of their gate start.
    Normalization is the mean over the nearest n_norm_peaks cross-attempt
    peaks (k = +1, -1, +2, -2, ...).
    """
    _check_g2_args(timing, window, n_norm_peaks)
    return _GateClicks(stream, timing, (n_norm_peaks + 1) // 2).g2(window, n_norm_peaks)


@dataclass
class WindowScanPoint:
    window: int
    result: G2Result
    collected_fraction: float


def g2_window_scan(
    stream: ClickStream,
    timing: ExperimentTiming,
    window_grid: Sequence[int],
    n_norm_peaks: int = 4,
) -> list[WindowScanPoint]:
    """g2(0) and collected-light fraction versus integration window."""
    windows = [int(w) for w in window_grid]
    if not windows or any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValidationError("window grid must be strictly increasing")
    if windows[-1] > timing.gate_width:
        raise ValidationError("windows cannot exceed the gate width")
    for w in windows:
        _check_g2_args(timing, w, n_norm_peaks)
    clicks = _GateClicks(stream, timing, (n_norm_peaks + 1) // 2)
    total_in_gate = clicks.n_in_window(timing.gate_width)
    points = []
    for w in windows:
        frac = clicks.n_in_window(w) / total_in_gate if total_in_gate else 0.0
        points.append(WindowScanPoint(window=w, result=clicks.g2(w, n_norm_peaks), collected_fraction=frac))
    return points


def write_scan_csv(points: Sequence[WindowScanPoint], fileobj) -> None:
    fileobj.write("window_ns,g2,g2_sigma,collected_fraction\n")
    for p in points:
        fileobj.write(
            f"{p.window / 1000:.12g},{p.result.g2:.12g},{p.result.sigma:.12g},"
            f"{p.collected_fraction:.12g}\n"
        )


@dataclass(frozen=True)
class ExpectedG2:
    """Closed-form expectation of the gated g2 estimator under the source model."""

    g2: float
    n_zero: float
    n_norm: float


def expected_g2(
    model: SourceModel,
    timing: ExperimentTiming,
    window: int,
    n_trials: int,
    n_norm_peaks: int = 4,
) -> ExpectedG2:
    """Exact expectations of n_zero, n_norm and their ratio for the generator.

    Signal photons anti-correlate across the splitter (one photon cannot
    click both detectors), so same-attempt pairs come only from double
    emissions and from signal-background or background-background products;
    cross-attempt pairs are products of independent per-attempt means.
    """
    q_w = 1.0 - math.exp(-window / model.tau_e)
    sig_per_channel = (model.p_emit + model.p_double) * model.eta * q_w / 2.0
    double_pairs = model.p_double * model.eta**2 * q_w**2 / 2.0
    background = model.dark_rate * 1e-12 * window + model.leakage_rate * 1e-12 * window / 2.0
    per_trial_zero = double_pairs + 2.0 * sig_per_channel * background + background**2
    per_channel = sig_per_channel + background
    ks = [(j + 1) // 2 * (1 if j % 2 else -1) for j in range(1, n_norm_peaks + 1)]
    n_norm = float(np.mean([(n_trials - abs(k)) * per_channel**2 for k in ks]))
    n_zero = n_trials * per_trial_zero
    return ExpectedG2(g2=n_zero / n_norm, n_zero=n_zero, n_norm=n_norm)


# ---------------------------------------------------------------------------
# Click-stream files
#
# Binary: 16-byte header (magic "IPWTAG01", little-endian uint64 record
# count) followed by 16-byte records: uint64 time_ps, uint32 channel,
# uint32 reserved (zero).  Text: CSV with header "channel,time_ps".
# ---------------------------------------------------------------------------


def _write_int_rows(fileobj, first: np.ndarray, second: np.ndarray) -> None:
    """Write "first,second" rows of two integer columns, one block of rows per write."""
    for start in range(0, first.size, _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        values = np.column_stack((first[block], second[block])).ravel().tolist()
        fileobj.write("%d,%d\n" * (len(values) // 2) % tuple(values))


def write_stream_binary(stream: ClickStream, path) -> None:
    records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    records["time"] = stream.times
    records["channel"] = stream.channels
    with open(path, "wb") as fh:
        fh.write(STREAM_MAGIC)
        fh.write(struct.pack("<Q", len(stream)))
        fh.write(records.tobytes())


def read_stream_binary(path) -> ClickStream:
    """Load a binary stream in chunks of records, straight into the final arrays."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise StreamFormatError(f"{path}: truncated header ({len(header)} bytes)")
        if header[:8] != STREAM_MAGIC:
            raise StreamFormatError(f"{path}: bad magic {header[:8]!r}")
        (count,) = struct.unpack("<Q", header[8:])
        payload_bytes = os.fstat(fh.fileno()).st_size - len(header)
        if payload_bytes != count * _RECORD_DTYPE.itemsize:
            raise StreamFormatError(
                f"{path}: header promises {count} records but payload holds "
                f"{payload_bytes // _RECORD_DTYPE.itemsize}"
            )
        times = np.empty(count, np.int64)
        channels = np.empty(count, np.uint32)
        for start in range(0, count, _READ_CHUNK):
            stop = min(start + _READ_CHUNK, count)
            records = np.fromfile(fh, _RECORD_DTYPE, count=stop - start)
            if records.size < stop - start:  # the file shrank after its size was checked
                raise StreamFormatError(
                    f"{path}: header promises {count} records but payload holds {start + records.size}"
                )
            bad = np.flatnonzero(records["reserved"])
            if bad.size:
                raise StreamFormatError(f"{path}: record {start + bad[0]}: reserved field nonzero")
            np.copyto(times[start:stop], records["time"], casting="unsafe")
            channels[start:stop] = records["channel"]
    try:
        return ClickStream(times, channels)
    except StreamFormatError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def write_stream_csv(stream: ClickStream, path) -> None:
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        _write_int_rows(fh, stream.channels, stream.times)


def _parse_int_rows(fh) -> Optional[np.ndarray]:
    """The rest of fh as an (n, 2) int64 array, or None if any line is not two plain integers.

    Whatever this accepts, the per-line reader accepts with the same values:
    blank lines are skipped by both, and "#", header, float, hex, out-of-range
    and wrong-width lines make this return None.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file holds no rows
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 truncates "1.5" with this warning
        try:
            rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except (ValueError, DeprecationWarning):
            return None
    return rows if rows.shape[1] == 2 else None


def _read_csv_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """Per-line parse: skips blank, "#" and header lines anywhere, and names the first bad line."""
    channels, times = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line == _CSV_HEADER:
                continue
            try:
                c, t = line.split(",")
                c, t = int(c), int(t)
            except ValueError:
                raise StreamFormatError(f"{path}: line {lineno}: unparseable record {line!r}") from None
            if not (_INT64.min <= c <= _INT64.max and _INT64.min <= t <= _INT64.max):
                raise StreamFormatError(f"{path}: line {lineno}: value outside int64 in record {line!r}")
            channels.append(c)
            times.append(t)
    return np.asarray(channels, np.int64), np.asarray(times, np.int64)


def read_stream_csv(path) -> ClickStream:
    """Load a CSV stream.

    A file in the writer's own format (the header line, then integer rows)
    is parsed in one vectorised call.  Any other layout, and any file with a
    bad line, goes through the per-line reader, which gives the same stream
    and reports the first bad line.
    """
    try:
        with open(path) as fh:
            rows = _parse_int_rows(fh) if fh.readline().strip() == _CSV_HEADER else None
        channels, times = _read_csv_lines(path) if rows is None else (rows[:, 0], rows[:, 1])
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"{path}: not a text stream: {exc}") from None
    try:
        return ClickStream(times, channels)
    except StreamFormatError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def read_stream(path) -> ClickStream:
    """Load a click stream, sniffing binary versus CSV from the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == STREAM_MAGIC:
        return read_stream_binary(path)
    return read_stream_csv(path)
