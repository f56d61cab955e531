"""Dense per-trial reference for the gated g2 estimator.

This is the straightforward form of the window counting in
`ionphoton.photonstats`: per-trial click counts held in arrays over every
trial up to the last clicked one, and shifted peaks taken as dot products of
shifted slices.  Its memory grows with the largest trial index, so it is
only for small streams; the property tests require the sparse library path
to agree with it exactly.
"""

from __future__ import annotations

import numpy as np

from ionphoton.errors import InsufficientDataError, ValidationError
from ionphoton.photonstats import G2Result, WindowScanPoint, g2_from_counts


def _window_counts(stream, timing, window) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial click counts inside the analysis window, per channel."""
    trial = stream.times // timing.rep_period
    pos = stream.times - trial * timing.rep_period - timing.gate_offset
    in_window = (pos >= 0) & (pos < window)
    if not in_window.any():
        return np.zeros(1, np.int64), np.zeros(1, np.int64)
    trial = trial[in_window]
    channel = stream.channels[in_window]
    n = int(trial.max()) + 1
    c0 = np.bincount(trial[channel == 0], minlength=n)
    c1 = np.bincount(trial[channel == 1], minlength=n)
    return c0, c1


def _shifted_pairs(c0: np.ndarray, c1: np.ndarray, k: int) -> float:
    """Coincidence count between attempts i and i+k: sum_i c0[i] * c1[i+k]."""
    if k >= 0:
        return float(np.dot(c0[: c0.size - k], c1[k:])) if k < c0.size else 0.0
    return float(np.dot(c0[-k:], c1[: c1.size + k])) if -k < c1.size else 0.0


def peak_shifts(n_peaks: int) -> list[int]:
    """Peak order of the estimator: k = +1, -1, +2, -2, ..."""
    return [(j + 1) // 2 * (1 if j % 2 else -1) for j in range(1, n_peaks + 1)]


def dense_g2_zero(stream, timing, window, n_norm_peaks=4) -> G2Result:
    if window <= 0 or window > timing.gate_width:
        raise ValidationError(f"window={window} outside (0, gate_width]")
    if n_norm_peaks < 2:
        raise ValidationError("n_norm_peaks must be >= 2")
    c0, c1 = _window_counts(stream, timing, window)
    n_zero = int(np.dot(c0, c1))
    n_norm = float(np.mean([_shifted_pairs(c0, c1, k) for k in peak_shifts(n_norm_peaks)]))
    if n_norm == 0.0:
        raise InsufficientDataError(
            f"no cross-attempt coincidences in the nearest {n_norm_peaks} peaks"
        )
    return g2_from_counts(n_zero, n_norm, n_peaks=n_norm_peaks, window=window)


def dense_window_scan(stream, timing, windows, n_norm_peaks=4) -> list[WindowScanPoint]:
    gate0, gate1 = _window_counts(stream, timing, timing.gate_width)
    total_in_gate = int(gate0.sum() + gate1.sum())
    points = []
    for w in windows:
        res = dense_g2_zero(stream, timing, w, n_norm_peaks=n_norm_peaks)
        c0, c1 = _window_counts(stream, timing, w)
        frac = (int(c0.sum() + c1.sum()) / total_in_gate) if total_in_gate else 0.0
        points.append(WindowScanPoint(window=w, result=res, collected_fraction=frac))
    return points
