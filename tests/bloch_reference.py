"""Frozen fourth-order Runge-Kutta reference for the double-excitation error.

This is the propagation as it was before the exact one: the pulse and the
drive-free tail are stepped with the classical RK4 transfer matrix, the tail
in 5-lifetime chunks until the sink total changes by < 1e-9 (at least 15
lifetimes, at most 80).  It shares the generator and the state packing with
`ionphoton.bloch`, so a test comparing the two checks only the propagation:
the library value must agree with it to the RK4 truncation error, and the
gap must shrink at fourth order as dt halves.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ionphoton.atomic import AtomSpec, Sublevel, Term
from ionphoton.bloch import _DIM, _SIZE, DynamicState, PulseSpec, _generator, _pack


def rk4_step_matrix(gen: np.ndarray, dt: float) -> np.ndarray:
    """One-step transfer matrix of classical RK4 for the linear system y' = G y."""
    step = np.eye(_SIZE, dtype=complex)
    term = np.eye(_SIZE, dtype=complex)
    scaled = gen * dt
    for k in (1, 2, 3, 4):
        term = term @ scaled / k
        step = step + term
    return step


def rk4_double_excitation_error(
    atom: AtomSpec, t_p: float, detuning: float = 0.0, dt: Optional[float] = None
) -> float:
    """RK4 value of (bad sinks) / (all sinks); dt defaults to the old automatic steps."""
    pulse = PulseSpec(t_p=t_p, detuning=detuning)
    if dt is None:
        pulse_dt = min(atom.tau_e / 400.0, t_p / 200.0)
        tail_dt = atom.tau_e / 400.0
    else:
        pulse_dt = tail_dt = dt

    y = _pack(DynamicState.pure(Sublevel(Term.D32, +1.5)))

    n_pulse = max(1, math.ceil(t_p / pulse_dt - 1e-12))
    step = rk4_step_matrix(_generator(atom, pulse.omega, detuning), t_p / n_pulse)
    for _ in range(n_pulse):
        y = step @ y

    chunk = 5.0 * atom.tau_e
    n_tail = max(1, math.ceil(chunk / tail_dt - 1e-12))
    step = rk4_step_matrix(_generator(atom, 0.0, 0.0), chunk / n_tail)
    sink_slice = slice(_DIM * _DIM, None)
    previous = float(y[sink_slice].real.sum())
    for n_chunks in range(1, 17):
        for _ in range(n_tail):
            y = step @ y
        current = float(y[sink_slice].real.sum())
        if n_chunks >= 3 and current - previous < 1e-9:
            break
        previous = current

    sinks = y[sink_slice].real
    total = sinks.sum()
    if total <= 0.0:
        return 0.0
    return float((sinks[2] + sinks[3]) / total)
