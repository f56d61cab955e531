"""Pulsed 650 nm excitation dynamics and the double-excitation error budget.

The coherent system is the six-level block {four D3/2 sublevels, two P1/2
sublevels}.  No field couples S1/2, so ground-state population is tracked in
four classical sinks labelled by the Zeeman level reached (down/up) and by
which P1/2 sublevel sourced the decay: decays from P1/2(+1/2) feed the "good"
sinks, decays from P1/2(-1/2) the "bad" ones.  Decays back into D3/2 re-enter
the coherent block untagged and can be re-excited by the drive, which is the
error mechanism this module quantifies.

The sigma-minus drive couples the two Delta-m = -1 transitions on the red
line, D3/2(+3/2) <-> P1/2(+1/2) and D3/2(+1/2) <-> P1/2(-1/2), with relative
Rabi amplitudes set by the square roots of their Clebsch-Gordan weights.

Evolution is a master equation with channel-resolved jump operators.  Its
generator is linear and constant on each segment (drive on, drive off), so
the state is propagated exactly by the matrix exponential, computed in numpy
by scaling and squaring of the diagonal Pade-13 approximant (`_expm`; Higham
2005, SIAM J. Matrix Anal. Appl. 26, 1179).  With the drive off, D3/2 is dark
and every entry with a P1/2 index decays unfed, so the decay tail to
t -> infinity is taken in closed form.

Limits in the pulse time t_p: the generator times t_p is scaled by 2**-s
with 2**s ~ t_p / tau_e, and the s squarings amplify the rounding of the
nearly dark D3/2 block about 2**s times.  Total probability (trace plus
sinks) is conserved to 5e-12 at t_p = 1e6 ns, 5e-8 at 1e10 ns and 0.06 at
1e16 ns.  epsilon_d, a ratio of sink populations, is within 2e-12 relative
of a 50-digit evaluation up to 1e6 ns and keeps its digits while the sinks
stay representable, up to about 1.2e20 ns at the default atom.  Beyond that
every entry underflows to zero and double_excitation_error raises
FloatingPointError naming t_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic import AtomSpec, Sublevel, Term, decay_channels
from .errors import ValidationError

COHERENT_LEVELS: tuple[Sublevel, ...] = (
    Sublevel(Term.D32, -1.5),
    Sublevel(Term.D32, -0.5),
    Sublevel(Term.D32, +0.5),
    Sublevel(Term.D32, +1.5),
    Sublevel(Term.P12, -0.5),
    Sublevel(Term.P12, +0.5),
)
SINK_LABELS = ("s_down_good", "s_up_good", "s_down_bad", "s_up_bad")

_DIM = len(COHERENT_LEVELS)
_NSINK = len(SINK_LABELS)
_SIZE = _DIM * _DIM + _NSINK


def basis_index(level: Sublevel) -> int:
    try:
        return COHERENT_LEVELS.index(level)
    except ValueError:
        raise ValidationError(f"{level} is not in the coherent block") from None


def _sink_index(m_s: float, good: bool) -> int:
    return (0 if m_s < 0 else 1) + (0 if good else 2)


@dataclass(frozen=True)
class PulseSpec:
    """Square excitation pulse: duration t_p (ns), Rabi rate omega (rad/ns).

    omega defaults to pi/t_p, the area-pi convention used throughout the
    error scans.  detuning is a single scalar laser detuning applied to both
    driven transitions (rad/ns); Zeeman splittings within D3/2 are not
    modeled.
    """

    t_p: float
    omega: Optional[float] = None
    detuning: float = 0.0

    def __post_init__(self):
        if not 0 < self.t_p < math.inf:
            raise ValidationError(f"t_p={self.t_p} must be positive and finite")
        if not math.isfinite(self.detuning):
            raise ValidationError(f"detuning={self.detuning} must be finite")
        if self.omega is None:
            object.__setattr__(self, "omega", math.pi / self.t_p)
        if not 0 <= self.omega < math.inf:
            raise ValidationError(f"omega={self.omega} must be nonnegative and finite")


class DynamicState:
    """Density matrix over the coherent block plus the four ground-state sinks."""

    __slots__ = ("rho", "sinks")

    def __init__(self, rho: np.ndarray, sinks: np.ndarray):
        self.rho = np.asarray(rho, dtype=complex).reshape(_DIM, _DIM)
        self.sinks = np.asarray(sinks, dtype=float).reshape(_NSINK)

    @classmethod
    def pure(cls, level: Sublevel) -> "DynamicState":
        rho = np.zeros((_DIM, _DIM), dtype=complex)
        i = basis_index(level)
        rho[i, i] = 1.0
        return cls(rho, np.zeros(_NSINK))

    def population(self, level: Sublevel) -> float:
        i = basis_index(level)
        return float(self.rho[i, i].real)

    def sink(self, label: str) -> float:
        return float(self.sinks[SINK_LABELS.index(label)])

    def sink_total(self) -> float:
        return float(self.sinks.sum())

    def total_probability(self) -> float:
        return float(self.rho.trace().real + self.sinks.sum())

    def validate(self, atol: float = 1e-9) -> None:
        if abs(self.total_probability() - 1.0) > atol:
            raise ValidationError(
                f"state not normalized: trace+sinks = {self.total_probability()!r}"
            )
        if np.max(np.abs(self.rho - self.rho.conj().T)) > atol:
            raise ValidationError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(self.rho).min() < -atol:
            raise ValidationError("density matrix is not positive semidefinite")
        if self.sinks.min() < -atol:
            raise ValidationError("sink populations must be nonnegative")

    def copy(self) -> "DynamicState":
        return DynamicState(self.rho.copy(), self.sinks.copy())


@dataclass
class BlochTrajectory:
    times: np.ndarray
    states: list[DynamicState]

    @property
    def final(self) -> DynamicState:
        return self.states[-1]


@dataclass
class ErrorCurve:
    """Double-excitation error versus pulse duration."""

    t_p: np.ndarray
    epsilon_d: np.ndarray

    def write_csv(self, fileobj) -> None:
        fileobj.write("t_p_ns,epsilon_d\n")
        for tp, eps in zip(self.t_p, self.epsilon_d):
            fileobj.write(f"{tp:.11e},{eps:.11e}\n")


def _pack(state: DynamicState) -> np.ndarray:
    y = np.empty(_SIZE, dtype=complex)
    y[: _DIM * _DIM] = state.rho.ravel()
    y[_DIM * _DIM :] = state.sinks
    return y


def _unpack(y: np.ndarray) -> DynamicState:
    rho = y[: _DIM * _DIM].reshape(_DIM, _DIM).copy()
    sinks = y[_DIM * _DIM :].real.copy()
    return DynamicState(rho, sinks)


def _generator(atom: AtomSpec, omega: float, detuning: float) -> np.ndarray:
    """Linear generator acting on [vec(rho), sinks]."""
    ham = np.zeros((_DIM, _DIM), dtype=complex)
    if omega > 0.0:
        drive = [
            ch for ch in atom.channels if ch.q == -1 and ch.lower.term is Term.D32
        ]
        ref = next(ch.cg2 for ch in drive if ch.lower.mj == 1.5)
        for ch in drive:
            amp = omega * math.sqrt(ch.cg2 / ref)
            iu, il = basis_index(ch.upper), basis_index(ch.lower)
            ham[iu, il] += amp / 2.0
            ham[il, iu] += amp / 2.0
        if detuning:
            for m in (-0.5, +0.5):
                ip = basis_index(Sublevel(Term.P12, m))
                ham[ip, ip] -= detuning

    eye = np.eye(_DIM)
    rho_block = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    total_rate = np.zeros(_DIM)
    gen = np.zeros((_SIZE, _SIZE), dtype=complex)
    for m_up in (-0.5, +0.5):
        upper = Sublevel(Term.P12, m_up)
        iu = basis_index(upper)
        for ch, rate in decay_channels(upper, atom):
            total_rate[iu] += rate
            if ch.lower.term is Term.D32:
                jump = np.zeros((_DIM, _DIM))
                jump[basis_index(ch.lower), iu] = 1.0
                rho_block += rate * np.kron(jump, jump)
            else:
                k = _sink_index(ch.lower.mj, good=(m_up > 0))
                gen[_DIM * _DIM + k, iu * _DIM + iu] += rate
    decay = np.diag(total_rate)
    rho_block -= 0.5 * (np.kron(decay, eye) + np.kron(eye, decay))
    gen[: _DIM * _DIM, : _DIM * _DIM] += rho_block
    return gen


# Pade-13 coefficients b_0..b_13 and the 1-norm below which they are accurate
# to double precision (Higham 2005, "The scaling and squaring method for the
# matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 1179).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the Pade-13 approximant.

    a is scaled by 2**-s so that its 1-norm is at most theta_13, the
    diagonal Pade approximant r = (V - U)^-1 (V + U) of the scaled matrix is
    formed from its even powers, and r is squared s times.  A non-finite a
    gives a NaN matrix.
    """
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 0.5**s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _decay_tail(free: np.ndarray, y: np.ndarray) -> np.ndarray:
    """State y evolved under the drive-free generator to t -> infinity.

    Every entry with a decay rate r_i = -G[i, i] > 0 (the P1/2 populations
    and every coherence with a P1/2 index) is fed by no other decaying entry,
    so it falls as y_i exp(-r_i t) and hands y_i G[j, i] / r_i to each entry j
    it feeds: the D3/2 populations and the sinks.
    """
    rate = -free.diagonal().real
    decaying = rate > 0
    return y + free[:, decaying] @ (y[decaying] / rate[decaying])


def _check_dt(atom: AtomSpec, omega: float, dt: float) -> None:
    if not dt > 0:
        raise ValidationError(f"dt={dt} must be positive")
    if dt > atom.tau_e / 200 * (1 + 1e-12):
        raise ValidationError(
            f"dt={dt} too large: must be <= tau_e/200 = {atom.tau_e / 200}"
        )
    if omega > 0 and dt > (2 * math.pi / omega) / 100 * (1 + 1e-12):
        raise ValidationError(
            f"dt={dt} too large: must resolve the Rabi period with >= 100 steps"
        )


def evolve(
    atom: AtomSpec,
    pulse: PulseSpec,
    initial: DynamicState,
    dt: float,
    t_end: float,
    record_stride: int = 1,
) -> BlochTrajectory:
    """Integrate the master equation from t=0 through the pulse and beyond.

    The drive is on for t in [0, t_p) and off afterwards; t_end must be at
    least t_p.  Returns the sampled trajectory including both segment
    boundaries.  Records are spaced so each segment is covered by an integer
    number of equal steps no larger than dt; each step is exact.
    """
    _check_dt(atom, pulse.omega, dt)
    if t_end < pulse.t_p * (1 - 1e-12):
        raise ValidationError(f"t_end={t_end} shorter than the pulse t_p={pulse.t_p}")
    if record_stride < 1:
        raise ValidationError("record_stride must be >= 1")
    initial.validate(atol=1e-9)

    segments = [(pulse.t_p, _generator(atom, pulse.omega, pulse.detuning))]
    if t_end > pulse.t_p:
        segments.append((t_end - pulse.t_p, _generator(atom, 0.0, 0.0)))

    y = _pack(initial)
    times = [0.0]
    states = [initial.copy()]
    t0 = 0.0
    for length, gen in segments:
        nsteps = max(1, math.ceil(length / dt - 1e-12))
        h = length / nsteps
        step = _expm(gen * h)
        for i in range(1, nsteps + 1):
            y = step @ y
            if i % record_stride == 0 or i == nsteps:
                times.append(t0 + i * h)
                states.append(_unpack(y))
        t0 += length
    return BlochTrajectory(np.asarray(times), states)


def double_excitation_error(
    atom: AtomSpec,
    t_p: float,
    detuning: float = 0.0,
    dt: Optional[float] = None,
) -> float:
    """Fraction of ground-state population fed by the wrong P1/2 sublevel.

    Starts from the D3/2(+3/2) stretch state, applies an area-pi square pulse
    (omega = pi/t_p) with one matrix exponential, then lets the system decay
    freely to completion in closed form.  Returns (bad sinks) / (all sinks).

    Both segments are exact, so dt sets no step: when given it is only
    validated as evolve() validates it.  A propagation that overflows to a
    non-finite state, or underflows to all-zero sinks, raises
    FloatingPointError naming t_p.
    """
    pulse = PulseSpec(t_p=t_p, detuning=detuning)
    if dt is not None:
        _check_dt(atom, pulse.omega, dt)
    y = _pack(DynamicState.pure(Sublevel(Term.D32, +1.5)))
    y = _expm(_generator(atom, pulse.omega, detuning) * t_p) @ y
    sinks = _decay_tail(_generator(atom, 0.0, 0.0), y)[_DIM * _DIM :].real
    total = sinks.sum()
    # an area-pi pulse always feeds the sinks: all-zero sinks have underflowed, and 0/0 is no ratio
    if not (np.all(np.isfinite(sinks)) and total > 0.0):
        raise FloatingPointError(f"t_p={t_p} ns: propagation gave non-finite populations")
    return float((sinks[2] + sinks[3]) / total)


def scan_pulse_durations(
    atom: AtomSpec,
    t_p_grid,
    detuning: float = 0.0,
) -> ErrorCurve:
    """Double-excitation error evaluated pointwise over a grid of pulse times."""
    grid = np.asarray(t_p_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("pulse duration grid is empty")
    if not np.all(grid > 0):
        raise ValidationError("pulse durations must be positive")
    eps = np.array([double_excitation_error(atom, tp, detuning=detuning) for tp in grid])
    return ErrorCurve(t_p=grid, epsilon_d=eps)
