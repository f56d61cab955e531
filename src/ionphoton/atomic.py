"""Level structure and dipole decay channels of the Ba+ ion model.

Three fine-structure terms are kept: the S1/2 ground state, the P1/2 excited
state and the metastable D3/2 manifold.  Decays from P1/2 split between S1/2
(493 nm) and D3/2 (650 nm) with a 3:1 branching ratio; within each branch the
Zeeman-resolved channel strengths are squared Clebsch-Gordan coefficients.
The coefficients are computed from the closed-form Racah sum in exact
rational arithmetic rather than tabulated, so the sum rules hold to float
rounding and can be tested meaningfully.

Hyperfine structure is absent (zero nuclear spin); D5/2 and P3/2 play no role
in this scheme and are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial, inf

from .errors import ValidationError


class Term(Enum):
    """Fine-structure term of the three-level Ba+ scheme."""

    S12 = "S1/2"
    P12 = "P1/2"
    D32 = "D3/2"

    @property
    def j(self) -> float:
        return 1.5 if self is Term.D32 else 0.5


class Wavelength(Enum):
    NM493 = "493nm"  # P1/2 -> S1/2
    NM650 = "650nm"  # P1/2 -> D3/2


_TERM_WAVELENGTH = {Term.S12: Wavelength.NM493, Term.D32: Wavelength.NM650}


def _half(value, name: str) -> Fraction:
    """Coerce to an exact half-integer, rejecting anything else."""
    doubled = 2 * float(value)
    if doubled != round(doubled):
        raise ValidationError(f"{name}={value} is not a half-integer")
    return Fraction(int(round(doubled)), 2)


def clebsch_gordan_sq(j_lower, m_lower, q, j_upper, m_upper) -> float:
    """Squared Clebsch-Gordan coefficient |<j_lower m_lower; 1 q | j_upper m_upper>|^2.

    This is the relative strength of the dipole channel connecting sublevel
    (j_upper, m_upper) to (j_lower, m_lower) with photon polarization index
    q = m_upper - m_lower.  Evaluated from the Racah closed form with exact
    integer factorials; returns 0 for channels forbidden by the m-selection
    rule or the triangle condition.
    """
    j1 = _half(j_lower, "j_lower")
    m1 = _half(m_lower, "m_lower")
    jj = _half(j_upper, "j_upper")
    mm = _half(m_upper, "m_upper")
    if q != round(float(q)) or abs(q) > 1:
        raise ValidationError(f"q={q} must be an integer in {{-1, 0, +1}}")
    q = Fraction(int(round(float(q))))
    if j1 < 0 or jj < 0:
        raise ValidationError("angular momenta must be nonnegative")
    for j, m, nm in ((j1, m1, "m_lower"), (jj, mm, "m_upper")):
        if abs(m) > j or (j - m).denominator != 1:
            raise ValidationError(f"{nm}={float(m)} invalid for j={float(j)}")

    if mm != m1 + q:
        return 0.0
    # photon carries one unit: j_upper must couple as j_lower x 1
    if (jj - j1).denominator != 1 or not abs(j1 - 1) <= jj <= j1 + 1:
        return 0.0

    j2, m2 = Fraction(1), q

    def fac(x: Fraction) -> int:
        assert x.denominator == 1 and x >= 0
        return factorial(int(x))

    pref = (
        Fraction(2 * jj + 1)
        * fac(jj + j1 - j2) * fac(jj - j1 + j2) * fac(j1 + j2 - jj)
        // 1
        * Fraction(1, fac(j1 + j2 + jj + 1))
        * fac(jj + mm) * fac(jj - mm)
        * fac(j1 - m1) * fac(j1 + m1)
        * fac(j2 - m2) * fac(j2 + m2)
    )
    k_min = max(0, int(-(jj - j2 + m1)), int(-(jj - j1 - m2)))
    k_max = min(int(j1 + j2 - jj), int(j1 - m1), int(j2 + m2))
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            factorial(k)
            * fac(j1 + j2 - jj - k)
            * fac(j1 - m1 - k)
            * fac(j2 + m2 - k)
            * fac(jj - j2 + m1 + k)
            * fac(jj - j1 - m2 + k)
        )
        total += Fraction((-1) ** k, denom)
    return float(pref * total * total)


@dataclass(frozen=True)
class Sublevel:
    """One Zeeman sublevel |term, mJ>."""

    term: Term
    mj: float

    def __post_init__(self):
        m = _half(self.mj, "mj")
        j = _half(self.term.j, "j")
        if abs(m) > j:
            raise ValidationError(f"|mj|={abs(float(m))} exceeds j={float(j)} for {self.term.value}")
        if (j - m).denominator != 1:
            raise ValidationError(f"mj={float(m)} has wrong parity for j={float(j)}")
        object.__setattr__(self, "mj", float(m))

    def __str__(self) -> str:
        return f"{self.term.value}(mJ={self.mj:+g})"


@dataclass(frozen=True)
class TransitionChannel:
    """One dipole decay channel P1/2 -> S1/2 or P1/2 -> D3/2.

    q is the photon's change of magnetic quantum number, q = mJ(upper) -
    mJ(lower): -1 for sigma-minus, 0 for pi, +1 for sigma-plus.  cg2 is the
    squared Clebsch-Gordan weight, normalized to sum to 1 over the channels of
    a fixed upper sublevel and lower term.
    """

    upper: Sublevel
    lower: Sublevel
    q: int
    cg2: float
    wavelength: Wavelength

    def __post_init__(self):
        if self.upper.term is not Term.P12:
            raise ValidationError("channel must start from a P1/2 sublevel")
        if self.lower.term not in _TERM_WAVELENGTH:
            raise ValidationError("channel must end on S1/2 or D3/2")
        if _TERM_WAVELENGTH[self.lower.term] is not self.wavelength:
            raise ValidationError(f"wavelength {self.wavelength.value} does not match {self.lower.term.value}")
        if self.q != self.upper.mj - self.lower.mj or abs(self.q) > 1:
            raise ValidationError("q must equal mJ(upper) - mJ(lower) and |q| <= 1")
        if not 0.0 <= self.cg2 <= 1.0:
            raise ValidationError(f"cg2={self.cg2} outside [0, 1]")


_CHANNELS: tuple[TransitionChannel, ...] = ()


def dipole_channels() -> tuple[TransitionChannel, ...]:
    """All allowed decay channels out of the two P1/2 sublevels.

    The table depends on no input, so its exact Racah sums run once per
    process; every call returns the same immutable tuple.
    """
    global _CHANNELS
    if _CHANNELS:
        return _CHANNELS
    channels = []
    for m_up in (-0.5, +0.5):
        upper = Sublevel(Term.P12, m_up)
        for term, wavelength in _TERM_WAVELENGTH.items():
            twice_j = int(2 * term.j)
            for twice_m in range(-twice_j, twice_j + 1, 2):
                m_low = twice_m / 2
                q = m_up - m_low
                if abs(q) > 1:
                    continue
                weight = clebsch_gordan_sq(term.j, m_low, int(q), 0.5, m_up)
                if weight == 0.0:
                    continue
                channels.append(
                    TransitionChannel(upper, Sublevel(term, m_low), int(q), weight, wavelength)
                )
    _CHANNELS = tuple(channels)
    return _CHANNELS


@dataclass(frozen=True)
class AtomSpec:
    """Lifetime, branching ratio and decay channels of the ion model.

    tau_e is the P1/2 lifetime in nanoseconds.  branch_s is the probability
    that a P1/2 decay lands in S1/2 (the remainder goes to D3/2); 0.75 encodes
    the 3:1 branching ratio and is configurable for sensitivity studies.
    """

    tau_e: float = 10.0
    branch_s: float = 0.75
    channels: tuple[TransitionChannel, ...] = field(default_factory=dipole_channels)

    def __post_init__(self):
        if not 0 < self.tau_e < inf:
            raise ValidationError(f"tau_e={self.tau_e} must be positive and finite")
        if not 0.0 < self.branch_s < 1.0:
            raise ValidationError(f"branch_s={self.branch_s} outside (0, 1)")

    @property
    def gamma(self) -> float:
        """Total P1/2 decay rate, 1/tau_e."""
        return 1.0 / self.tau_e

    def branch(self, lower_term: Term) -> float:
        if lower_term is Term.S12:
            return self.branch_s
        if lower_term is Term.D32:
            return 1.0 - self.branch_s
        raise ValidationError(f"no decay branch ends on {lower_term.value}")


def decay_channels(upper: Sublevel, atom: AtomSpec) -> list[tuple[TransitionChannel, float]]:
    """Decay channels of one P1/2 sublevel with their rates Gamma * branch * cg2."""
    if upper.term is not Term.P12:
        raise ValidationError(f"decay channels are defined for P1/2 sublevels, got {upper}")
    return [
        (ch, atom.gamma * atom.branch(ch.lower.term) * ch.cg2)
        for ch in atom.channels
        if ch.upper == upper
    ]
