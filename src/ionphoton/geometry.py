"""Dipole emission patterns integrated over shaped collection apertures.

Geometry: the quantization axis (magnetic field) is z; light is collected
along x.  Polar angle theta is measured from z, azimuth phi from x in the
x-y plane.  The vector emission amplitudes for a Delta-m = q decay are

    pi  (q =  0):  i sqrt(3/8pi) sin(theta) theta_hat
    sigma (q = +-1):  i e^(+-i phi) sqrt(3/16pi) (cos(theta) theta_hat +- i phi_hat)

each normalized to unit total probability over the sphere.  An ideal lens
maps the local theta_hat component onto the vertical detector axis V and the
local phi_hat component onto H, pointwise over the aperture.

Two aperture shapes are supported: a circular cone of half-angle alpha1
about +x, and the same cone with horizontal stops that keep only
theta in [pi/2 - alpha2, pi/2 + alpha2].  For either shape the azimuthal
extent at fixed z = cos(theta) is known in closed form, so every collection
integral is an elementary integral in z and is evaluated exactly
(`_aperture_moments`); results are accurate to float rounding at every
aperture, including cones wider than a hemisphere.

Channel weights for the collected blue decays (sigma-plus and pi out of
P1/2(+1/2)) are taken from the atomic model, not hard-coded, so the
equal-share balance of sigma and pi light at theta = pi/2 is an emergent
property of the Clebsch-Gordan weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic import AtomSpec, Sublevel, Term, Wavelength, decay_channels
from .errors import ConditioningError, QuadratureError, ValidationError

SIGMA_NORM = 3.0 / (16.0 * math.pi)
PI_NORM = 3.0 / (8.0 * math.pi)

CIRCULAR = "circular"
SLIT = "slit"


@dataclass(frozen=True)
class ApertureSpec:
    """Collection region about the +x axis.

    kind "circular": cone of half-angle alpha1 (0 < alpha1 <= pi).
    kind "slit": the same cone further restricted to polar angles within
    alpha2 of the equator, 0 < alpha2 <= alpha1.
    """

    kind: str
    alpha1: float
    alpha2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (CIRCULAR, SLIT):
            raise ValidationError(f"unknown aperture kind {self.kind!r}")
        if not 0.0 < self.alpha1 <= math.pi:
            raise ValidationError(f"alpha1={self.alpha1} outside (0, pi]")
        if self.kind == CIRCULAR:
            if self.alpha2 is not None:
                raise ValidationError("circular apertures take no alpha2")
        else:
            if self.alpha2 is None or not 0.0 < self.alpha2 <= self.alpha1:
                raise ValidationError(
                    f"slit requires 0 < alpha2 <= alpha1, got alpha2={self.alpha2}"
                )

    @classmethod
    def circular(cls, alpha1: float) -> "ApertureSpec":
        return cls(CIRCULAR, alpha1)

    @classmethod
    def slit(cls, alpha1: float, alpha2: float) -> "ApertureSpec":
        return cls(SLIT, alpha1, alpha2)


def circular_half_angle_for_na(na: float) -> float:
    """Half-angle of a circular aperture with numerical aperture sin(alpha1) = na."""
    if not 0.0 < na <= 1.0:
        raise ValidationError(f"numerical aperture {na} outside (0, 1]")
    return math.asin(na)


def circular_half_angle_for_solid_angle(omega: float) -> float:
    """Half-angle of the circular aperture subtending omega steradians.

    omega = 4 pi sin^2(alpha1 / 2) is inverted as 2 asin(sqrt(omega / 4pi)),
    which keeps its digits for small cones, where acos(1 - omega / 2pi)
    cancels to zero.
    """
    if not 0.0 < omega <= 4.0 * math.pi:
        raise ValidationError(f"solid angle {omega} outside (0, 4pi]")
    return 2.0 * math.asin(math.sqrt(omega / (4.0 * math.pi)))


@dataclass(frozen=True)
class EmissionAmplitude:
    """Vector emission amplitude of one decay channel at one direction."""

    q: int
    theta: float
    phi: float
    e_theta: complex
    e_phi: complex

    @property
    def intensity(self) -> float:
        return abs(self.e_theta) ** 2 + abs(self.e_phi) ** 2


def pattern_amplitude(q: int, theta: float, phi: float) -> EmissionAmplitude:
    """Emission amplitude components along (theta_hat, phi_hat) for channel q."""
    if q not in (-1, 0, 1):
        raise ValidationError(f"q={q} must be in {{-1, 0, +1}}")
    if not 0.0 <= theta <= math.pi:
        raise ValidationError(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValidationError(f"phi={phi} outside [0, 2pi)")
    if q == 0:
        return EmissionAmplitude(q, theta, phi, 1j * math.sqrt(PI_NORM) * math.sin(theta), 0.0)
    pref = 1j * np.exp(1j * q * phi) * math.sqrt(SIGMA_NORM)
    return EmissionAmplitude(q, theta, phi, complex(pref * math.cos(theta)), complex(pref * 1j * q))


def _aperture_moments(aperture: ApertureSpec) -> tuple[float, float, float]:
    """(i0, i2, j) over the aperture, in closed form.

    i0 is the integral of dOmega, i2 of cos^2(theta) dOmega and j of the
    direction cosine along the collection axis, sin(theta) cos(phi) dOmega.
    At fixed z = cos(theta) the cone spans |phi| <= dphi(z) with
    cos(dphi) = cos(alpha1) / sqrt(1 - z^2), clipped to [0, pi], and the slit
    keeps |z| <= h = sin(min(alpha2, pi/2)); each moment is then elementary
    in z.  1 - cos(alpha1) is taken as 2 sin^2(alpha1/2) and the slit terms
    are grouped so that small apertures keep their digits.
    """
    a1 = aperture.alpha1
    c, a = math.cos(a1), math.sin(a1)
    m = 2.0 * math.sin(0.5 * a1) ** 2  # 1 - c
    if aperture.kind == CIRCULAR:
        return 2.0 * math.pi * m, math.pi * m * m * (2.0 + c) / 3.0, math.pi * a * a
    h = math.sin(min(aperture.alpha2, 0.5 * math.pi))
    b = min(h, a)
    r = math.sqrt((a - b) * (a + b))
    phi_b = math.atan2(r, c)  # dphi(b)
    s = math.atan2(b, r)  # asin(b / a)
    # f = c * integral_0^b z^2 / ((1 - z^2) sqrt(a^2 - z^2)) dz
    #   = atan2(c b, r) - c s, with the two near-equal angles differenced exactly
    f = m * s - math.atan2(m * b * r, r * r + c * b * b)
    g = 0.5 * (a * a * s - b * r)  # integral_0^b z^2 / sqrt(a^2 - z^2) dz
    i0 = 4.0 * (b * phi_b + f)
    i2 = 4.0 * (b**3 * phi_b + f - c * g) / 3.0
    j = 2.0 * (b * r + a * a * s)
    if h > a:  # for |z| > a, a cone wider than a hemisphere spans every phi
        i0 += 4.0 * math.pi * (h - a)
        i2 += 4.0 * math.pi * (h**3 - a**3) / 3.0
    return i0, i2, j


def solid_angle(aperture: ApertureSpec) -> float:
    """Solid angle of the aperture in steradians, in closed form."""
    return _aperture_moments(aperture)[0]


@dataclass(frozen=True)
class CollectionProbabilities:
    """Normalized origin probabilities of a collected photon.

    p_sigma_h / p_sigma_v: collected sigma photon detected as H / V.
    p_pi: collected photon came from the pi decay (detected as V).
    total_collected is the unnormalized collected probability (solid_angle /
    4pi when the channel-weighted emission is isotropic, which the weights
    guarantee).
    """

    p_sigma_h: float
    p_sigma_v: float
    p_pi: float
    solid_angle: float
    total_collected: float = 0.0

    def __post_init__(self):
        for name in ("p_sigma_h", "p_sigma_v", "p_pi"):
            value = getattr(self, name)
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValidationError(f"{name}={value} outside [0, 1]")
        if abs(self.p_sigma_h + self.p_sigma_v + self.p_pi - 1.0) > 1e-6:
            raise ValidationError("collection probabilities must sum to 1")
        if not 0.0 < self.solid_angle <= 4.0 * math.pi + 1e-9:
            raise ValidationError(f"solid_angle={self.solid_angle} outside (0, 4pi]")
        if self.total_collected == 0.0:
            object.__setattr__(self, "total_collected", self.solid_angle / (4.0 * math.pi))


def _collected_weights(atom: AtomSpec) -> tuple[float, float]:
    """Clebsch-Gordan weights of the collected blue decays out of P1/2(+1/2)."""
    w_sigma = w_pi = 0.0
    for ch, _ in decay_channels(Sublevel(Term.P12, +0.5), atom):
        if ch.wavelength is not Wavelength.NM493:
            continue
        if ch.q == +1:
            w_sigma = ch.cg2
        elif ch.q == 0:
            w_pi = ch.cg2
    return w_sigma, w_pi


def collection_probabilities(
    aperture: ApertureSpec,
    tol: float = 1e-9,
    atom: Optional[AtomSpec] = None,
) -> CollectionProbabilities:
    """Integrate the channel-weighted H/V/pi intensities over the aperture.

    The aperture moments are exact, so each probability is accurate to float
    rounding; tol, the accuracy the caller asks for, is only range-checked.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValidationError(f"tol={tol} outside (0, 1e-3]")
    atom = atom or AtomSpec()
    w_sigma, w_pi = _collected_weights(atom)
    i0, i2, _ = _aperture_moments(aperture)
    if i0 <= 0.0:
        raise QuadratureError("aperture has vanishing solid angle")
    u_sigma_h = w_sigma * SIGMA_NORM * i0
    u_sigma_v = w_sigma * SIGMA_NORM * i2
    u_pi = w_pi * PI_NORM * (i0 - i2)
    total = u_sigma_h + u_sigma_v + u_pi
    return CollectionProbabilities(
        p_sigma_h=u_sigma_h / total,
        p_sigma_v=u_sigma_v / total,
        p_pi=u_pi / total,
        solid_angle=i0,
        total_collected=total,
    )


def mixing_fidelity(probs: CollectionProbabilities, kappa: float = 1.0) -> tuple[float, float]:
    """Entanglement fidelity limited by polarization mixing, and its error.

    F = (p_sigma_h + p_pi)/2 + kappa * sqrt(p_sigma_h * p_pi); the collected
    |down V> weight p_sigma_v enters only as population lost from the target
    state.  kappa in [0, 1] scales the coherence between the two collected
    amplitude fields; 1 means perfect mode overlap.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError(f"kappa={kappa} outside [0, 1]")
    fidelity = 0.5 * (probs.p_sigma_h + probs.p_pi) + kappa * math.sqrt(
        probs.p_sigma_h * probs.p_pi
    )
    return fidelity, 1.0 - fidelity


def coherence_overlap(aperture: ApertureSpec, tol: float = 1e-9) -> float:
    """Normalized overlap of the collected sigma-H and pi-V amplitude fields.

    Includes the e^(i phi) geometric phase of the sigma amplitude, so values
    below 1 quantify how much aperture-averaged phase mismatch would reduce
    the usable coherence.  Provided for sensitivity studies; the default
    error model uses kappa = 1.  tol is range-checked as in
    collection_probabilities; the overlap is exact.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValidationError(f"tol={tol} outside (0, 1e-3]")
    i0, i2, j = _aperture_moments(aperture)
    denom = math.sqrt(i0 * (i0 - i2))
    if denom <= 0.0:
        raise ConditioningError("pi intensity vanishes over this aperture")
    return min(1.0, j / denom)


@dataclass
class TradeoffCurve:
    """(solid angle, mixing error) pairs along an aperture sweep."""

    kind: str
    alpha1: float
    solid_angles: np.ndarray
    epsilons: np.ndarray

    def write_csv(self, fileobj) -> None:
        fileobj.write("solid_angle_sr,solid_angle_fraction,epsilon\n")
        for omega, eps in zip(self.solid_angles, self.epsilons):
            fileobj.write(f"{omega:.12g},{omega / (4 * math.pi):.12g},{eps:.12g}\n")


def tradeoff_curve(
    alpha1: float,
    n_points: int,
    kind: str = SLIT,
    tol: float = 1e-9,
    kappa: float = 1.0,
    anchors: tuple[float, ...] = (),
) -> TradeoffCurve:
    """Rate-fidelity trade-off sweep at fixed maximum half-angle alpha1.

    kind "slit" sweeps the horizontal-stop half-range alpha2 from near zero
    up to alpha1; kind "circular" sweeps the cone half-angle itself (the
    plain-aperture reference curve).  anchors are extra sweep angles to
    include exactly, sorted in with one row each, so the curve always has
    n_points + len(anchors) rows: an anchor equal to a grid point or to
    another anchor repeats that row.
    """
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    if kind not in (CIRCULAR, SLIT):
        raise ValidationError(f"unknown curve kind {kind!r}")
    grid = np.linspace(alpha1 * 1e-3, alpha1, n_points)
    if anchors:
        grid = np.sort(np.concatenate([grid, np.asarray(anchors, dtype=float)]))
        if grid.min() <= 0.0 or grid.max() > alpha1 * (1 + 1e-12):
            raise ValidationError("anchor angles must lie in (0, alpha1]")
    omegas = np.empty(grid.size)
    epsilons = np.empty(grid.size)
    for k, angle in enumerate(grid):
        if kind == SLIT:
            aperture = ApertureSpec.slit(alpha1, min(angle, alpha1))
        else:
            aperture = ApertureSpec.circular(angle)
        probs = collection_probabilities(aperture, tol=tol)
        omegas[k] = probs.solid_angle
        _, epsilons[k] = mixing_fidelity(probs, kappa=kappa)
    return TradeoffCurve(kind=kind, alpha1=alpha1, solid_angles=omegas, epsilons=epsilons)


def solve_slit_for_solid_angle(
    alpha1: float, omega_target: float, tol: float = 1e-9
) -> float:
    """Invert the slit solid angle: find alpha2 with Omega(alpha1, alpha2) = target.

    Bisection to |Omega - target| <= tol steradians.  The target must not
    exceed the full circular aperture's solid angle.
    """
    omega_full = solid_angle(ApertureSpec.circular(alpha1))
    if not 0.0 < omega_target <= omega_full + tol:
        raise ValidationError(
            f"target {omega_target} sr outside (0, {omega_full:.6g}] for alpha1={alpha1}"
        )
    if abs(omega_target - omega_full) <= tol:
        return alpha1
    lo, hi = 0.0, alpha1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        omega = solid_angle(ApertureSpec.slit(alpha1, mid))
        if abs(omega - omega_target) <= 0.5 * tol:
            return mid
        if omega < omega_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    mid = 0.5 * (lo + hi)
    if abs(solid_angle(ApertureSpec.slit(alpha1, mid)) - omega_target) > tol:
        raise QuadratureError("slit bisection failed to reach the requested tolerance")
    return mid
