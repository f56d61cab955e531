"""Reference values of the aperture moments and probabilities, for testing geometry."""

from __future__ import annotations

import math

from scipy import integrate

from ionphoton.geometry import ApertureSpec


def _quad(f, points: list[float]) -> float:
    return sum(
        integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(points, points[1:])
    )


def reference_moments(aperture: ApertureSpec) -> tuple[float, float, float]:
    """(integral of dOmega, of cos^2(theta) dOmega, of sin(theta) cos(phi) dOmega).

    A quadrature oracle over z = cos(theta).  At fixed z the cone of
    half-angle alpha1 about +x spans |phi| <= dphi(z), where
    tan(dphi) = sqrt(sin(alpha1)^2 - z^2) / cos(alpha1) for |z| < sin(alpha1),
    and dphi is 0 (cone narrower than a hemisphere) or pi (wider) beyond.  The
    slit keeps |z| <= sin(alpha2).  dphi has a kink at z = sin(alpha1), which
    is passed to quad as a breakpoint.  Every moment is even in z, so only
    z >= 0 is integrated.
    """
    c, a = math.cos(aperture.alpha1), math.sin(aperture.alpha1)
    half = aperture.alpha1 if aperture.alpha2 is None else aperture.alpha2
    h = math.sin(min(half, math.pi / 2))

    def dphi(z: float) -> float:
        return math.atan2(math.sqrt(max(a * a - z * z, 0.0)), c)

    points = [0.0, a, h] if a < h else [0.0, h]
    i0 = 4.0 * _quad(dphi, points)
    i2 = 4.0 * _quad(lambda z: z * z * dphi(z), points)
    j = 4.0 * _quad(lambda z: math.sqrt(max(a * a - z * z, 0.0)), [0.0, min(a, h)])
    return i0, i2, j


def circular_closed_form(alpha1):
    """Collection probabilities of a cone about x, via the exact second moment.

    Over a cone of half-angle a about its own axis <cos^2> = (1 + c + c^2)/3
    with c = cos(a); the transverse direction cosine then has
    <cos^2 theta_z> = (1 - <cos^2 psi>)/2 = (2 - c - c^2)/6.
    """
    c = math.cos(alpha1)
    mean_z2 = (2.0 - c - c * c) / 6.0
    return 0.5, 0.5 * mean_z2, 0.5 * (1.0 - mean_z2)
