import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import circular_closed_form, reference_moments
from ionphoton.errors import ValidationError
from ionphoton.geometry import (
    ApertureSpec,
    CollectionProbabilities,
    _aperture_moments,
    circular_half_angle_for_na,
    circular_half_angle_for_solid_angle,
    coherence_overlap,
    collection_probabilities,
    mixing_fidelity,
    pattern_amplitude,
    solid_angle,
    solve_slit_for_solid_angle,
    tradeoff_curve,
)
from mc_reference import mc_collection_probabilities

NA06 = circular_half_angle_for_na(0.6)
HALF_NA06_SR = 0.2 * math.pi  # half of the NA 0.6 cone's 0.4 pi sr


class TestPatternAmplitude:
    def test_pi_at_equator(self):
        amp = pattern_amplitude(0, math.pi / 2, 0.0)
        assert amp.intensity == pytest.approx(3 / (8 * math.pi), rel=1e-12)
        assert amp.e_phi == 0.0

    def test_sigma_plus_is_azimuthal_at_equator(self):
        amp = pattern_amplitude(+1, math.pi / 2, 1.0)
        assert abs(amp.e_theta) < 1e-15
        assert abs(amp.e_phi) ** 2 == pytest.approx(3 / (16 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("q", [-1, 0, 1])
    def test_full_sphere_normalization(self, q):
        # independent midpoint-rule quadrature of |A|^2 over the sphere
        n_th, n_ph = 400, 80
        thetas = (np.arange(n_th) + 0.5) * math.pi / n_th
        phis = (np.arange(n_ph) + 0.5) * 2 * math.pi / n_ph
        total = 0.0
        for th in thetas:
            row = sum(pattern_amplitude(q, th, ph).intensity for ph in phis)
            total += row * math.sin(th)
        total *= (math.pi / n_th) * (2 * math.pi / n_ph)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_angles_out_of_range(self):
        with pytest.raises(ValidationError):
            pattern_amplitude(0, -0.1, 0.0)
        with pytest.raises(ValidationError):
            pattern_amplitude(0, 1.0, 2 * math.pi)
        with pytest.raises(ValidationError):
            pattern_amplitude(2, 1.0, 0.0)


class TestSolidAngle:
    def test_na06_closed_form(self):
        assert solid_angle(ApertureSpec.circular(NA06)) == pytest.approx(0.4 * math.pi, rel=1e-12)

    def test_degenerate_slit_equals_circle(self):
        circ = solid_angle(ApertureSpec.circular(NA06))
        slit = solid_angle(ApertureSpec.slit(NA06, NA06))
        assert slit == pytest.approx(circ, abs=1e-9)

    def test_half_blocking_slit_against_monte_carlo(self):
        alpha2 = solve_slit_for_solid_angle(NA06, HALF_NA06_SR)
        assert alpha2 == pytest.approx(0.252, abs=5e-3)
        mc = mc_collection_probabilities(ApertureSpec.slit(NA06, alpha2), n_samples=2_000_000)
        assert abs(solid_angle(ApertureSpec.slit(NA06, alpha2)) - mc.solid_angle) < 3 * mc.se_solid_angle

    def test_full_sphere(self):
        assert solid_angle(ApertureSpec.circular(math.pi)) == pytest.approx(4 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("alpha1", [1e-12, 1e-8, 1e-4, 0.01, NA06, 1.0, 2.0, 3.0, math.pi])
    def test_cone_half_angle_inverts_the_solid_angle(self, alpha1):
        omega = solid_angle(ApertureSpec.circular(alpha1))
        assert circular_half_angle_for_solid_angle(omega) == pytest.approx(alpha1, rel=1e-14)

    def test_cone_half_angle_keeps_small_cones(self):
        # 1 - omega / 2pi rounds to 1 here, so acos(1 - omega / 2pi) gives a zero angle
        omega = solid_angle(ApertureSpec.circular(1e-12))
        assert math.acos(1.0 - omega / (2.0 * math.pi)) == 0.0
        assert circular_half_angle_for_solid_angle(omega / 2.0) == pytest.approx(1e-12 / math.sqrt(2), rel=1e-14)

    @pytest.mark.parametrize("omega", [0.0, -1.0, 4.0 * math.pi * (1 + 1e-15), math.inf, math.nan])
    def test_cone_half_angle_rejects_impossible_solid_angle(self, omega):
        with pytest.raises(ValidationError, match="outside"):
            circular_half_angle_for_solid_angle(omega)

    def test_aperture_validation(self):
        with pytest.raises(ValidationError):
            ApertureSpec.circular(0.0)
        with pytest.raises(ValidationError):
            ApertureSpec.slit(0.5, 0.6)
        with pytest.raises(ValidationError):
            ApertureSpec("square", 0.5)


class TestCollectionProbabilities:
    def test_on_axis_limit(self):
        probs = collection_probabilities(ApertureSpec.circular(1e-3))
        assert probs.p_sigma_h == pytest.approx(0.5, abs=1e-9)
        assert probs.p_pi == pytest.approx(0.5, abs=1e-6)
        assert probs.p_sigma_v == pytest.approx(0.0, abs=1e-6)

    def test_na06_against_closed_form(self):
        probs = collection_probabilities(ApertureSpec.circular(NA06))
        ph, pv, pp = circular_closed_form(NA06)
        assert probs.p_sigma_h == pytest.approx(ph, abs=1e-9)
        assert probs.p_sigma_v == pytest.approx(pv, abs=1e-9)
        assert probs.p_pi == pytest.approx(pp, abs=1e-9)
        assert probs.p_sigma_v == pytest.approx(0.0467, abs=1e-4)
        assert probs.p_pi == pytest.approx(0.4533, abs=1e-4)

    def test_full_sphere_moments(self):
        probs = collection_probabilities(ApertureSpec.circular(math.pi))
        assert probs.p_sigma_h == pytest.approx(0.5, abs=1e-9)
        assert probs.p_sigma_v == pytest.approx(1 / 6, abs=1e-9)
        assert probs.p_pi == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize(
        "aperture",
        [
            ApertureSpec.circular(0.4),
            ApertureSpec.circular(2.2),
            ApertureSpec.slit(NA06, 0.25),
            ApertureSpec.slit(1.2, 0.6),
        ],
    )
    def test_against_monte_carlo_oracle(self, aperture):
        probs = collection_probabilities(aperture)
        mc = mc_collection_probabilities(aperture, n_samples=2_000_000)
        assert abs(probs.p_sigma_h - mc.p_sigma_h) <= 3 * mc.se_sigma_h + 1e-12
        assert abs(probs.p_sigma_v - mc.p_sigma_v) <= 3 * mc.se_sigma_v
        assert abs(probs.p_pi - mc.p_pi) <= 3 * mc.se_pi

    def test_sigma_h_is_exactly_half_and_total_isotropic(self):
        for aperture in (ApertureSpec.circular(0.9), ApertureSpec.slit(2.0, 0.8)):
            probs = collection_probabilities(aperture)
            assert probs.p_sigma_h == pytest.approx(0.5, abs=1e-10)
            assert probs.total_collected == pytest.approx(
                probs.solid_angle / (4 * math.pi), rel=1e-9
            )

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            collection_probabilities(ApertureSpec.circular(1.0), tol=1e-2)


class TestMixingFidelity:
    def test_ideal_state(self):
        probs = CollectionProbabilities(0.5, 0.0, 0.5, solid_angle=1e-3)
        f, eps = mixing_fidelity(probs)
        assert f == pytest.approx(1.0, abs=1e-12)
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_na06_matches_quoted_loss(self):
        probs = collection_probabilities(ApertureSpec.circular(NA06))
        _, eps = mixing_fidelity(probs)
        assert eps == pytest.approx(0.047238, abs=1e-5)
        assert abs(eps - 0.046) <= 0.002

    def test_full_sphere_error(self):
        probs = collection_probabilities(ApertureSpec.circular(math.pi))
        _, eps = mixing_fidelity(probs)
        assert eps == pytest.approx(0.175085, abs=1e-5)

    def test_kappa_below_one_reduces_fidelity(self):
        probs = collection_probabilities(ApertureSpec.circular(NA06))
        assert mixing_fidelity(probs, kappa=0.9)[0] < mixing_fidelity(probs, kappa=1.0)[0]
        with pytest.raises(ValidationError):
            mixing_fidelity(probs, kappa=1.5)


class TestCoherenceOverlap:
    def test_bounds_and_small_aperture_limit(self):
        assert coherence_overlap(ApertureSpec.circular(1e-3)) == pytest.approx(1.0, abs=1e-5)
        kappa = coherence_overlap(ApertureSpec.circular(NA06))
        assert 0.0 < kappa < 1.0


class TestTradeoffCurve:
    def test_slit_endpoint_matches_circular(self):
        curve = tradeoff_curve(NA06, 8, kind="slit")
        probs = collection_probabilities(ApertureSpec.circular(NA06))
        _, eps_circ = mixing_fidelity(probs)
        assert curve.epsilons[-1] == pytest.approx(eps_circ, abs=1e-9)
        assert curve.solid_angles[-1] == pytest.approx(0.4 * math.pi, rel=1e-9)

    def test_monotone_in_both_axes(self):
        for kind in ("slit", "circular"):
            curve = tradeoff_curve(1.2, 10, kind=kind)
            assert np.all(np.diff(curve.solid_angles) > 0)
            assert np.all(np.diff(curve.epsilons) > -1e-12)

    def test_slit_beats_circle_at_half_solid_angle(self):
        alpha2 = solve_slit_for_solid_angle(NA06, HALF_NA06_SR)
        probs_slit = collection_probabilities(ApertureSpec.slit(NA06, alpha2))
        _, eps_slit = mixing_fidelity(probs_slit)
        alpha_circ = math.acos(1.0 - HALF_NA06_SR / (2 * math.pi))
        probs_circ = collection_probabilities(ApertureSpec.circular(alpha_circ))
        _, eps_circ = mixing_fidelity(probs_circ)
        assert eps_slit == pytest.approx(0.0102, abs=5e-4)
        assert eps_circ == pytest.approx(0.0243, abs=5e-4)
        assert eps_slit < eps_circ

    def test_every_anchor_has_its_row(self):
        # NA 0.6 is also the half-solid-angle stop of NA 0.8; a grid point repeats too
        half_na08 = circular_half_angle_for_solid_angle(solid_angle(ApertureSpec.circular(math.asin(0.8))) / 2)
        anchors = (NA06, half_na08, 1.2)
        curve = tradeoff_curve(1.2, 5, kind="circular", anchors=anchors)
        assert curve.solid_angles.size == 5 + len(anchors)
        assert np.all(np.diff(curve.solid_angles) >= 0)
        assert np.count_nonzero(np.isclose(curve.solid_angles, 0.4 * math.pi, rtol=1e-12)) == 2
        # the anchor 1.2 is the last grid point, so the alpha1 row is written twice
        assert curve.solid_angles[-1] == curve.solid_angles[-2] == solid_angle(ApertureSpec.circular(1.2))
        assert curve.epsilons[-1] == curve.epsilons[-2]

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValidationError):
            tradeoff_curve(NA06, 1)


class TestSolveSlit:
    def test_degenerate_target(self):
        full = solid_angle(ApertureSpec.circular(NA06))
        assert solve_slit_for_solid_angle(NA06, full) == NA06

    def test_roundtrip_accuracy(self):
        target = 0.3
        alpha2 = solve_slit_for_solid_angle(NA06, target)
        assert abs(solid_angle(ApertureSpec.slit(NA06, alpha2)) - target) <= 1e-9

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValidationError):
            solve_slit_for_solid_angle(NA06, 2.0)
        with pytest.raises(ValidationError):
            solve_slit_for_solid_angle(NA06, 0.0)


def assert_moments_close(got, ref):
    # the probabilities are ratios to i0, so i0 sets the scale of every moment's error
    assert max(abs(x - y) for x, y in zip(got, ref)) <= 1e-12 * ref[0]


class TestClosedFormMoments:
    @settings(max_examples=300, deadline=None)
    @given(
        alpha1=st.floats(min_value=1e-6, max_value=math.pi),
        fraction=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_slit_against_quadrature_oracle(self, alpha1, fraction):
        slit = ApertureSpec.slit(alpha1, alpha1 * fraction)
        i0, i2, j = _aperture_moments(slit)
        assert_moments_close((i0, i2, j), reference_moments(slit))
        probs = collection_probabilities(slit)
        assert probs.p_sigma_h + probs.p_sigma_v + probs.p_pi == pytest.approx(1.0, abs=1e-12)
        assert -1e-15 * i0 <= i2 <= i0  # i2 carries rounding at the scale of i0
        assert j <= math.sqrt(i0 * (i0 - i2)) * (1 + 1e-12)
        circle = ApertureSpec.circular(alpha1)
        assert_moments_close(_aperture_moments(circle), reference_moments(circle))
        assert_moments_close(_aperture_moments(ApertureSpec.slit(alpha1, alpha1)), _aperture_moments(circle))

    @pytest.mark.parametrize(
        "aperture",
        [ApertureSpec.slit(2.2, 1.5), ApertureSpec.slit(1.7, 1.7)]
        + [ApertureSpec.circular(a) for a in (1.0, 1.6, 2.2, 3.0)],
        ids=repr,
    )
    def test_wide_apertures_match_the_oracle(self, aperture):
        i0, i2, _ = reference_moments(aperture)
        assert solid_angle(aperture) == pytest.approx(i0, rel=1e-13)
        probs = collection_probabilities(aperture, tol=1e-12)
        # the two collected channels carry equal weight, so p_sigma_v = i2 / (2 i0)
        assert probs.p_sigma_v == pytest.approx(0.5 * i2 / i0, abs=1e-13)

    def test_wide_slit_solve(self):
        alpha2 = solve_slit_for_solid_angle(2.2, 3.0)
        assert abs(solid_angle(ApertureSpec.slit(2.2, alpha2)) - 3.0) <= 1e-9

    @pytest.mark.parametrize("alpha1", [1e-3, 0.5, NA06, 1.6, 2.2, 2.9135, 3.0, math.pi])
    def test_circular_matches_closed_form(self, alpha1):
        probs = collection_probabilities(ApertureSpec.circular(alpha1))
        expected = circular_closed_form(alpha1)
        got = (probs.p_sigma_h, probs.p_sigma_v, probs.p_pi)
        assert max(abs(x - y) for x, y in zip(got, expected)) <= 1e-12
