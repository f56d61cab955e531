import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionphoton.atomic import (
    AtomSpec,
    Sublevel,
    Term,
    Wavelength,
    clebsch_gordan_sq,
    decay_channels,
    dipole_channels,
)
from ionphoton.errors import ValidationError


def cg_sq_eigen_oracle(j1, m1, q, j2, m2):
    """|<j1 m1; 1 q | j2 m2>|^2 by diagonalizing J^2 in the coupled M-subspace.

    Completely independent of the Racah closed form: builds the total
    angular momentum operator for j1 (x) 1 restricted to M = m1 + q and reads
    the squared overlap of the product state with the J = j2 eigenvector.
    """
    if m2 != m1 + q:
        return 0.0
    basis = []
    for twice_ma in range(int(-2 * j1), int(2 * j1) + 1, 2):
        ma = twice_ma / 2
        mb = m2 - ma
        if abs(mb) <= 1 and mb == int(mb):
            basis.append((ma, int(mb)))
    if (j1, 1) and not basis:
        return 0.0

    def jplus(j, m):
        return math.sqrt(j * (j + 1) - m * (m + 1))

    dim = len(basis)
    jsq = np.zeros((dim, dim))
    for a, (ma, mb) in enumerate(basis):
        jsq[a, a] = j1 * (j1 + 1) + 2.0 + 2.0 * ma * mb
        # J1+ J2- and J1- J2+ couple neighbouring decompositions of M
        for b, (na, nb) in enumerate(basis):
            if na == ma + 1 and nb == mb - 1:
                jsq[b, a] += jplus(j1, ma) * jplus(1, nb)
            if na == ma - 1 and nb == mb + 1:
                jsq[b, a] += jplus(j1, na) * jplus(1, mb)
    vals, vecs = np.linalg.eigh(jsq)
    target = j2 * (j2 + 1)
    idx = np.argmin(np.abs(vals - target))
    if abs(vals[idx] - target) > 1e-9:
        return 0.0
    k = basis.index((m1, q))
    return float(vecs[k, idx] ** 2)


half_integers = st.integers(1, 5).map(lambda n: n / 2)


@st.composite
def cg_arguments(draw):
    j1 = draw(half_integers)
    m1 = draw(st.integers(int(-2 * j1), int(2 * j1)).map(lambda n: n / 2).filter(
        lambda m: (j1 - m) == int(j1 - m)
    ))
    q = draw(st.sampled_from([-1, 0, 1]))
    j2 = draw(st.sampled_from([j for j in (j1 - 1, j1, j1 + 1) if j >= 0.5]))
    return j1, m1, q, j2, m1 + q


class TestClebschGordanSq:
    def test_sigma_plus_weight_out_of_e(self):
        assert clebsch_gordan_sq(0.5, -0.5, +1, 0.5, +0.5) == pytest.approx(2 / 3, abs=1e-15)
        assert cg_sq_eigen_oracle(0.5, -0.5, +1, 0.5, +0.5) == pytest.approx(2 / 3, abs=1e-12)

    def test_m_selection_rule(self):
        assert clebsch_gordan_sq(0.5, +0.5, +1, 0.5, +0.5) == 0.0

    def test_sigma_minus_drive_ratio(self):
        strong = clebsch_gordan_sq(1.5, +1.5, -1, 0.5, +0.5)
        weak = clebsch_gordan_sq(1.5, +0.5, -1, 0.5, -0.5)
        assert strong == pytest.approx(0.5, abs=1e-15)
        assert weak == pytest.approx(1 / 6, abs=1e-15)
        assert strong / weak == pytest.approx(3.0, abs=1e-12)

    def test_triangle_violation_is_zero(self):
        assert clebsch_gordan_sq(0.5, 0.5, 0, 2.5, 0.5) == 0.0

    @given(cg_arguments())
    @settings(max_examples=200, deadline=None)
    def test_matches_eigen_oracle(self, args):
        j1, m1, q, j2, m2 = args
        if abs(m2) > j2:
            return
        assert clebsch_gordan_sq(j1, m1, q, j2, m2) == pytest.approx(
            cg_sq_eigen_oracle(j1, m1, q, j2, m2), abs=1e-10
        )

    @given(cg_arguments())
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, args):
        j1, m1, q, j2, m2 = args
        if abs(m2) > j2:
            return
        assert clebsch_gordan_sq(j1, m1, q, j2, m2) == pytest.approx(
            clebsch_gordan_sq(j1, -m1, -q, j2, -m2), abs=1e-14
        )

    @pytest.mark.parametrize(
        "j1,j2,m2",
        [
            (0.5, 0.5, 0.5),
            (0.5, 0.5, -0.5),
            (1.5, 0.5, 0.5),
            (1.5, 0.5, -0.5),
            (1.5, 1.5, 1.5),
            (2.5, 1.5, 0.5),
        ],
    )
    def test_sum_rule_per_lower_term(self, j1, j2, m2):
        total = 0.0
        for twice_m1 in range(int(-2 * j1), int(2 * j1) + 1, 2):
            m1 = twice_m1 / 2
            q = m2 - m1
            if abs(q) <= 1 and q == int(q):
                total += clebsch_gordan_sq(j1, m1, int(q), j2, m2)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(j_lower=0.3, m_lower=0.3, q=0, j_upper=0.5, m_upper=0.3),
            dict(j_lower=-0.5, m_lower=0.5, q=0, j_upper=0.5, m_upper=0.5),
            dict(j_lower=0.5, m_lower=1.5, q=-1, j_upper=0.5, m_upper=0.5),
            dict(j_lower=0.5, m_lower=0.5, q=2, j_upper=1.5, m_upper=2.5),
            dict(j_lower=1.0, m_lower=0.5, q=0, j_upper=1.0, m_upper=0.5),
        ],
    )
    def test_rejects_malformed_momenta(self, bad):
        with pytest.raises(ValidationError):
            clebsch_gordan_sq(**bad)


class TestSublevel:
    def test_valid_range(self):
        Sublevel(Term.D32, +1.5)
        with pytest.raises(ValidationError):
            Sublevel(Term.S12, +1.5)
        with pytest.raises(ValidationError):
            Sublevel(Term.P12, 0.0)


class TestDecayChannels:
    def test_e_state_blue_sigma_rate(self):
        atom = AtomSpec()
        e = Sublevel(Term.P12, +0.5)
        rates = {(ch.lower.term, ch.lower.mj): rate for ch, rate in decay_channels(e, atom)}
        assert rates[(Term.S12, -0.5)] == pytest.approx(atom.gamma * 0.75 * (2 / 3), rel=1e-12)

    def test_total_rate_is_gamma(self):
        atom = AtomSpec(tau_e=7.3, branch_s=0.6)
        for m in (-0.5, +0.5):
            total = sum(rate for _, rate in decay_channels(Sublevel(Term.P12, m), atom))
            assert total == pytest.approx(atom.gamma, rel=1e-12)

    def test_mirror_under_mj_flip(self):
        atom = AtomSpec()
        plus = {
            (ch.lower.term, ch.lower.mj, ch.q): rate
            for ch, rate in decay_channels(Sublevel(Term.P12, +0.5), atom)
        }
        minus = {
            (ch.lower.term, -ch.lower.mj, -ch.q): rate
            for ch, rate in decay_channels(Sublevel(Term.P12, -0.5), atom)
        }
        assert plus.keys() == minus.keys()
        for key, rate in plus.items():
            assert rate == pytest.approx(minus[key], rel=1e-12)

    def test_rejects_non_p12(self):
        with pytest.raises(ValidationError):
            decay_channels(Sublevel(Term.D32, 0.5), AtomSpec())

    def test_channel_table_covers_both_lines(self):
        channels = dipole_channels()
        wavelengths = {ch.wavelength for ch in channels}
        assert wavelengths == {Wavelength.NM493, Wavelength.NM650}
        per_upper = {}
        for ch in channels:
            per_upper.setdefault((ch.upper.mj, ch.lower.term), 0.0)
            per_upper[(ch.upper.mj, ch.lower.term)] += ch.cg2
        for total in per_upper.values():
            assert total == pytest.approx(1.0, abs=1e-12)


class TestAtomSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            AtomSpec(tau_e=0.0)
        with pytest.raises(ValidationError):
            AtomSpec(branch_s=1.0)

    @pytest.mark.parametrize("tau_e", [math.inf, math.nan])
    def test_rejects_non_finite_lifetime(self, tau_e):
        with pytest.raises(ValidationError, match="positive and finite"):
            AtomSpec(tau_e=tau_e)

    def test_channel_table_is_built_once(self):
        assert dipole_channels() is dipole_channels()
        assert AtomSpec().channels is AtomSpec(tau_e=3.0).channels

    def test_exact_fraction_of_default_weights(self):
        atom = AtomSpec()
        weights = sorted(
            Fraction(ch.cg2).limit_denominator(100)
            for ch in atom.channels
            if ch.upper.mj == 0.5 and ch.lower.term is Term.D32
        )
        assert weights == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
