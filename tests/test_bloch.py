import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bloch_reference import rk4_double_excitation_error
from ionphoton.atomic import AtomSpec, Sublevel, Term
from ionphoton.bloch import (
    DynamicState,
    ErrorCurve,
    PulseSpec,
    _decay_tail,
    _expm,
    _generator,
    _pack,
    _unpack,
    double_excitation_error,
    evolve,
    scan_pulse_durations,
)
from ionphoton.errors import ValidationError

ATOM = AtomSpec()
DT = ATOM.tau_e / 400


class TestEvolve:
    def test_undriven_stretch_state_is_dark(self):
        initial = DynamicState.pure(Sublevel(Term.D32, +1.5))
        traj = evolve(ATOM, PulseSpec(t_p=5.0, omega=0.0), initial, dt=DT, t_end=50.0,
                      record_stride=100)
        for state in traj.states:
            assert np.max(np.abs(state.rho - initial.rho)) < 1e-12
            assert state.sink_total() < 1e-15

    def test_pure_decay_reaches_branching_ratio(self):
        initial = DynamicState.pure(Sublevel(Term.P12, +0.5))
        traj = evolve(ATOM, PulseSpec(t_p=1e-6, omega=0.0), initial, dt=DT,
                      t_end=10 * ATOM.tau_e, record_stride=50)
        final = traj.final
        assert final.sink_total() == pytest.approx(0.75, abs=1e-4)
        assert final.sink("s_down_bad") == 0.0
        assert final.sink("s_up_bad") == 0.0

    def test_good_sink_ratio_follows_cg_weights(self):
        # sigma-plus : pi decays to the two ground sublevels are 2/3 : 1/3
        initial = DynamicState.pure(Sublevel(Term.P12, +0.5))
        traj = evolve(ATOM, PulseSpec(t_p=1e-6, omega=0.0), initial, dt=DT,
                      t_end=10 * ATOM.tau_e, record_stride=200)
        final = traj.final
        assert final.sink("s_down_good") / final.sink("s_up_good") == pytest.approx(2.0, rel=1e-9)

    def test_probability_conserved_and_sinks_monotone(self):
        initial = DynamicState.pure(Sublevel(Term.D32, +1.5))
        traj = evolve(ATOM, PulseSpec(t_p=10.0), initial, dt=DT, t_end=60.0)
        totals = [s.total_probability() for s in traj.states]
        assert max(abs(t - 1.0) for t in totals) < 1e-9
        sink_series = np.array([s.sinks for s in traj.states])
        assert np.all(np.diff(sink_series, axis=0) >= -1e-12)

    def test_states_stay_positive(self):
        initial = DynamicState.pure(Sublevel(Term.D32, +1.5))
        traj = evolve(ATOM, PulseSpec(t_p=10.0), initial, dt=DT, t_end=40.0, record_stride=20)
        for state in traj.states:
            assert np.linalg.eigvalsh(state.rho).min() > -1e-9

    def test_rejects_oversized_step(self):
        initial = DynamicState.pure(Sublevel(Term.D32, +1.5))
        with pytest.raises(ValidationError):
            evolve(ATOM, PulseSpec(t_p=10.0), initial, dt=ATOM.tau_e / 100, t_end=20.0)

    def test_rejects_unnormalized_state(self):
        bad = DynamicState.pure(Sublevel(Term.D32, +1.5))
        bad.rho *= 0.5
        with pytest.raises(ValidationError):
            evolve(ATOM, PulseSpec(t_p=10.0), bad, dt=DT, t_end=20.0)

    def test_rejects_t_end_inside_pulse(self):
        initial = DynamicState.pure(Sublevel(Term.D32, +1.5))
        with pytest.raises(ValidationError):
            evolve(ATOM, PulseSpec(t_p=10.0), initial, dt=DT, t_end=5.0)


class TestDoubleExcitationError:
    def test_impulsive_limit(self):
        assert double_excitation_error(ATOM, 0.001 * ATOM.tau_e) < 1e-4

    def test_lifetime_scale_pulse_meets_error_budget(self):
        eps = double_excitation_error(ATOM, 10.0)
        assert 0.0 < eps <= 0.004

    def test_error_grows_from_ten_to_twenty_ns(self):
        assert double_excitation_error(ATOM, 20.0) >= double_excitation_error(ATOM, 10.0)

    def test_monotone_rise_through_the_pulsed_regime(self):
        grid = [0.1 * ATOM.tau_e, ATOM.tau_e, 2 * ATOM.tau_e, 5 * ATOM.tau_e]
        eps = [double_excitation_error(ATOM, tp) for tp in grid]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_weak_drive_rollover_at_long_pulses(self):
        # With the area fixed at pi, very long pulses mean a weak drive and the
        # error falls again; the rise is monotone only through T_p of a few
        # lifetimes.
        peak_region = double_excitation_error(ATOM, 5 * ATOM.tau_e)
        weak = double_excitation_error(ATOM, 100 * ATOM.tau_e)
        assert weak < peak_region

    def test_step_halving_converged(self):
        coarse = double_excitation_error(ATOM, 10.0, dt=ATOM.tau_e / 400)
        fine = double_excitation_error(ATOM, 10.0, dt=ATOM.tau_e / 800)
        assert abs(coarse - fine) < 1e-6

    def test_no_error_without_repump_path(self):
        atom = AtomSpec(branch_s=1 - 1e-9)
        assert double_excitation_error(atom, 10.0) < 1e-8

    def test_detuning_parameter_accepted(self):
        eps = double_excitation_error(ATOM, 10.0, detuning=0.05)
        assert 0.0 < eps < 1.0

    def test_very_long_pulse_is_finite(self):
        eps = double_excitation_error(ATOM, 1e6)
        assert math.isfinite(eps)
        assert 0.0 < eps < 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_p": math.inf}, {"t_p": math.nan}, {"t_p": 10.0, "detuning": math.nan},
         {"t_p": 10.0, "detuning": -math.inf}, {"t_p": 10.0, "omega": math.inf}],
    )
    def test_non_finite_pulse_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            PulseSpec(**kwargs)

    def test_overflowing_propagation_names_the_pulse(self):
        with pytest.raises(FloatingPointError, match=r"t_p=1e\+100 ns"):
            double_excitation_error(ATOM, 1e100)


class TestAgainstRK4Reference:
    @pytest.mark.parametrize("t_p", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 1000.0])
    def test_exact_value_matches_rk4(self, t_p):
        exact = double_excitation_error(ATOM, t_p)
        assert exact == pytest.approx(rk4_double_excitation_error(ATOM, t_p), rel=2e-9)

    def test_rk4_converges_to_exact_at_fourth_order(self):
        exact = double_excitation_error(ATOM, 5.0)
        gaps = [
            abs(rk4_double_excitation_error(ATOM, 5.0, dt=ATOM.tau_e / n) - exact)
            for n in (400, 800, 1600)
        ]
        assert all(fine <= coarse / 8 for coarse, fine in zip(gaps, gaps[1:]))


class TestDecayTail:
    @given(
        log_t_p=st.floats(-2.0, 4.0),
        detuning=st.floats(-1.0, 1.0),
        tau_e=st.floats(1.0, 100.0),
        branch_s=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_tail_is_the_long_time_limit(self, log_t_p, detuning, tau_e, branch_s):
        atom = AtomSpec(tau_e=tau_e, branch_s=branch_s)
        pulse = PulseSpec(t_p=10.0**log_t_p, detuning=detuning)
        start = _pack(DynamicState.pure(Sublevel(Term.D32, +1.5)))
        y = expm(_generator(atom, pulse.omega, detuning) * pulse.t_p) @ start
        free = _generator(atom, 0.0, 0.0)
        final = _unpack(_decay_tail(free, y))
        long_time = _unpack(expm(free * 60.0 * tau_e) @ y)
        assert np.max(np.abs(final.sinks - long_time.sinks)) < 1e-13
        d32 = sum(final.population(Sublevel(Term.D32, m)) for m in (-1.5, -0.5, 0.5, 1.5))
        assert abs(final.sink_total() + d32 - 1.0) < 1e-12
        eps = double_excitation_error(atom, pulse.t_p, detuning=detuning)
        assert 0.0 <= eps <= 1.0


class TestPade13AgainstScipy:
    """The numpy Pade-13 exponential against the scipy.linalg.expm oracle on the real generators."""

    @given(
        log_t_p=st.floats(-9.0, 6.0),
        detuning=st.floats(-0.2, 0.2),
        driven=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_propagation_matches_the_oracle(self, log_t_p, detuning, driven):
        pulse = PulseSpec(t_p=10.0**log_t_p, detuning=detuning)
        if driven:
            gen = _generator(ATOM, pulse.omega, detuning)
            start = _pack(DynamicState.pure(Sublevel(Term.D32, +1.5)))
        else:
            gen = _generator(ATOM, 0.0, 0.0)
            start = _pack(DynamicState.pure(Sublevel(Term.P12, +0.5)))
        y = _expm(gen * pulse.t_p) @ start
        oracle = expm(gen * pulse.t_p) @ start
        assert np.max(np.abs(y - oracle)) < 1e-10
        assert abs(_unpack(y).total_probability() - 1.0) < 1e-10
        if driven:
            sinks = _unpack(_decay_tail(_generator(ATOM, 0.0, 0.0), oracle)).sinks
            eps = double_excitation_error(ATOM, pulse.t_p, detuning=detuning)
            assert eps == pytest.approx((sinks[2] + sinks[3]) / sinks.sum(), rel=1e-10)

    @given(log_t_p=st.floats(-9.0, 300.0), detuning=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_any_pulse_gives_a_probability_or_raises(self, log_t_p, detuning):
        # from about 1e20 ns every entry underflows, which must raise, not read as epsilon_d = 0
        try:
            eps = double_excitation_error(ATOM, 10.0**log_t_p, detuning=detuning)
        except FloatingPointError as exc:
            assert "propagation gave non-finite populations" in str(exc)
        else:
            assert 0.0 < eps < 1.0

    def test_overflowing_generator_raises(self):
        # a 1 ps lifetime times 1.7e308 ns overflows the scaled generator itself
        with pytest.raises(FloatingPointError, match=r"t_p=1\.7e\+308 ns"), np.errstate(over="ignore"):
            double_excitation_error(AtomSpec(tau_e=1e-3), 1.7e308)

    def test_underflowed_sinks_raise(self):
        assert 0.0 < double_excitation_error(ATOM, 1e20) < 1e-19
        with pytest.raises(FloatingPointError, match=r"t_p=1e\+22 ns"):
            double_excitation_error(ATOM, 1e22)


class TestScan:
    def test_single_point_consistency(self):
        curve = scan_pulse_durations(ATOM, [ATOM.tau_e])
        assert curve.epsilon_d[0] == double_excitation_error(ATOM, ATOM.tau_e)

    def test_all_points_are_probabilities(self):
        curve = scan_pulse_durations(ATOM, [1.0, 10.0, 100.0, 1000.0])
        assert np.all(curve.epsilon_d >= 0.0)
        assert np.all(curve.epsilon_d <= 1.0)

    def test_rejects_empty_or_negative_grid(self):
        with pytest.raises(ValidationError):
            scan_pulse_durations(ATOM, [])
        with pytest.raises(ValidationError):
            scan_pulse_durations(ATOM, [10.0, -1.0])

    def test_csv_format(self):
        curve = ErrorCurve(t_p=np.array([10.0]), epsilon_d=np.array([0.003]))
        buf = io.StringIO()
        curve.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_p_ns,epsilon_d"
        assert lines[1] == "1.00000000000e+01,3.00000000000e-03"
