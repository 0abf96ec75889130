import math

import numpy as np
import pytest

from bbecho.echo import loschmidt_effective
from bbecho.model import ChainSpec, PulseSchedule, SpecError, TimeGrid
from bbecho.spinstar import (amplitude_closed_form, effective_coupling,
                             gamma_coefficient, gaussian_envelope,
                             log_echo_closed_form, modes)


class TestModes:
    def test_exact_values_n4(self):
        ms = modes(4, 1.0)
        assert len(ms) == 2
        assert ms[0].eps_k == pytest.approx(1.0, abs=1e-15)   # cos(pi/2) = 0
        assert ms[0].delta_k == pytest.approx(1.0, abs=1e-15)
        assert ms[1].eps_k == pytest.approx(2.0, abs=1e-15)   # cos(pi) = -1
        assert ms[1].delta_k == pytest.approx(0.0, abs=1e-15)

    def test_zero_dispersion_angle(self):
        # lam = cos(pi/2) as a double makes eps_1 exactly 0: the angle is pi/2
        ms = modes(4, math.cos(math.pi / 2))
        assert ms[0].eps_k == 0.0 and ms[0].theta_k == math.pi / 2

    def test_single_mode_n2(self):
        ms = modes(2, 0.0)
        assert len(ms) == 1
        assert ms[0].k == 1
        assert ms[0].eps_k == pytest.approx(1.0, abs=1e-15)
        assert ms[0].delta_k == pytest.approx(0.0, abs=1e-15)

    def test_large_chain_mode_count_and_range(self):
        ms = modes(300, 1.0)
        assert len(ms) == 150
        assert all(0.0 <= m.delta_k <= 1.0 for m in ms)
        assert [m.k for m in ms] == list(range(1, 151))

    def test_odd_n_rejected(self):
        with pytest.raises(SpecError):
            modes(7, 1.0)

    def test_bogoliubov_angle(self):
        ms = modes(8, 1.0)
        for m in ms:
            if m.eps_k != 0.0:
                assert m.theta_k == pytest.approx(math.atan(m.delta_k / m.eps_k))


class TestEffectiveCoupling:
    def test_arithmetic(self):
        assert effective_coupling(0.01, 1.0, 0.1).eps_eff == pytest.approx(5e-4, abs=1e-18)
        assert effective_coupling(0.25, 1.0, 0.2).eps_eff == pytest.approx(0.025, abs=1e-16)

    def test_zero_coupling(self):
        assert effective_coupling(0.0, 1.0, 0.3).eps_eff == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(SpecError):
            effective_coupling(float("nan"), 1.0, 0.1)


class TestAmplitudeClosedForm:
    def test_zero_time(self):
        assert amplitude_closed_form(300, 5e-4, 0.0) == 1.0

    def test_zero_coupling(self):
        for t in (0.0, 3.0, 50.0):
            assert amplitude_closed_form(100, 0.0, t) == 1.0

    def test_even_in_time_and_coupling(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 2 * rng.integers(2, 40)
            eps_eff, t = rng.uniform(0, 0.1), rng.uniform(0, 20)
            a = amplitude_closed_form(n, eps_eff, t)
            assert a == pytest.approx(amplitude_closed_form(n, eps_eff, -t), abs=1e-15)
            assert a == pytest.approx(amplitude_closed_form(n, -eps_eff, t), abs=1e-15)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = 2 * rng.integers(1, 60)
            a = amplitude_closed_form(n, rng.uniform(0, 1), rng.uniform(0, 30))
            assert abs(a) <= 1.0

    def test_deep_decay_underflows_to_zero(self):
        # 1500 modes, log magnitude ~ -1040: below double range
        assert amplitude_closed_form(3000, 1.0, 100.0) == 0.0

    def test_moderate_decay_survives_log_accumulation(self):
        n, eps_eff, t = 400, 0.3, 50.0
        k = np.arange(1, n // 2 + 1)
        factors = np.cos(8.0 * t * eps_eff * np.sin(2.0 * np.pi * k / n))
        expected = math.exp(np.sum(np.log(np.abs(factors))))
        assert abs(amplitude_closed_form(n, eps_eff, t)) == pytest.approx(expected, rel=1e-10)

    def test_log_echo_is_twice_the_log_amplitude(self):
        rng = np.random.default_rng(13)
        for n in (4, 300, 3000):
            eps_eff = rng.uniform(0, 1)
            ts = np.concatenate([[0.0], rng.uniform(0, 30, 20)])
            log_le = log_echo_closed_form(n, eps_eff, ts)
            assert log_le.shape == ts.shape and np.all(np.isfinite(log_le))
            for t, value in zip(ts, log_le):
                amp = amplitude_closed_form(n, eps_eff, float(t))
                if abs(amp) >= np.finfo(float).tiny:  # a normal float
                    assert value == pytest.approx(2.0 * math.log(abs(amp)),
                                                  rel=1e-15, abs=1e-15)
                else:
                    assert value < -1400.0  # 2 * -708: the amplitude left the range


class TestGammaCoefficient:
    def test_n4_exact(self):
        assert gamma_coefficient(4) == pytest.approx(64.0, rel=1e-12)

    def test_identity_16n(self):
        # closed-form identity sum_k sin^2(2 pi k / N) = N / 4, checked by
        # direct summation across the whole range
        for n in range(4, 401, 2):
            assert gamma_coefficient(n) == pytest.approx(16.0 * n, rel=1e-9)

    def test_n300(self):
        assert gamma_coefficient(300) == pytest.approx(4800.0, rel=1e-9)


class TestGaussianEnvelope:
    def test_zero_time(self):
        assert gaussian_envelope(300, 5e-4, 0.0) == 1.0

    def test_zero_coupling(self):
        assert gaussian_envelope(64, 0.0, 12.0) == 1.0

    def test_small_angle_agreement_with_product(self):
        # max argument 8 t eps_eff = 0.04 << 1 at the N=300 spin-star scale
        n, eps_eff, t = 300, 5e-4, 10.0
        amp2 = amplitude_closed_form(n, eps_eff, t) ** 2
        env = gaussian_envelope(n, eps_eff, t)
        assert abs(amp2 - env) / env <= 0.05

    def test_small_angle_bound_one_percent(self):
        # for max_k |8 t eps_eff delta_k| <= 0.1 the envelope is within 1e-2
        for n in (8, 50, 200):
            eps_eff = 0.1 / (8.0 * 5.0)
            amp2 = amplitude_closed_form(n, eps_eff, 5.0) ** 2
            env = gaussian_envelope(n, eps_eff, 5.0)
            assert abs(amp2 - env) / env <= 1e-2


class TestCrossPathConsistency:
    def test_product_tracks_pulsed_echo_at_short_times(self):
        # the leading-order product gives the pulsed decay only while
        # t w_q << 1 for the gaps w_q of the mean generator
        # (h_up + h_down)/2; at N=300, eps=0.01, Jdt=0.1 the decay ratio
        # (1 - L)/(1 - A^2) falls from 0.95 at Jt = 0.2 to 0.21 at
        # Jt = 0.8. Both echoes stay within 1e-3 of 1 up to Jt = 0.8, so
        # this 1e-3 relative match on L is a weak check of the decay.
        from bbecho.echo import loschmidt_pulsed

        schedule = PulseSchedule(delta_t=0.1)
        grid = TimeGrid(t_max=0.8, mode="cycles")
        spec = ChainSpec.spin_star(N=300, lam=1.0, epsilon=0.01)
        le = loschmidt_pulsed(spec, schedule, grid).le
        ts = grid.times(schedule)
        eps_eff = effective_coupling(spec.epsilon, spec.J, schedule.delta_t).eps_eff
        closed = np.array([amplitude_closed_form(spec.N, eps_eff, t) ** 2
                           for t in ts])
        rel = np.abs(le[1:] - closed[1:]) / closed[1:]
        assert np.max(rel) <= 1e-3

    def test_squared_amplitude_equals_effective_echo(self):
        # two independent derivations of the same leading-order quantity
        spec = ChainSpec.spin_star(N=8, lam=1.0, epsilon=0.01)
        schedule = PulseSchedule(delta_t=0.1)
        grid = TimeGrid(t_max=10.0, mode="cycles")
        series = loschmidt_effective(spec, schedule, grid)
        eps_eff = effective_coupling(spec.epsilon, spec.J, schedule.delta_t).eps_eff
        for point in series.points:
            closed = amplitude_closed_form(spec.N, eps_eff, point.t) ** 2
            assert abs(point.le - closed) <= 1e-10


class TestPairPower:
    @pytest.mark.parametrize("theta", [1e-7, 1e-3, 0.5, np.pi - 1e-5])
    def test_power_keeps_small_angles(self, theta):
        # x = cos(th) 1 - i sin(th) n.sigma, so x^m is the same with m th;
        # an angle taken from arccos(Re a) would be off by 1e-16 / sin(th)
        # and miss by m times that
        from bbecho.spinstar import _power

        def su2(angle):
            n_x, n_y, n_z = 0.48, 0.6, 0.64
            s = np.sin(angle)
            return (np.array([np.cos(angle) - 1j * s * n_z]),
                    np.array([-1j * s * n_x - s * n_y]))

        m = np.array([[10 ** 6]])
        for got, want in zip(_power(su2(theta), m), su2(10 ** 6 * theta)):
            assert np.max(np.abs(got - want)) <= 1e-8
