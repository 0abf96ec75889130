import numpy as np
import pytest

from bbecho import echo, oracle
from bbecho.echo import (EchoPoint, EchoSeries, coherence_offdiagonal,
                         effective_bdg, loschmidt_effective, loschmidt_free,
                         loschmidt_pulsed, sweep, time_average)
from bbecho.freefermion import (SpectralDecomp, build_bdg, diagonalize,
                                gaussian_overlap, ground_correlation, propagator)
from bbecho.model import ChainSpec, PulseSchedule, QubitSpec, SpecError, TimeGrid
from bbecho.spinstar import effective_coupling


def _spec(N=6, lam=1.0, epsilon=0.25, links=(1,), **kw):
    return ChainSpec(N=N, lam=lam, epsilon=epsilon, links=links, **kw)


class TestLoschmidtFree:
    def test_decoupled_qubit_keeps_unit_echo(self):
        series = loschmidt_free(_spec(epsilon=0.0), TimeGrid(t_max=10.0, n_points=21))
        assert series.points[0].le == 1.0
        np.testing.assert_allclose(series.le, 1.0, atol=1e-9)

    def test_matches_oracle_below_criticality(self):
        spec = _spec(N=6, lam=0.5)
        grid = TimeGrid(t_max=10.0, n_points=101)
        series = loschmidt_free(spec, grid)
        expected = np.abs(oracle.amplitude_free(spec, grid.times())) ** 2
        assert np.max(np.abs(series.le - expected)) <= 1e-8

    def test_point_log_consistency(self):
        series = loschmidt_free(_spec(N=8), TimeGrid(t_max=6.0, n_points=13))
        for p in series.points:
            if p.le > 1e-300:
                assert p.le == pytest.approx(np.exp(p.log_le), rel=1e-12)

    def test_spin_star_shift_identity(self):
        # spin-star echo equals the overlap of the lam ground state evolved
        # under the lam + eps/J bath, built through the shifted-field spec
        n, lam, eps = 8, 0.7, 0.3
        grid = TimeGrid(t_max=10.0, n_points=41)
        star_series = loschmidt_free(ChainSpec.spin_star(n, lam, eps), grid)

        du = diagonalize(build_bdg(ChainSpec(N=n, lam=lam, epsilon=0.0, links=(1,)), "up"))
        dd = diagonalize(build_bdg(ChainSpec(N=n, lam=lam + eps, epsilon=0.0, links=(1,)), "up"))
        r = ground_correlation(du)
        for i, t in enumerate(grid.times()):
            value, _ = gaussian_overlap(
                r, [propagator(du, t, +1), propagator(dd, t, -1)])
            assert abs(star_series.le[i] - value) <= 1e-10


class TestLoschmidtPulsed:
    def test_interval_beyond_horizon_reduces_to_free(self):
        spec = _spec(N=6)
        grid = TimeGrid(t_max=5.0, n_points=11)
        pulsed = loschmidt_pulsed(spec, PulseSchedule(delta_t=10.0), grid)
        free = loschmidt_free(spec, grid)
        np.testing.assert_allclose(pulsed.le, free.le, atol=1e-12)

    def test_matches_oracle_with_mid_cycle_branch(self):
        # Jdt = 0.7 exercises both residual branches on a 0.1-spaced grid
        spec = _spec(N=6)
        schedule = PulseSchedule(delta_t=0.7)
        grid = TimeGrid(t_max=10.0, n_points=101)
        series = loschmidt_pulsed(spec, schedule, grid)
        expected = np.abs(oracle.amplitude_pulsed(spec, schedule, grid.times())) ** 2
        assert np.max(np.abs(series.le - expected)) <= 1e-8

    def test_echo_range_and_time_zero(self):
        spec = _spec(N=8, lam=0.9, epsilon=0.4, links=(1, 5))
        series = loschmidt_pulsed(spec, PulseSchedule(delta_t=0.3),
                                  TimeGrid(t_max=12.0, n_points=61))
        assert series.points[0].t == 0.0 and series.points[0].le == 1.0
        assert np.all(series.le >= 0.0) and np.all(series.le <= 1.0 + 1e-9)

    def test_branch_formulas_agree_at_boundary(self):
        data = echo._BranchData(_spec(N=6))
        dt = 0.4
        cycle, rows = echo._cycle(data, dt), np.eye(6, 12)
        le1 = np.exp(echo._residual_log_det(data, cycle, rows, dt, dt, 1))
        le2 = np.exp(echo._residual_log_det(data, cycle, rows, dt, dt, 2))
        assert abs(le1 - le2) <= 1e-9

    def test_continuous_across_cycle_boundary(self):
        spec = _spec(N=6)
        schedule = PulseSchedule(delta_t=0.5)
        eps_t = 1e-7
        grid_times = np.array([0.0, 1.5 - eps_t, 1.5, 1.5 + eps_t])
        log_dets = echo._pulsed_log_dets(echo._BranchData(spec), schedule.delta_t,
                                         grid_times)
        pts = echo._series(spec, schedule, grid_times, log_dets, "pulsed").points
        assert abs(pts[1].le - pts[2].le) <= 1e-5
        assert abs(pts[3].le - pts[2].le) <= 1e-5


_ODD_N_ROUTES = {
    "free": lambda spec: loschmidt_free(spec, TimeGrid(t_max=2.0, n_points=5)),
    "pulsed": lambda spec: loschmidt_pulsed(spec, PulseSchedule(delta_t=0.3),
                                            TimeGrid(t_max=2.0, n_points=5)),
    "effective": lambda spec: loschmidt_effective(spec, PulseSchedule(delta_t=0.3),
                                                  TimeGrid(t_max=2.0, mode="cycles")),
    "sweep": lambda spec: sweep(spec, lambdas=[spec.lam], delta_ts=[0.3],
                                t_star=2.0, half_width=1.0, window_points=5),
    "calibration": lambda spec: oracle.calibrate_conventions([spec]),
}


@pytest.mark.parametrize("route", sorted(_ODD_N_ROUTES))
@pytest.mark.parametrize("n", [3, 5])
def test_odd_n_refused_by_every_determinant_route(route, n):
    # the antiperiodic sector misses the oracle for odd N; no route may
    # return an echo for it
    with pytest.raises(SpecError, match="even N"):
        _ODD_N_ROUTES[route](_spec(N=n, lam=1.5, links=(1,)))


class TestOccupiedSubspaceKernel:
    """The N x N kernel against the 2N x 2N reference strings at N = 100."""

    def test_matches_reference_strings(self):
        spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
        grid = TimeGrid(t_max=50.0, n_points=51)
        up = diagonalize(build_bdg(spec, "up"))
        down = diagonalize(build_bdg(spec, "down"))
        r = ground_correlation(up)

        def u(d, s, sign):
            return propagator(d, s, sign).U

        def pulsed_string(dt, t):
            m = int(np.floor(t / (2.0 * dt) + 1e-12))
            t_res = t - 2.0 * m * dt
            fwd = np.linalg.matrix_power(u(down, dt, +1) @ u(up, dt, +1), m)
            if t_res < dt:
                mid = [u(down, t_res, +1), u(up, t_res, -1)]
            else:
                s = t_res - dt
                mid = [u(down, dt, +1), u(up, s, +1), u(down, s, -1), u(up, dt, -1)]
            return [fwd, *mid, fwd.conj()]

        routes = [(loschmidt_free(spec, grid),
                   lambda t: [u(up, t, +1), u(down, t, -1)])]
        # dt = 0.1 runs 250 cycles; dt = 0.7 hits both residual branches
        for dt in (0.1, 0.7):
            routes.append((loschmidt_pulsed(spec, PulseSchedule(delta_t=dt), grid),
                           lambda t, dt=dt: pulsed_string(dt, t)))
        schedule = PulseSchedule(delta_t=0.5)
        gen = effective_bdg(spec, schedule)
        eff = SpectralDecomp(*np.linalg.eigh(gen.C))
        routes.append((loschmidt_effective(spec, schedule,
                                           TimeGrid(t_max=50.0, mode="cycles")),
                       lambda t: [u(eff, t, +1)]))
        for series, string in routes:
            assert len(series.points) == 51 and series.points[0].le == 1.0
            for p in series.points:
                value, log_value = gaussian_overlap(r, string(p.t))
                assert abs(p.le - value) <= 1e-10
                assert abs(p.log_le - log_value) <= 1e-10


class TestEffectiveGenerator:
    def test_zero_coupling_gives_zero_generator(self):
        gen = effective_bdg(_spec(epsilon=0.0), PulseSchedule(delta_t=0.2))
        np.testing.assert_array_equal(gen.C, np.zeros_like(gen.C))

    def test_hermitian(self):
        gen = effective_bdg(_spec(N=7, lam=1.3, epsilon=0.4, links=(2, 5)),
                            PulseSchedule(delta_t=0.3))
        assert np.max(np.abs(gen.C - gen.C.conj().T)) <= 1e-12

    def test_entrywise_field_independence(self):
        schedule = PulseSchedule(delta_t=0.2)
        low = effective_bdg(_spec(N=7, lam=0.5, links=(2, 5)), schedule)
        high = effective_bdg(_spec(N=7, lam=1.5, links=(2, 5)), schedule)
        assert np.max(np.abs(low.C - high.C)) <= 1e-10

    def test_spin_star_spectrum_is_sector_dispersion(self):
        # eigenvalues +-8 eps_eff sin(q) on the antiperiodic momenta of the
        # calibrated sector (the closed-form dispersion evaluated there)
        n = 8
        schedule = PulseSchedule(delta_t=0.1)
        spec = ChainSpec.spin_star(N=n, lam=1.0, epsilon=0.01)
        gen = effective_bdg(spec, schedule)
        eigs = np.linalg.eigvalsh(gen.C)
        eps_eff = effective_coupling(spec.epsilon, spec.J, schedule.delta_t).eps_eff
        q = (2 * np.arange(n) + 1) * np.pi / n
        expected = np.sort(np.concatenate([+8 * eps_eff * np.sin(q),
                                           -8 * eps_eff * np.sin(q)]))
        np.testing.assert_allclose(np.sort(eigs), expected, atol=1e-12)


class TestLoschmidtEffective:
    def test_needs_cycle_aligned_grid(self):
        with pytest.raises(SpecError, match="cycle"):
            loschmidt_effective(_spec(), PulseSchedule(delta_t=0.1),
                                TimeGrid(t_max=5.0, n_points=11))

    def test_time_zero_is_exactly_one(self):
        series = loschmidt_effective(_spec(), PulseSchedule(delta_t=0.25),
                                     TimeGrid(t_max=2.0, mode="cycles"))
        assert series.points[0].le == 1.0

    def test_prediction_error_shrinks_with_pulse_interval(self):
        # leading-order property: |pulsed - effective| at fixed horizon
        # decreases strictly along dt = 0.4, 0.2, 0.1, 0.05
        spec = _spec(N=6)
        gaps = []
        for dt in (0.4, 0.2, 0.1, 0.05):
            schedule = PulseSchedule(delta_t=dt)
            grid = TimeGrid(t_max=5.0, mode="cycles")
            pulsed = loschmidt_pulsed(spec, schedule, grid)
            effective = loschmidt_effective(spec, schedule, grid)
            gaps.append(abs(pulsed.points[-1].le - effective.points[-1].le))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestCoherence:
    def setup_method(self):
        a = 1.0 / np.sqrt(2.0)
        self.q = QubitSpec(omega0=1.5, c_up=a, c_down=a)

    def test_initial_value(self):
        rho = coherence_offdiagonal(self.q, 1.0 + 0.0j, 0.0)
        assert rho == pytest.approx(self.q.c_down * np.conj(self.q.c_up), abs=1e-15)

    def test_magnitude_constant_when_decoupled(self):
        spec = _spec(N=4, epsilon=0.0)
        for t in (0.5, 2.0, 6.0):
            d = oracle.amplitude_free(spec, [t])[0]
            rho = coherence_offdiagonal(self.q, d, t)
            assert abs(rho) == pytest.approx(0.5, abs=1e-12)

    def test_no_initial_coherence_stays_zero(self):
        q = QubitSpec(omega0=1.0, c_up=1.0, c_down=0.0)
        assert coherence_offdiagonal(q, 0.3 + 0.4j, 2.0) == 0.0


class TestTimeAverage:
    def _constant_series(self, value=0.7):
        points = tuple(EchoPoint(t=float(t), le=value, log_le=np.log(value), kind="free")
                       for t in np.linspace(0, 10, 21))
        return EchoSeries(spec=_spec(), schedule=None, points=points)

    def test_constant_series(self):
        series = self._constant_series(0.7)
        assert time_average(series, 5.0, 2.0) == pytest.approx(0.7, abs=1e-15)

    def test_empty_window_rejected(self):
        series = self._constant_series()
        with pytest.raises(SpecError, match="window"):
            time_average(series, 5.25, 0.1)  # narrower than the 0.5 spacing

    def test_window_outside_span_rejected(self):
        series = self._constant_series()
        with pytest.raises(SpecError, match="span"):
            time_average(series, 9.0, 2.0)


class TestSweep:
    def test_zero_coupling_gives_unit_table(self):
        rows = sweep(_spec(N=8, epsilon=0.0), lambdas=[0.5, 1.0],
                     delta_ts=[0.2, 0.5], t_star=3.0, half_width=1.0,
                     window_points=11)
        for row in rows:
            assert row.le_pulsed == pytest.approx(1.0, abs=1e-9)
            assert row.le_free == pytest.approx(1.0, abs=1e-9)
            assert row.ratio == pytest.approx(1.0, abs=1e-9)

    def test_row_order_lambda_outer(self):
        rows = sweep(_spec(N=6), lambdas=[0.5, 1.5], delta_ts=[0.3, 0.6],
                     t_star=3.0, half_width=1.0, window_points=11)
        assert [(r.lam, r.delta_t) for r in rows] == [
            (0.5, 0.3), (0.5, 0.6), (1.5, 0.3), (1.5, 0.6)]

    def test_threaded_matches_sequential(self):
        kwargs = dict(lambdas=[0.8, 1.2], delta_ts=[0.25, 0.5, 1.0],
                      t_star=4.0, half_width=1.0, window_points=21)
        seq = sweep(_spec(N=6), threads=1, **kwargs)
        par = sweep(_spec(N=6), threads=3, **kwargs)
        assert [(r.lam, r.delta_t) for r in seq] == [(r.lam, r.delta_t) for r in par]
        np.testing.assert_array_equal([r.le_pulsed for r in seq],
                                      [r.le_pulsed for r in par])

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError, match="axes"):
            sweep(_spec(), lambdas=[], delta_ts=[0.1], t_star=1.0, half_width=0.5)

    @pytest.mark.parametrize("window_points", [-5, 0, 1])
    def test_window_needs_two_points(self, window_points):
        with pytest.raises(SpecError, match="window_points >= 2"):
            sweep(_spec(), lambdas=[1.0], delta_ts=[0.4], t_star=2.0,
                  half_width=1.0, window_points=window_points)


class TestPaperScaleShapes:
    """Slower checks at full production scale (N = 100)."""

    def test_averaged_echo_dip_and_recovery_vs_interval(self):
        # profile of the window-averaged pulsed echo over the pulse
        # interval: protection at fast pulsing, an interior minimum, then
        # recovery toward the uncontrolled value at slow pulsing
        spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
        dts = [0.25, 0.45, 0.7, 1.0, 1.5, 2.0, 3.0]
        rows = sweep(spec, lambdas=[1.0], delta_ts=dts, t_star=25.0, half_width=5.0)
        vals = [r.le_pulsed for r in rows]
        le_free = rows[0].le_free
        k = int(np.argmin(vals))
        assert 0 < k < len(vals) - 1
        assert vals[0] > le_free
        assert all(b > a for a, b in zip(vals[k:], vals[k + 1:]))
        assert vals[-1] > 0.85 * le_free

    def test_echo_rises_with_field_under_fast_pulsing(self):
        rows = sweep(ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,)),
                     lambdas=[0.5, 1.0, 1.5, 2.0], delta_ts=[0.1],
                     t_star=25.0, half_width=5.0)
        vals = [r.le_pulsed for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fast_pulsing_suppresses_critical_decay(self):
        # at criticality, Jdt = 0.25 shows no sustained decay: the pulsed
        # echo never drops below the uncontrolled minimum and dominates
        # the uncontrolled value at the decay minimum Jt = 25
        spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
        grid = TimeGrid(t_max=50.0, n_points=501)
        free = loschmidt_free(spec, grid)
        pulsed = loschmidt_pulsed(spec, PulseSchedule(delta_t=0.25), grid)
        assert np.min(pulsed.le) >= np.min(free.le)
        at_25 = np.argmin(np.abs(grid.times() - 25.0))
        assert pulsed.le[at_25] > free.le[at_25]
