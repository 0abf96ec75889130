import itertools

import numpy as np
import pytest

from bbecho import echo, freefermion, oracle, spinstar
from bbecho.echo import (EchoSeries, coherence_offdiagonal,
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

    @pytest.mark.parametrize("log_le", [np.nan, np.inf])
    def test_log_that_is_no_echo_refused(self, log_le):
        # every route builds its points here; le = 0.0 must not stand for it
        with pytest.raises(FloatingPointError, match=f"t = 2.0 has log L = {log_le}"):
            echo._series(np.array([0.0, 2.0]), [0.0, log_le], "free")

    def test_zero_echo_kept(self):
        point = echo._series(np.array([0.0, 2.0]), [0.0, -np.inf], "free").points[-1]
        assert (point.le, point.log_le) == (0.0, -np.inf)

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

    def test_descending_times_rejected(self):
        with pytest.raises(SpecError, match="ascending"):
            list(echo.family(_spec(N=6), (1.0,), (0.3,), [1.0, 0.5]))

    def test_descending_times_rejected_on_the_momentum_route(self):
        spec = ChainSpec.spin_star(6, 1.0, 0.25)
        assert echo.route(spec) == "momentum"
        with pytest.raises(SpecError, match="ascending"):
            list(echo.family(spec, (1.0,), (0.3,), [1.0, 0.5]))

    def test_branch_formulas_agree_at_boundary(self):
        data = echo._BranchData(_spec(N=6))
        dt = 0.4
        train = echo._PulseTrain(data, dt)
        le1 = np.exp(train.log_det(dt, True))
        le2 = np.exp(train.log_det(dt, False))
        assert abs(le1 - le2) <= 1e-9

    def test_continuous_across_cycle_boundary(self):
        spec = _spec(N=6)
        schedule = PulseSchedule(delta_t=0.5)
        eps_t = 1e-7
        grid_times = np.array([0.0, 1.5 - eps_t, 1.5, 1.5 + eps_t])
        log_dets = echo._BranchData(spec).log_echo(grid_times, schedule.delta_t)
        pts = echo._series(grid_times, log_dets, "pulsed").points
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


def _u(d, s, sign):
    return propagator(d, s, sign).U


def _pulsed_string(up, down, dt, t):
    """The 2N x 2N pulsed string F^M mid B^M, the cycle power by binary powering."""
    m = int(np.floor(t / (2.0 * dt) + 1e-12))
    t_res = t - 2.0 * m * dt
    fwd = np.linalg.matrix_power(_u(down, dt, +1) @ _u(up, dt, +1), m)
    if t_res < dt:
        mid = [_u(down, t_res, +1), _u(up, t_res, -1)]
    else:
        s = t_res - dt
        mid = [_u(down, dt, +1), _u(up, s, +1), _u(down, s, -1), _u(up, dt, -1)]
    return [fwd, *mid, fwd.conj()]


# link sets with a site-centred axis (s even), with a bond-centred one
# (s odd), and with none
_AXES = {"N100-site": (100, (1,)), "N10-bond-1-4": (10, (1, 4)),
         "N10-bond-1-2": (10, (1, 2)), "N12-site-2-5-8": (12, (2, 5, 8))}
_NO_AXIS = (6, (1, 2, 4))


class TestOccupiedSubspaceKernel:
    """The sector kernel against the 2N x 2N reference strings: at N = 100
    in both phases and at the critical point, and on the other axes and a
    link set with none."""

    @pytest.mark.parametrize("lam, n, links", [
        *(pytest.param(lam, *_AXES["N100-site"], id=str(lam)) for lam in (0.5, 1.0, 1.5)),
        *(pytest.param(0.8, *case, id=name) for name, case in _AXES.items()
          if name != "N100-site"),
        pytest.param(0.8, *_NO_AXIS, id="no-axis"),
    ])
    def test_matches_reference_strings(self, lam, n, links):
        spec = ChainSpec(N=n, lam=lam, epsilon=0.25, links=links)
        grid = TimeGrid(t_max=50.0, n_points=51)
        up = diagonalize(build_bdg(spec, "up"))
        down = diagonalize(build_bdg(spec, "down"))
        r = ground_correlation(up)

        routes = [(loschmidt_free(spec, grid),
                   lambda t: [_u(up, t, +1), _u(down, t, -1)])]
        # dt = 0.1 runs 250 cycles; dt = 0.7 hits both residual branches
        for dt in (0.1, 0.7):
            routes.append((loschmidt_pulsed(spec, PulseSchedule(delta_t=dt), grid),
                           lambda t, dt=dt: _pulsed_string(up, down, dt, t)))
        schedule = PulseSchedule(delta_t=0.5)
        gen = effective_bdg(spec, schedule)
        eff = SpectralDecomp(*np.linalg.eigh(gen.C))
        routes.append((loschmidt_effective(spec, schedule,
                                           TimeGrid(t_max=50.0, mode="cycles")),
                       lambda t: [_u(eff, t, +1)]))
        for series, string in routes:
            assert len(series.points) == 51 and series.points[0].le == 1.0
            for p in series.points:
                value, log_value = gaussian_overlap(r, string(p.t))
                assert abs(p.le - value) <= 1e-10
                assert abs(p.log_le - log_value) <= 1e-10


def _swap_halves(m):
    """tau m tau, with tau the particle-hole swap of the two halves of the
    2N rows and columns."""
    n = len(m) // 2
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return m[np.ix_(swap, swap)]


class TestReflectionSector:
    """The sector that the spec picks, checked in the whole 2N space
    against the dense matrices of build_bdg: its modes x span a subspace
    that both branches keep."""

    @pytest.mark.parametrize("boundary_sign", [1, -1], ids=["periodic", "antiperiodic"])
    @pytest.mark.parametrize("n, links", _AXES.values(), ids=_AXES.keys())
    def test_reflection_commutes_with_both_branches(self, n, links, boundary_sign):
        spec = ChainSpec(N=n, lam=0.7, epsilon=0.25, links=links)
        _, x, power = freefermion.ring_modes(spec, boundary_sign)
        assert power == 2 and x.shape == (2 * n, n)
        np.testing.assert_allclose(x.T @ x, np.eye(n), atol=1e-13)
        projector = x @ x.T
        for branch in ("up", "down"):
            c = build_bdg(spec, branch, boundary_sign).C
            commutator = projector @ c - c @ projector
            assert np.max(np.abs(commutator)) <= 1e-13 * np.max(np.abs(c)), branch
        # particle-hole conjugation maps the sector onto its complement
        np.testing.assert_allclose(projector + _swap_halves(projector), np.eye(2 * n),
                                   atol=1e-13)
        if boundary_sign == -1:
            assert echo._BranchData(spec).filled == n // 2

    def test_link_set_without_axis_takes_the_whole_space(self):
        n, links = _NO_AXIS
        spec = ChainSpec(N=n, lam=0.8, epsilon=0.25, links=links)
        assert spec.reflection_axis is None
        _, x, power = freefermion.ring_modes(spec, -1)
        assert power == 1 and x.shape == (2 * n, 2 * n)
        np.testing.assert_allclose(x @ x.T, np.eye(2 * n), atol=1e-13)
        data = echo._BranchData(spec)
        assert (data.power, data.filled) == (1, n)
        ts = np.linspace(0.0, 10.0, 41)
        free = np.exp(data.log_echo(ts))
        assert np.max(np.abs(free - np.abs(oracle.amplitude_free(spec, ts)) ** 2)) <= 1e-8
        schedule = PulseSchedule(delta_t=0.7)
        pulsed = np.exp(data.log_echo(ts, schedule.delta_t))
        expected = np.abs(oracle.amplitude_pulsed(spec, schedule, ts)) ** 2
        assert np.max(np.abs(pulsed - expected)) <= 1e-8


class TestUpModesClosedForm:
    """The up branch from the bare ring's closed form, projected into the
    sector, against the dense 2N x 2N matrix C_up of build_bdg."""

    @pytest.mark.parametrize("boundary_sign", [1, -1], ids=["periodic", "antiperiodic"])
    @pytest.mark.parametrize("links, sizes", [
        ((1,), range(2, 41, 2)), ((1, 2), range(2, 41, 2)), ((1, 7), range(8, 41, 2)),
        (_NO_AXIS[1], (_NO_AXIS[0],)),
    ], ids=["1", "1-2", "1-7", "no-axis"])
    def test_diagonalizes_the_dense_sector_matrix(self, links, sizes, boundary_sign):
        for n, lam in itertools.product(sizes, (0.0, 0.3, 1.0, 1.7)):
            spec = ChainSpec(N=n, lam=lam, epsilon=0.25, links=links)
            e, x, power = freefermion.ring_modes(spec, boundary_sign)
            c = build_bdg(spec, "up", boundary_sign).C
            dim = n if power == 2 else 2 * n
            assert power == (1 if links == _NO_AXIS[1] else 2)
            assert e.shape == (dim,) and x.shape == (2 * n, dim)
            tol = 1e-13 * np.max(np.abs(e))
            assert np.all(np.diff(e) >= 0.0)
            # the sector holds one of each +-e pair of the 2N spectrum
            spectrum = np.sort(np.concatenate([e, -e])) if power == 2 else e
            assert np.max(np.abs(spectrum - np.linalg.eigvalsh(c))) <= tol, (n, lam)
            assert np.max(np.abs(x.T @ x - np.eye(dim))) <= 1e-13, (n, lam)
            assert np.max(np.abs(c @ x - x * e)) <= tol, (n, lam)

    def test_zero_mode_at_pi_refuses_the_periodic_sector(self):
        # at lam = 1 the +1 sector holds q = pi, where 2J |lam + e^{iq}| is
        # exactly zero; the calibration counts on this refusal
        spec = ChainSpec(N=4, lam=1.0, epsilon=0.25, links=(1,))
        e, _, _ = freefermion.ring_modes(spec, +1)
        assert np.min(np.abs(e)) == 0.0
        with pytest.raises(freefermion.DegenerateFillingError):
            echo._BranchData(spec, +1)

    @pytest.mark.parametrize("sign", [2, 0, True])
    def test_sector_other_than_plus_minus_one_rejected(self, sign):
        with pytest.raises(SpecError, match="boundary_sign"):
            echo._BranchData(_spec(N=6), sign)

    @pytest.mark.parametrize("links", [(1,), _NO_AXIS[1]], ids=["axis", "no-axis"])
    def test_one_eigh_and_no_bdg_per_field(self, monkeypatch, links):
        calls = []
        eigh = np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        def refuse(*args):
            raise AssertionError("build_bdg called by _BranchData")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(freefermion, "build_bdg", refuse)
        data = echo._BranchData(_spec(N=6, lam=0.8, links=links))
        assert calls == [(len(data.e_up),) * 2]


def _extended_replay(data, dt, ts, reorthogonalize=False):
    """log L of the pulsed string from data's float64 K and sector energies,
    replayed in extended precision: the cycle G = E_down(dt) K^T E_up(dt) K
    with E(x) = diag(e^{+iex}), binary-powered, the occupied rows
    R = Q G^M with Q the filled rows of K, and power times
    log|det(R E_down(x) K^T E_up(alpha) K E_down(-y) R^H)| with
    (x, alpha, y) = (t_res, dt - t_res, 0) before the mid-cycle pulse and
    (dt, s, s), s = t_res - dt, after it. With reorthogonalize,
    Newton-Schulz steps first make K orthogonal in extended precision."""
    k = data.k.astype(np.longdouble)
    if reorthogonalize:
        for _ in range(6):
            k = k @ (1.5 * np.eye(len(k), dtype=np.longdouble) - 0.5 * k.T @ k)
        assert np.max(np.abs(k.T @ k - np.eye(len(k)))) <= 1e-18

    def phase(e, x):
        return np.diag(np.exp(1j * e.astype(np.longdouble) * np.longdouble(x)))

    cycle = phase(data.e_down, dt) @ k.T @ phase(data.e_up, dt) @ k
    out = []
    for t in ts:
        m = int(np.floor(t / (2.0 * dt) + 1e-12))
        t_res = t - 2.0 * m * dt
        r, power = k[:data.filled].astype(np.clongdouble), cycle
        while m:
            if m & 1:
                r = r @ power
            power, m = power @ power, m >> 1
        x, alpha, y = ((t_res, dt - t_res, 0.0) if t_res < dt
                       else (dt, t_res - dt, t_res - dt))
        mid = (phase(data.e_down, x) @ k.T @ phase(data.e_up, alpha) @ k
               @ phase(data.e_down, -y))
        out.append(data.power
                   * np.linalg.slogdet((r @ mid @ r.conj().T).astype(complex))[1])
    return np.array(out)


class TestCycleJumps:
    """Rows advanced by whole-cycle jumps through the held binary ladder."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_non_uniform_grid_matches_references(self, n, monkeypatch):
        spec = _spec(N=n, lam=0.9, epsilon=0.3, links=(1, 4))
        dt = 0.05
        # first point 300 cycles in, a repeated time, jumps of 0 within a
        # cycle and 15 distinct sizes after it, more than log2(M) + 1 = 10
        jumps = [300, 0, 0, 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        cycles = np.cumsum(jumps)
        offsets = dt * np.array([0.3, 0.3, 1.6] + [0.1 + 0.37 * (i % 5)
                                                   for i in range(len(jumps) - 3)])
        ts = 2.0 * dt * cycles + offsets
        held = []

        class Recording(echo._PulseTrain):
            def __init__(self, *args):
                super().__init__(*args)
                held.append(self)

        monkeypatch.setattr(echo, "_PulseTrain", Recording)
        series = echo._series(ts, echo._BranchData(spec).log_echo(ts, dt),
                              "pulsed")
        assert len(held) == 1
        assert len(held[0].powers) <= int(cycles[-1]).bit_length()

        up = diagonalize(build_bdg(spec, "up"))
        down = diagonalize(build_bdg(spec, "down"))
        r = ground_correlation(up)
        for p in series.points:
            value, log_value = gaussian_overlap(r, _pulsed_string(up, down, dt, p.t))
            assert abs(p.le - value) <= 1e-10
            assert abs(p.log_le - log_value) <= 1e-10
        expected = np.abs(oracle.amplitude_pulsed(spec, PulseSchedule(delta_t=dt), ts)) ** 2
        assert np.max(np.abs(series.le - expected)) <= 1e-8

    def test_rows_stay_orthonormal_over_one_cycle_jumps(self):
        # without a Newton-Schulz step on the rows, 248 one-cycle jumps at
        # N = 100 drifted their Gram matrix by 2e-13 and log L by 1.6e-12.
        # The rows get a step only every few products, so the bound is
        # checked after every jump, not only where a step fell. Jumps of
        # 5 cycles, as dt = 0.1 takes on a grid of step 1.0, run up the
        # ladder and then through the held factor
        data = echo._BranchData(ChainSpec(N=100, lam=1.5, epsilon=0.25, links=(1,)))
        for jump in (1, 5):
            train = echo._PulseTrain(data, 0.1)
            for m in range(jump, 248 * jump + 1, jump):
                train.advance(m)
                gram = train.rows.conj().T @ train.rows
                assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-14, (jump, m)

    def test_long_train_drift_is_bounded(self):
        # 2.5 * 10^6 cycles at dt = 1e-5: the drift against the replay stays
        # below 1e-9, where the exact decay is about 3e-12
        spec = _spec(N=4, lam=1.0, epsilon=0.25)
        dt, ts = 1e-5, np.array([10.0, 50.0])
        data = echo._BranchData(spec)
        log_le = np.array(data.log_echo(ts, dt))
        assert np.max(np.abs(log_le - _extended_replay(data, dt, ts))) <= 1e-9
        # against the same replay with K made orthogonal, the kernel's
        # Newton-Schulz steps leave no drift of their own
        exact = _extended_replay(data, dt, ts, reorthogonalize=True)
        assert np.max(np.abs(log_le - exact)) <= 1e-11

    @staticmethod
    def _series_cli_steps(monkeypatch, dt):
        """The rows' Newton-Schulz steps, the whole-cycle products a binary
        ladder needs and the reads of the held powers over one pulsed
        series shaped like a series-cli job: N = 100, one link, 51 points
        on t <= 50."""
        spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
        ts = np.linspace(0.0, 50.0, 51)
        data = echo._BranchData(spec)
        shapes, reads = [], []
        unitarized = echo._unitarized

        def counting(x):
            shapes.append(x.shape)
            return unitarized(x)

        class Reads(list):
            def __getitem__(self, j):
                reads.append(j)
                return super().__getitem__(j)

        class Watched(echo._PulseTrain):
            def __init__(self, *args):
                super().__init__(*args)
                self.powers = Reads(self.powers)

        monkeypatch.setattr(echo, "_unitarized", counting)
        monkeypatch.setattr(echo, "_PulseTrain", Watched)
        data.log_echo(ts, dt)
        jumps = np.diff(PulseSchedule(dt).split(ts)[0]).astype(int)
        products = sum(bin(d).count("1") for d in jumps.tolist())
        # the ladder's steps act on D x D matrices (the set-up ran unwatched)
        rows = shapes.count((len(data.e_up), data.filled))
        assert rows + shapes.count((len(data.e_up),) * 2) == len(shapes)
        return rows, products, reads

    @pytest.mark.parametrize("dt", [1.0, 0.1])
    def test_rows_step_every_fourth_product(self, monkeypatch, dt):
        rows, products, _ = self._series_cli_steps(monkeypatch, dt)
        assert products > 0
        assert rows <= -(-products // 4)

    def test_one_cycle_jumps_pass_through_the_held_factor(self, monkeypatch):
        # at dt = 1.0 on a grid of step 1.0 every jump is one cycle, so the
        # train builds no power, not even the one-cycle power
        trains = []

        class Recording(echo._PulseTrain):
            def __init__(self, *args):
                super().__init__(*args)
                trains.append(self)

        monkeypatch.setattr(echo, "_PulseTrain", Recording)
        _, products, reads = self._series_cli_steps(monkeypatch, 1.0)
        assert products == 25
        assert reads == []
        assert [len(train.powers) for train in trains] == [0]

    @pytest.mark.parametrize("dt", [0.1, 1.0])
    def test_series_cli_train_matches_the_replay(self, dt):
        # a whole series-cli series at N = 100, checked at every 5th point
        # against the extended-precision replay with K made orthogonal
        data = echo._BranchData(ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,)))
        ts = np.linspace(0.0, 50.0, 51)
        log_le = np.array(data.log_echo(ts, dt))[5::5]
        exact = _extended_replay(data, dt, ts[5::5], reorthogonalize=True)
        assert np.max(np.abs(log_le - exact)) <= 1e-13


class TestRealProduct:
    """The real K applied to complex rows as one real product on their
    float64 view, against the same product in complex arithmetic."""

    @staticmethod
    def _assert_close(got, expected):
        assert got.dtype == np.complex128 and got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("links", [(1,), (1, 2), (1, 2, 4)],
                             ids=["site", "bond", "no-axis"])
    def test_k_rows_match_the_complex_product(self, links):
        data = echo._BranchData(_spec(N=6, lam=0.8, links=links))
        dt = 0.3
        train = echo._PulseTrain(data, dt)
        k = data.k.astype(complex)

        def check():
            for x in (0.0, 0.11, dt):
                rows = np.exp(1j * data.e_down * x)[:, None] * train.rows
                self._assert_close(train._k_rows(x), k @ rows)

        assert train.rows.flags.c_contiguous
        check()
        train.advance(11)  # three set bits: three jumps up the ladder
        check()
        cycle = k.T @ (np.exp(1j * data.e_up * dt)[:, None] * k)
        self._assert_close(train.powers[0], echo._unitarized(
            cycle * np.exp(1j * data.e_down * dt)))
        train.rows = np.asfortranarray(train.rows)
        assert not train.rows.flags.c_contiguous
        check()


def _pair_reference(spec, dt, ts):
    """log L of a spin star from explicit 2x2 pair matrices, per mode the
    branch strings of oracle.amplitude_pulsed, with the cycle power taken
    by binary powering (np.linalg.matrix_power)."""
    q = (2 * np.arange(spec.N // 2) + 1) * np.pi / spec.N
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])

    def h(lam):
        return 2 * spec.J * ((lam - np.cos(q))[:, None, None] * sz
                             + np.sin(q)[:, None, None] * sy)

    def u(e_v, t):
        e, v = e_v
        return (v * np.exp(-1j * e * t)[:, None, :]) @ v.conj().transpose(0, 2, 1)

    up = np.linalg.eigh(h(spec.lam))
    down = np.linalg.eigh(h(spec.lam + spec.epsilon / spec.J))
    g = up[1][:, :, 0]
    out = []
    for t in ts:
        m = int(np.floor(t / (2 * dt) + 1e-12))
        t_res = t - 2 * m * dt
        a = np.linalg.matrix_power(u(down, dt) @ u(up, dt), m)
        b = np.linalg.matrix_power(u(up, dt) @ u(down, dt), m)
        if t_res < dt:
            a, b = u(up, t_res) @ a, u(down, t_res) @ b
        else:
            s = t_res - dt
            a, b = u(down, s) @ u(up, dt) @ a, u(up, s) @ u(down, dt) @ b
        amp = np.einsum("qi,qij,qj->q", g.conj(), a.conj().transpose(0, 2, 1) @ b, g)
        out.append(float(np.sum(np.log(np.abs(amp) ** 2))))
    return np.array(out)


class TestMomentumRoute:
    """The spin-star momentum route against the determinant route and 2x2 pairs."""

    @pytest.mark.parametrize("n", [8, 100, 300])
    def test_matches_determinant_route(self, n):
        # a 1/12 grid step puts points in both residual branches at every dt
        grid = TimeGrid(t_max=1.5, n_points=19)
        ts = grid.times()
        for lam in (0.5, 1.0, 1.5):
            spec = ChainSpec.spin_star(N=n, lam=lam, epsilon=0.25)
            assert echo.route(spec) == "momentum"
            data = echo._BranchData(spec)
            pairs = [(loschmidt_free(spec, grid), data.log_echo(ts))]
            for dt in (0.05, 0.3, 1.0):
                t_res = ts - 2 * dt * np.floor(ts / (2 * dt) + 1e-12)
                assert np.any(t_res < dt) and np.any(t_res >= dt)
                pairs.append((loschmidt_pulsed(spec, PulseSchedule(delta_t=dt), grid),
                              data.log_echo(ts, dt)))
            for series, log_dets in pairs:
                det = echo._series(ts, log_dets, series.points[0].kind)
                assert np.max(np.abs(series.log_le - det.log_le)) <= 1e-10
                assert np.max(np.abs(series.le - det.le)) <= 1e-10

    def test_determinant_route_still_matches_oracle(self):
        # the kernel the spin star no longer takes stays exact on it
        spec = ChainSpec.spin_star(N=6, lam=0.7, epsilon=0.25, J=1.3)
        ts = np.linspace(0.0, 10.0, 101)
        data = echo._BranchData(spec)
        free = np.exp(data.log_echo(ts))
        assert np.max(np.abs(free - np.abs(oracle.amplitude_free(spec, ts)) ** 2)) <= 1e-8
        schedule = PulseSchedule(delta_t=0.7)
        pulsed = np.exp(data.log_echo(ts, schedule.delta_t))
        expected = np.abs(oracle.amplitude_pulsed(spec, schedule, ts)) ** 2
        assert np.max(np.abs(pulsed - expected)) <= 1e-8

    @pytest.mark.parametrize("n", [100, 300])
    def test_determinant_route_matches_over_long_train(self, n):
        # up to 1500 cycles at dt = 0.01: the determinant route, forced
        # through _BranchData, against the exact momentum route, where
        # |log L| is only about 1e-6; the same set-up gives the free series
        spec = ChainSpec.spin_star(N=n, lam=1.0, epsilon=0.01)
        dt, ts = 0.01, np.linspace(20.0, 30.0, 11)
        data = echo._BranchData(spec)
        for delta_t in (dt, None):
            det = data.log_echo(ts, delta_t)
            assert np.max(np.abs(spinstar.log_echo(spec, ts, delta_t) - det)) <= 1e-12

    def test_route_is_picked_from_the_spec(self, monkeypatch):
        built = []
        real = echo._BranchData

        def recording(spec):
            built.append(spec)
            return real(spec)

        def refuse(spec):
            raise AssertionError(f"_BranchData built for {spec}")

        grid, schedule = TimeGrid(t_max=2.0, n_points=5), PulseSchedule(delta_t=0.3)
        star = ChainSpec.spin_star(N=6, lam=0.5, epsilon=0.25)
        monkeypatch.setattr(echo, "_BranchData", refuse)
        loschmidt_free(star, grid)
        loschmidt_pulsed(star, schedule, grid)
        list(echo.family(star, [0.5, 1.5], [0.3], grid.times()))
        sweep(star, lambdas=[1.0], delta_ts=[0.3], t_star=1.0, half_width=0.5,
              window_points=5)

        monkeypatch.setattr(echo, "_BranchData", recording)
        spec = _spec(N=6, lam=0.5)
        assert echo.route(spec) == "determinant"
        loschmidt_free(spec, grid)
        loschmidt_pulsed(spec, schedule, grid)
        assert built == [spec, spec]
        odd = ChainSpec.spin_star(N=5, lam=0.5, epsilon=0.25)
        assert echo.route(odd) == "determinant"
        built.clear()
        with pytest.raises(SpecError, match="even N"):
            loschmidt_free(odd, grid)
        assert built == [odd]

    def test_long_train_power_matches_binary_powering(self):
        # about 10^4 cycles at dt = 0.05; points in both residual branches
        spec = ChainSpec.spin_star(N=100, lam=1.0, epsilon=0.25)
        dt = 0.05
        ts = np.array([0.0, 999.93, 999.97, 1000.02, 1000.08])
        (_, _, _), (_, _, series) = echo.family(spec, [spec.lam], [dt], ts)
        expected = _pair_reference(spec, dt, ts)
        assert np.max(np.abs(series.log_le[1:] - expected[1:])) <= 1e-10

    def test_one_set_up_per_field(self, monkeypatch):
        # the free series and all three pulsed series of a field share it
        fields = []
        real = spinstar._pair_fields

        def recording(spec):
            fields.append(spec.lam)
            return real(spec)

        monkeypatch.setattr(spinstar, "_pair_fields", recording)
        star = ChainSpec.spin_star(N=8, lam=0.5, epsilon=0.25)
        list(echo.family(star, [0.5, 1.5], [0.2, 0.3, 0.5], np.linspace(0.0, 2.0, 5)))
        assert fields == [0.5, 1.5]

    def test_unchanged_field_is_not_revalidated(self, monkeypatch):
        star = ChainSpec.spin_star(N=8, lam=0.5, epsilon=0.25)
        validated = []
        real = ChainSpec.__post_init__

        def recording(spec):
            validated.append(spec.lam)
            real(spec)

        monkeypatch.setattr(ChainSpec, "__post_init__", recording)
        sweep(star, [star.lam], [0.3], t_star=1.0, half_width=0.5, window_points=5)
        assert validated == []
        # another field is a new spec, validated once, with the same echo
        # as a spec built at that field
        other = sweep(star, [1.5], [0.3], t_star=1.0, half_width=0.5, window_points=5)
        assert validated == [1.5]
        monkeypatch.undo()
        assert other == sweep(ChainSpec.spin_star(N=8, lam=1.5, epsilon=0.25), [1.5],
                              [0.3], t_star=1.0, half_width=0.5, window_points=5)

    @pytest.mark.parametrize("dt", [None, 0.3])
    def test_scalar_time_is_one_point(self, dt):
        spec = ChainSpec.spin_star(N=8, lam=0.5, epsilon=0.25)
        one = spinstar.log_echo(spec, 1.0, dt)
        assert one.shape == (1,)
        assert np.array_equal(one, spinstar.log_echo(spec, [1.0], dt))

    def test_refuses_other_specs(self):
        with pytest.raises(SpecError, match="spin-star"):
            spinstar.log_echo(_spec(N=6), [1.0])
        with pytest.raises(SpecError, match="even"):
            spinstar.log_echo(ChainSpec.spin_star(N=5, lam=1.0, epsilon=0.1), [1.0])


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

    @pytest.mark.parametrize("spec", [
        _spec(N=7, lam=1.3, epsilon=0.4, links=(2, 5)),
        ChainSpec.spin_star(N=6, lam=0.7, epsilon=0.2, J=1.3),
    ], ids=["two-links", "star"])
    def test_is_the_commutator(self, spec):
        # the elementwise form against the matrix products it replaces,
        # sign included
        schedule = PulseSchedule(delta_t=0.3)
        cu = freefermion.build_bdg(spec, "up").C
        cd = freefermion.build_bdg(spec, "down").C
        expected = 1j * 0.15 * (cd @ cu - cu @ cd)
        gen = effective_bdg(spec, schedule)
        assert np.max(np.abs(gen.C - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_field_drops_out_exactly(self):
        # the field sits on the diagonal of C_up, which the commutator
        # with the diagonal C_down - C_up multiplies by exactly zero
        schedule = PulseSchedule(delta_t=0.2)
        low = effective_bdg(_spec(N=7, lam=0.5, epsilon=0.3, links=(2, 5)), schedule)
        high = effective_bdg(_spec(N=7, lam=1.5, epsilon=0.3, links=(2, 5)), schedule)
        assert np.array_equal(low.C, high.C)

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

    def test_builds_one_branch_set_up(self, monkeypatch):
        # the route's one set-up serves the effective echo too; the 2N
        # reference generator is not built
        built = []
        real = echo._BranchData

        def counting(spec):
            built.append(spec)
            return real(spec)

        def refuse(*args):
            raise AssertionError("effective_bdg called on the effective route")

        monkeypatch.setattr(echo, "_BranchData", counting)
        monkeypatch.setattr(echo, "effective_bdg", refuse)
        spec = _spec(N=6)
        loschmidt_effective(spec, PulseSchedule(delta_t=0.3),
                            TimeGrid(t_max=3.0, mode="cycles"))
        assert built == [spec]

    def test_odd_n_refused_before_any_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a branch built for odd N")

        monkeypatch.setattr(freefermion, "build_bdg", refuse)
        monkeypatch.setattr(freefermion, "ring_modes", refuse)
        with pytest.raises(SpecError, match="even N"):
            loschmidt_effective(_spec(N=5), PulseSchedule(delta_t=0.3),
                                TimeGrid(t_max=2.0, mode="cycles"))

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
        ts = np.linspace(0, 10, 21)
        return EchoSeries(times=ts, le=np.full(ts.size, value),
                          log_le=np.full(ts.size, np.log(value)), kind="free")

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

    @pytest.mark.parametrize("c", [1.0, 1e6])
    def test_overshoot_refused_in_any_time_unit(self, c):
        # the window passes the grid's end by 5e-5 of its span; in units
        # of 1/c that is 5e-10, which an absolute slack of 1e-9 let pass
        ts = np.linspace(0, 10, 21) / c
        series = EchoSeries(times=ts, le=np.ones(21), log_le=np.zeros(21), kind="free")
        assert time_average(series, 9.0 / c, 1.0 / c) == 1.0
        with pytest.raises(SpecError, match="span"):
            time_average(series, 9.0 / c, 1.0005 / c)

    def test_negative_half_width_rejected(self):
        with pytest.raises(SpecError, match="half_width must be nonnegative"):
            time_average(self._constant_series(), 5.0, -1.0)


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

    def test_threads_other_than_one_rejected(self):
        kwargs = dict(lambdas=[0.8], delta_ts=[0.25], t_star=4.0, half_width=1.0,
                      window_points=21)
        assert sweep(_spec(N=6), threads=1, **kwargs) == sweep(_spec(N=6), **kwargs)
        with pytest.raises(SpecError, match="threads=2"):
            sweep(_spec(N=6), threads=2, **kwargs)

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError, match="axes"):
            sweep(_spec(), lambdas=[], delta_ts=[0.1], t_star=1.0, half_width=0.5)

    @pytest.mark.parametrize("t_star, half_width, message", [
        (2.0, 0.0, "positive averaging half-width"),
        (2.0, -1.0, "positive averaging half-width"),
        (0.5, 1.0, "below t = 0"),
    ], ids=["zero-width", "negative-width", "below-zero"])
    def test_window_refused(self, t_star, half_width, message):
        with pytest.raises(SpecError, match=message):
            sweep(_spec(), lambdas=[1.0], delta_ts=[0.4], t_star=t_star,
                  half_width=half_width)

    def test_window_keeps_every_point_in_any_time_unit(self):
        # at Jt* = 25 in units of 1/J with J = 3e-7, t is about 1e8, and the
        # rounding of the window's times passed an absolute slack of 1e-12:
        # two of the 101 points fell out of the average
        c = 3e-7
        spec = ChainSpec(N=8, lam=1.0, epsilon=0.25 * c, links=(1,), J=c)
        row, = sweep(spec, lambdas=[1.0], delta_ts=[0.3 / c], t_star=25 / c,
                     half_width=5 / c)
        window = np.linspace(25 / c - 5 / c, 25 / c + 5 / c, 101)
        series = [s for _, _, s in echo.family(spec, [1.0], [0.3 / c], window)]
        assert row.le_free == np.mean(series[0].le)
        assert row.le_pulsed == np.mean(series[1].le)
        unit, = sweep(_spec(N=8), lambdas=[1.0], delta_ts=[0.3], t_star=25.0,
                      half_width=5.0)
        assert row.le_pulsed == pytest.approx(unit.le_pulsed, abs=1e-12)

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
