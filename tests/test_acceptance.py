"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints a summary line (visible with -s).

The spin-star closed-form criterion (test_07) checks what the product
prod_k cos(8 t eps_eff Delta_k) promises and no more. The product is the
leading term of the first-order average-Hamiltonian expansion of the
pulsed echo with the mean branch generator (h_up + h_down) / 2 dropped.
That mean generator rotates every momentum mode and averages the
residual tilt away, so the pulsed echo stays within 3e-4 of 1 while
the product keeps decaying. The test therefore asserts three things over
the cycle-aligned window Jt <= 10 at N = 300: the pulsed echo does not
depend on the field, the product gives the decay at the first cycle
point up to a derived second-order factor, and the product never
decays less than the pulsed echo.
"""

import itertools
import math

import numpy as np
import pytest

from bbecho import echo, oracle
from bbecho.echo import (loschmidt_effective, loschmidt_free, loschmidt_pulsed,
                         sweep, time_average)
from bbecho.freefermion import build_bdg, diagonalize, ground_correlation, propagator
from bbecho.model import ChainSpec, PulseSchedule, SpecError, TimeGrid
from bbecho.spinstar import amplitude_closed_form, effective_coupling, gamma_coefficient


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _small_n_specs():
    for n, lam in itertools.product((4, 6, 8), (0.5, 1.0, 1.5)):
        for links in ((1,), tuple(range(1, n + 1))):
            yield ChainSpec(N=n, lam=lam, epsilon=0.25, links=links)


def test_01_oracle_equivalence_free():
    grid = TimeGrid(t_max=10.0, n_points=101)
    worst = 0.0
    for spec in _small_n_specs():
        le = loschmidt_free(spec, grid).le
        le_oracle = np.abs(oracle.amplitude_free(spec, grid.times())) ** 2
        worst = max(worst, float(np.max(np.abs(le - le_oracle))))
    assert worst <= 1e-8
    _report("1 oracle equivalence (free)", f"max |diff| = {worst:.2e}")


def test_02_oracle_equivalence_pulsed():
    grid = TimeGrid(t_max=10.0, n_points=101)
    worst = 0.0
    for spec in _small_n_specs():
        for dt in (0.25, 0.5):
            schedule = PulseSchedule(delta_t=dt)
            le = loschmidt_pulsed(spec, schedule, grid).le
            le_oracle = np.abs(
                oracle.amplitude_pulsed(spec, schedule, grid.times())) ** 2
            worst = max(worst, float(np.max(np.abs(le - le_oracle))))
    assert worst <= 1e-8
    _report("2 oracle equivalence (pulsed)", f"max |diff| = {worst:.2e}")


def test_03_convention_calibration_unique():
    # calibrate_conventions raises on no match or several matches, so a
    # normal return is already the uniqueness claim
    result = oracle.calibrate_conventions(oracle.default_calibration_specs())
    assert (result.boundary_sign, result.det_exponent) == (-1, 1)
    assert result.max_residual <= 1e-8
    _report("3 convention calibration",
            f"unique pair (bs={result.boundary_sign:+d}, p={result.det_exponent}), "
            f"residual {result.max_residual:.2e}")


def test_04_critical_decay_location():
    spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
    grid = TimeGrid(t_max=50.0, n_points=501)
    series = loschmidt_free(spec, grid)
    t_min = float(series.times[np.argmin(series.le)])
    assert 23.0 <= t_min <= 27.0
    _report("4 critical decay location", f"argmin at Jt = {t_min}")


def test_05_decoupling_threshold():
    spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
    grid = TimeGrid(t_max=30.0, n_points=301)
    free_avg = time_average(loschmidt_free(spec, grid), 25.0, 5.0)

    def pulsed_avg(dt: float) -> float:
        series = loschmidt_pulsed(spec, PulseSchedule(delta_t=dt), grid)
        return time_average(series, 25.0, 5.0)

    assert pulsed_avg(0.25) > free_avg
    assert pulsed_avg(1.0) < free_avg

    lo, hi = 0.1, 1.0
    assert pulsed_avg(lo) > free_avg
    while hi - lo > 0.02:
        mid = 0.5 * (lo + hi)
        if pulsed_avg(mid) > free_avg:
            lo = mid
        else:
            hi = mid
    assert 0.30 <= lo and hi <= 0.45
    _report("5 decoupling threshold", f"crossing bracketed in [{lo:.4f}, {hi:.4f}]")


def test_06_rescaled_echo_cusp():
    spec = ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,))
    lambdas = [0.9, 0.95, 1.0, 1.05, 1.1]
    rows = sweep(spec, lambdas=lambdas, delta_ts=[0.2], t_star=25.0, half_width=5.0)
    ratios = [row.ratio for row in rows]
    assert lambdas[int(np.argmax(ratios))] == 1.0
    _report("6 rescaled echo cusp",
            "ratio profile " + ", ".join(f"{r:.4f}" for r in ratios))


def test_07_spinstar_closed_form():
    schedule = PulseSchedule(delta_t=0.1)
    grid = TimeGrid(t_max=10.0, mode="cycles")
    ts = grid.times(schedule)
    epsilon, J = 0.01, 1.0
    eps_eff = effective_coupling(epsilon, J, schedule.delta_t).eps_eff
    closed = np.array([amplitude_closed_form(300, eps_eff, t) ** 2 for t in ts])

    series = {}
    for lam in (0.5, 1.0, 1.5):
        spec = ChainSpec.spin_star(N=300, lam=lam, epsilon=epsilon, J=J)
        series[lam] = loschmidt_pulsed(spec, schedule, grid).le

    pair_worst = 0.0
    for a, b in itertools.combinations(series, 2):
        rel = np.max(np.abs(series[a][1:] - series[b][1:]) / series[b][1:])
        pair_worst = max(pair_worst, float(rel))
    assert pair_worst <= 1e-3  # field insensitivity in the fast-pulsing regime

    # (a) Short-time decay. To second order in epsilon, mode q of the
    # pulsed echo decays as the product's mode times
    # sinc^2(w_q t/2) [tan(w_q dt/2) / (w_q dt/2)]^2, where w_q is the
    # gap of the mean generator (h_up + h_down) / 2. At the first cycle
    # point t = 2 dt this factor is sinc^4(w_q t/4), which lies in
    # [sinc^4(Omega t/4), 1] for every gap w_q <= Omega. The decay ratio
    # is a positively weighted mean of these factors.
    t1 = ts[1]
    ratios = {}
    for lam, le in series.items():
        ratio = (1.0 - le[1]) / (1.0 - closed[1])
        omega = 4.0 * J * (1.0 + lam + epsilon / (2.0 * J))
        x = omega * t1 / 4.0
        lower = (math.sin(x) / x) ** 4
        assert lower <= ratio <= 1.0, (
            f"lambda={lam}: decay ratio (1 - L)/(1 - A^2) = {ratio:.4f} at "
            f"Jt = {t1} is outside the second-order range [{lower:.4f}, 1]")
        ratios[lam] = ratio

    # (b) The product bounds the decay from above at every cycle point.
    for lam, le in series.items():
        gap = float(np.min(le - closed))
        assert gap >= -1e-12, (
            f"lambda={lam}: pulsed echo falls below the closed-form product "
            f"by {-gap:.3e} on cycle-aligned Jt <= 10")

    _report("7 spin-star closed form",
            f"pairwise {pair_worst:.2e}; decay ratio at Jt = {t1}: "
            + ", ".join(f"{ratios[lam]:.3f} (lambda={lam})" for lam in series)
            + f"; 1 - L at Jt = {ts[-1]}: "
            + ", ".join(f"{1.0 - le[-1]:.2e}" for le in series.values())
            + f" vs 1 - A^2 = {1.0 - closed[-1]:.3f}")


def test_08_gamma_identity():
    for n in range(4, 401, 2):
        gamma = gamma_coefficient(n)
        assert abs(gamma - 16.0 * n) <= 1e-9 * 16.0 * n
    assert gamma_coefficient(300) == pytest.approx(4800.0, rel=1e-12)
    _report("8 gamma identity", "gamma(N) = 16N for even N in [4, 400]")


def test_09_effective_theory_convergence():
    spec = ChainSpec(N=6, lam=1.0, epsilon=0.25, links=(1,))
    gaps = []
    for dt in (0.4, 0.2, 0.1, 0.05):
        schedule = PulseSchedule(delta_t=dt)
        # horizon Jt = 5: compare at the last cycle-aligned time <= 5
        grid = TimeGrid(t_max=5.0, mode="cycles")
        pulsed = loschmidt_pulsed(spec, schedule, grid).points[-1]
        effective = loschmidt_effective(spec, schedule, grid).points[-1]
        assert pulsed.t == effective.t
        gaps.append(abs(pulsed.le - effective.le))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    _report("9 effective-theory convergence",
            "gaps " + ", ".join(f"{g:.3e}" for g in gaps))


def test_10_invariant_fuzzer():
    rng = np.random.default_rng(20260808)
    n_specs = 120
    for i in range(n_specs):
        n = int(rng.integers(2, 11))
        lam = float(rng.uniform(0.0, 2.0))
        epsilon = 0.0 if i % 10 == 0 else float(rng.uniform(-0.5, 0.5))
        links = tuple(int(j) for j in
                      rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                                 replace=False))
        j_coupling = 1.0 if i % 3 else float(rng.uniform(0.5, 2.0))
        spec = ChainSpec(N=n, lam=lam, epsilon=epsilon, links=links, J=j_coupling)

        up = diagonalize(build_bdg(spec, "up"))
        down = diagonalize(build_bdg(spec, "down"))
        for d, branch in ((up, "up"), (down, "down")):
            c = build_bdg(spec, branch).C
            np.testing.assert_array_equal(c, c.T)
            np.testing.assert_allclose(d.eigenvalues, -d.eigenvalues[::-1],
                                       atol=1e-10)
        r = ground_correlation(up).r
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12
        assert np.max(np.abs(r @ r - r)) <= 1e-10
        assert abs(np.trace(r) - n) <= 1e-10

        t_rand = float(rng.uniform(0.0, 10.0))
        u = propagator(down, t_rand, +1).U
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * n))) <= 1e-10

        dt = float(rng.uniform(0.05, 1.5))
        schedule = PulseSchedule(delta_t=dt)
        grid = TimeGrid(t_max=5.0, n_points=6)
        if n % 2:
            # odd N is refused by every determinant route
            for route in (lambda: loschmidt_free(spec, grid),
                          lambda: loschmidt_pulsed(spec, schedule, grid),
                          lambda: echo._BranchData(spec)):
                with pytest.raises(SpecError, match="even N"):
                    route()
        else:
            for series in (loschmidt_free(spec, grid),
                           loschmidt_pulsed(spec, schedule, grid)):
                assert series.points[0].le == 1.0
                assert np.all(series.le >= 0.0)
                assert np.all(series.le <= 1.0 + 1e-9)

            data = echo._BranchData(spec)
            train = echo._PulseTrain(data, dt)
            le1 = np.exp(train.log_det(dt, 1))
            le2 = np.exp(train.log_det(dt, 2))
            assert abs(le1 - le2) <= 1e-9

        from dataclasses import replace
        gen_low = echo.effective_bdg(replace(spec, lam=0.5), schedule)
        gen_high = echo.effective_bdg(replace(spec, lam=1.5), schedule)
        assert np.max(np.abs(gen_low.C - gen_high.C)) <= 1e-10
    _report("10 invariant fuzzer", f"{n_specs} random specs, N <= 10")
