"""Energies are in units of J and times in units of 1/J, so no echo and no
refusal may depend on J.

A scale c = 2^k with k even multiplies J and epsilon and divides the
times exactly, and every product, sum and square root on the way scales
exactly with it: so on every route the echo at (cJ, lam, c eps, t/c,
dt/c) is the c = 1 echo to the last bit, and the degeneracy rule,
measured against each spectrum's own scale, refuses the same specs.
"""

import numpy as np
import pytest

from bbecho import echo, freefermion, oracle
from bbecho.model import ChainSpec, PulseSchedule, TimeGrid

SCALES = [2.0 ** k for k in (-44, -20, 10, 20)]

# (N, lam, epsilon, links) at J = 1. At small lam the two lowest many-body
# levels lie within rounding of each other, which the oracle refuses.
SPECS = {
    "critical-one-link": (8, 1.0, 0.25, (1,)),
    "no-reflection-axis": (6, 1.0, 0.3, (1, 2, 4)),
    "small-lam": (8, 1e-3, 3.0, (1,)),
    "near-degenerate": (6, 0.02, 0.5, (1, 2)),
    "zero-field": (4, 0.0, 0.5, (1,)),
    "spin-star": (6, 0.5, 0.3, (1, 2, 3, 4, 5, 6)),
    "spin-star-small-lam": (4, 1e-3, 0.3, (1, 2, 3, 4)),
}


def _outcomes(n, lam, epsilon, links, c):
    """Each route's echo at scale c, or the class of its refusal."""
    spec = ChainSpec(N=n, lam=lam, epsilon=c * epsilon, links=links, J=c)
    grid, schedule = TimeGrid(5.0 / c, 11), PulseSchedule(0.25 / c)
    ts = grid.times()
    routes = {
        # the momentum route for the spin stars, the determinant otherwise
        "free": lambda: echo.loschmidt_free(spec, grid).log_le,
        "pulsed": lambda: echo.loschmidt_pulsed(spec, schedule, grid).log_le,
        "effective": lambda: echo.loschmidt_effective(
            spec, schedule, TimeGrid(5.0 / c, mode="cycles")).log_le,
        "oracle-free": lambda: np.abs(oracle.amplitude_free(spec, ts)) ** 2,
        "oracle-pulsed": lambda: np.abs(oracle.amplitude_pulsed(spec, schedule, ts)) ** 2,
        # the other fermion sector has a zero mode at lam = 1, which both
        # single-particle guards refuse
        "other-sector": lambda: echo._BranchData(spec, +1).log_echo(ts),
        "ground-correlation": lambda: freefermion.ground_correlation(
            freefermion.diagonalize(freefermion.build_bdg(spec, "up", +1))).r,
    }
    out = {}
    for name, run in routes.items():
        try:
            out[name] = np.asarray(run())
        except (freefermion.DegenerateFillingError,
                oracle.DegenerateGroundStateError) as exc:
            out[name] = type(exc)
    return out


@pytest.mark.parametrize("case", SPECS.values(), ids=SPECS.keys())
def test_echo_and_refusals_do_not_depend_on_the_unit(case):
    reference = _outcomes(*case, 1.0)
    for c in SCALES:
        for name, got in _outcomes(*case, c).items():
            want = reference[name]
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, f"c = {c}, {name}"
            else:
                np.testing.assert_array_equal(got, want, err_msg=f"c = {c}, {name}")


def test_the_cases_reach_every_guard():
    outcomes = [_outcomes(*case, 1.0) for case in SPECS.values()]
    refusals = {(name, out[name]) for out in outcomes for name in out
                if isinstance(out[name], type)}
    assert ("oracle-free", oracle.DegenerateGroundStateError) in refusals
    assert ("other-sector", freefermion.DegenerateFillingError) in refusals
    assert ("ground-correlation", freefermion.DegenerateFillingError) in refusals
    assert all(not isinstance(out["free"], type) for out in outcomes)
