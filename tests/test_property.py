"""Property test: the determinant echo against the 2^N oracle on drawn specs.

Odd N is left out: the determinant route is not exact there yet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bbecho.echo import loschmidt_free, loschmidt_pulsed
from bbecho.model import ChainSpec, PulseSchedule, TimeGrid
from bbecho.oracle import amplitude_free, amplitude_pulsed


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([2, 4, 6, 8]))
    links = draw(st.sets(st.integers(1, n), min_size=1))
    spec = ChainSpec(N=n, lam=draw(st.floats(0.2, 2.0)),
                     epsilon=draw(st.floats(-0.5, 0.5)), links=tuple(links),
                     J=draw(st.floats(0.5, 2.0)))
    schedule = PulseSchedule(delta_t=draw(st.floats(0.05, 1.5)))
    return spec, schedule


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_cases())
def test_determinant_echo_matches_oracle(case):
    spec, schedule = case
    grid = TimeGrid(t_max=5.0, n_points=11)
    ts = grid.times()
    free = np.abs(amplitude_free(spec, ts)) ** 2
    pulsed = np.abs(amplitude_pulsed(spec, schedule, ts)) ** 2
    assert np.max(np.abs(loschmidt_free(spec, grid).le - free)) <= 1e-8
    assert np.max(np.abs(loschmidt_pulsed(spec, schedule, grid).le - pulsed)) <= 1e-8
