import numpy as np
import pytest

from bbecho.model import (ChainSpec, PulseSchedule, QubitSpec, SpecError,
                          TimeGrid, shifted_field, validate)


class TestChainSpec:
    def test_single_link_chain_is_valid(self):
        spec = ChainSpec(N=100, J=1.0, lam=1.0, epsilon=0.25, links=(1,))
        assert spec.N == 100 and spec.links == (1,)
        assert not spec.is_spin_star

    def test_spin_star_is_valid(self):
        spec = ChainSpec(N=300, lam=1.0, epsilon=0.01,
                         links=tuple(range(1, 301)))
        assert spec.is_spin_star and spec.m == 300

    def test_link_out_of_range(self):
        with pytest.raises(SpecError, match="outside"):
            ChainSpec(N=4, lam=1.0, epsilon=0.1, links=(5,))

    def test_links_sorted_and_deduplicated(self):
        spec = ChainSpec(N=6, lam=1.0, epsilon=0.1, links=[3, 1, 3, 2])
        assert spec.links == (1, 2, 3)

    def test_empty_links(self):
        with pytest.raises(SpecError, match="non-empty"):
            ChainSpec(N=6, lam=1.0, epsilon=0.1, links=())

    @pytest.mark.parametrize("kwargs", [
        dict(N=1, lam=1.0, epsilon=0.1, links=(1,)),
        dict(N=6, lam=-0.5, epsilon=0.1, links=(1,)),
        dict(N=6, lam=1.0, epsilon=0.1, links=(1,), J=0.0),
        dict(N=6, lam=1.0, epsilon=0.1, links=(1,), J=-1.0),
        dict(N=6, lam=float("nan"), epsilon=0.1, links=(1,)),
        dict(N=6.5, lam=1.0, epsilon=0.1, links=(1,)),
        dict(N=6, lam=1.0, epsilon=0.1, links=1),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(SpecError):
            ChainSpec(**kwargs)

    def test_validate_is_idempotent(self):
        spec = ChainSpec(N=8, lam=0.5, epsilon=0.25, links=[4, 2])
        assert validate(spec) == spec
        assert validate(validate(spec)) == validate(spec)

    def test_spin_star_constructor(self):
        assert ChainSpec.spin_star(4, 1.0, 0.1).links == (1, 2, 3, 4)

    def test_fermion_sector_is_not_a_field(self):
        # the sector is fixed by calibration; freefermion.build_bdg takes it
        with pytest.raises(TypeError):
            ChainSpec(N=6, lam=1.0, epsilon=0.1, links=(1,), boundary_sign=1)
        with pytest.raises(TypeError):
            ChainSpec.spin_star(N=6, lam=1.0, epsilon=0.1, boundary_sign=1)


class TestShiftedField:
    def test_critical_with_small_coupling(self):
        spec = ChainSpec.spin_star(N=300, lam=1.0, epsilon=0.01)
        assert shifted_field(spec) == pytest.approx(1.01, abs=1e-15)

    def test_zero_coupling_is_exact(self):
        spec = ChainSpec.spin_star(N=10, lam=0.5, epsilon=0.0)
        assert shifted_field(spec) == 0.5

    def test_arithmetic(self):
        spec = ChainSpec.spin_star(N=8, lam=1.5, epsilon=0.25, J=1.0)
        assert shifted_field(spec) == pytest.approx(1.75, abs=1e-15)

    def test_rejects_non_spin_star(self):
        spec = ChainSpec(N=8, lam=1.0, epsilon=0.25, links=(1,))
        with pytest.raises(SpecError, match="spin-star"):
            shifted_field(spec)


class TestQubitSpec:
    def test_normalized_superposition(self):
        a = 1.0 / np.sqrt(2.0)
        q = QubitSpec(omega0=1.0, c_up=a, c_down=a)
        assert abs(q.c_up) ** 2 + abs(q.c_down) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_complex_amplitudes(self):
        QubitSpec(omega0=0.0, c_up=0.6, c_down=0.8j)

    def test_rejects_unnormalized(self):
        with pytest.raises(SpecError, match="must be 1"):
            QubitSpec(omega0=1.0, c_up=1.0, c_down=0.5)


class TestPulseSchedule:
    def test_positive_interval(self):
        assert PulseSchedule(delta_t=0.25).delta_t == 0.25

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("inf")])
    def test_rejects_bad_interval(self, dt):
        with pytest.raises(SpecError):
            PulseSchedule(delta_t=dt)

    def test_cycles_count_whole_cycles(self):
        # t = 0.6 ends a cycle only up to rounding: 0.6 / 0.2 = 2.9999999999999996
        m = PulseSchedule(delta_t=0.1).cycles([[0.0, 0.19], [0.6, 0.61]])
        np.testing.assert_array_equal(m, [[0.0, 0.0], [3.0, 3.0]])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cycle_count_refused(self):
        with pytest.raises(SpecError, match=r"delta_t = 1e-320 .* at t = 0\.5 overflows"):
            PulseSchedule(delta_t=1e-320).cycles([0.0, 0.5, 1.0])


class TestTimeGrid:
    def test_uniform_starts_at_zero_strictly_increasing(self):
        ts = TimeGrid(t_max=5.0, n_points=11).times()
        assert ts[0] == 0.0
        assert np.all(np.diff(ts) > 0)
        assert ts[-1] == 5.0

    def test_cycle_aligned_times(self):
        grid = TimeGrid(t_max=2.0, mode="cycles")
        ts = grid.times(PulseSchedule(delta_t=0.25))
        np.testing.assert_allclose(ts, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cycle_grid_refused(self):
        with pytest.raises(SpecError, match=r"delta_t = 1e-320 .* at t = 1\.0 overflows"):
            TimeGrid(t_max=1.0, mode="cycles").times(PulseSchedule(delta_t=1e-320))

    def test_cycle_mode_needs_schedule(self):
        with pytest.raises(SpecError, match="schedule"):
            TimeGrid(t_max=2.0, mode="cycles").times()

    @pytest.mark.parametrize("kwargs", [
        dict(t_max=0.0, n_points=5),
        dict(t_max=1.0, n_points=1),
        dict(t_max=1.0),
        dict(t_max=1.0, n_points=5, mode="log"),
        dict(t_max=1.0, n_points=7, mode="cycles"),
    ])
    def test_invalid_grids(self, kwargs):
        with pytest.raises(SpecError):
            TimeGrid(**kwargs)
