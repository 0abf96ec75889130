import itertools

import numpy as np
import pytest

from bbecho import oracle
from bbecho.conventions import BOUNDARY_SIGN
from bbecho.freefermion import (GAP_RTOL, BdGMatrix, DegenerateFillingError,
                                build_bdg, diagonalize, filled_count, gaussian_overlap,
                                ground_correlation, ground_energy, propagator)
from bbecho.model import ChainSpec, SpecError


def _spec(N=6, lam=1.0, epsilon=0.25, links=(1,), **kw):
    return ChainSpec(N=N, lam=lam, epsilon=epsilon, links=links, **kw)


def _bdg_by_bonds(spec, branch, boundary_sign):
    """A and B bond by bond: the reference for build_bdg's index form."""
    N, J = spec.N, spec.J
    eps_site = np.zeros(N)
    if branch == "down":
        for j in spec.links:
            eps_site[j - 1] = spec.epsilon
    A = np.zeros((N, N))
    B = np.zeros((N, N))
    A[np.arange(N), np.arange(N)] = -2.0 * (J * spec.lam + eps_site)
    for j in range(N - 1):
        A[j, j + 1] += -J
        A[j + 1, j] += -J
        B[j, j + 1] += -J
        B[j + 1, j] += +J
    bs = float(boundary_sign)
    A[N - 1, 0] += bs * (-J)
    A[0, N - 1] += bs * (-J)
    B[N - 1, 0] += bs * (-J)
    B[0, N - 1] += bs * (+J)
    return A, B


class TestBuildBdg:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_same_bits_as_the_bond_loop(self, n):
        # signed zeros too: a zero field gives -0.0 on the diagonal, and
        # every entry off the bonds stays +0.0; at N = 2 the boundary bond
        # doubles the bulk one
        for spec in (_spec(N=n, lam=0.0, epsilon=0.0),
                     _spec(N=n, lam=0.7, epsilon=-0.3, links=(1, n), J=1.7)):
            for branch, sign in itertools.product(("up", "down"), (-1, 1)):
                m = build_bdg(spec, branch, boundary_sign=sign)
                for got, want in zip((m.A, m.B), _bdg_by_bonds(spec, branch, sign)):
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                np.testing.assert_array_equal(m.C, np.block([[m.A, m.B], [-m.B, -m.A]]))

    def test_up_branch_diagonal(self):
        # eps_j vanishes on the unperturbed branch: every diagonal is -2*lam*J
        spec = _spec(N=8, lam=0.7, epsilon=0.25, links=(3, 5))
        m = build_bdg(spec, "up")
        np.testing.assert_array_equal(np.diag(m.A), -2.0 * 0.7 * np.ones(8))

    def test_down_branch_adds_epsilon_on_links(self):
        spec = _spec(N=8, lam=0.7, epsilon=0.25, links=(3, 5))
        m = build_bdg(spec, "down")
        expected = -2.0 * 0.7 * np.ones(8)
        expected[[2, 4]] -= 2.0 * 0.25
        np.testing.assert_allclose(np.diag(m.A), expected, atol=1e-15)

    def test_block_symmetries_exact(self):
        spec = _spec(N=7, lam=1.3, epsilon=0.4, links=(2, 6))
        for branch in ("up", "down"):
            m = build_bdg(spec, branch)
            np.testing.assert_array_equal(m.A, m.A.T)
            np.testing.assert_array_equal(m.B, -m.B.T)
            np.testing.assert_array_equal(m.C, m.C.T)
            np.testing.assert_array_equal(
                m.C, np.block([[m.A, m.B], [-m.B, -m.A]]))

    def test_boundary_entries_carry_sector_sign(self):
        m = build_bdg(_spec(N=6), "up")
        assert m.A[0, 5] == m.A[5, 0] == -BOUNDARY_SIGN * -1.0 * -1.0
        assert m.A[0, 1] == -1.0
        assert m.B[5, 0] == BOUNDARY_SIGN * (-1.0)
        assert m.B[0, 5] == BOUNDARY_SIGN * (+1.0)

    @pytest.mark.parametrize("sign", [2, 0, True])
    def test_sector_other_than_plus_minus_one_rejected(self, sign):
        with pytest.raises(SpecError, match="boundary_sign"):
            build_bdg(_spec(N=6), "up", boundary_sign=sign)

    def test_spin_star_down_equals_shifted_field_up(self):
        # the perturbed spin-star bath is the bare bath at lam + eps/J
        star = ChainSpec.spin_star(N=8, lam=1.0, epsilon=0.25)
        shifted = ChainSpec.spin_star(N=8, lam=1.25, epsilon=0.0)
        np.testing.assert_array_equal(build_bdg(star, "down").C,
                                      build_bdg(shifted, "up").C)

    def test_spin_star_shift_with_general_j(self):
        star = ChainSpec.spin_star(N=6, lam=0.8, epsilon=0.3, J=1.7)
        shifted = ChainSpec.spin_star(N=6, lam=0.8 + 0.3 / 1.7, epsilon=0.0, J=1.7)
        np.testing.assert_allclose(build_bdg(star, "down").C,
                                   build_bdg(shifted, "up").C, atol=1e-14)

    def test_rejects_unknown_branch(self):
        with pytest.raises(SpecError):
            build_bdg(_spec(), "sideways")


class TestDiagonalize:
    def test_zero_matrix_toy(self):
        # degenerate toy with all couplings off; assembled by hand since
        # ChainSpec itself requires J > 0
        z = np.zeros((4, 4))
        m = BdGMatrix(N=4, A=z, B=z, C=np.zeros((8, 8)))
        d = diagonalize(m)
        np.testing.assert_array_equal(d.eigenvalues, np.zeros(8))

    @pytest.mark.parametrize("lam,links", [(0.5, (1,)), (1.0, (1,)), (1.5, None)])
    def test_particle_hole_pairs(self, lam, links):
        spec = ChainSpec(N=8, lam=lam, epsilon=0.25,
                         links=links or tuple(range(1, 9)))
        for branch in ("up", "down"):
            e = diagonalize(build_bdg(spec, branch)).eigenvalues
            np.testing.assert_allclose(e, -e[::-1], atol=1e-10)

    def test_reconstruction_residual(self):
        m = build_bdg(_spec(N=10, lam=1.2), "down")
        d = diagonalize(m)
        rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
        assert np.max(np.abs(rebuilt - m.C)) <= 1e-10

    def test_dispersion_on_sector_momenta(self):
        # N=8, lam=1, eps=0: energies must match 2J sqrt((lam-cos q)^2+sin^2 q)
        # on the antiperiodic momenta q = (2m+1) pi / N of the calibrated sector
        n, lam = 8, 1.0
        spec = ChainSpec(N=n, lam=lam, epsilon=0.0, links=(1,))
        e = diagonalize(build_bdg(spec, "up")).eigenvalues
        q = (2 * np.arange(n) + 1) * np.pi / n
        expected = 2.0 * np.sqrt((lam - np.cos(q)) ** 2 + np.sin(q) ** 2)
        np.testing.assert_allclose(np.sort(e[n:]), np.sort(expected), atol=1e-8)


class TestFilledCount:
    def test_negative_levels_or_the_n_lowest(self):
        e = np.array([-3.0, -1.0, 2.0, 4.0])
        assert filled_count(e) == 2
        assert filled_count(e, 1) == 1

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
    def test_gap_measured_against_the_largest_level(self, scale):
        # twice the smallest |e| against GAP_RTOL times the largest
        resolved = scale * np.array([-1.0, -0.6 * GAP_RTOL, 0.6 * GAP_RTOL, 1.0])
        assert filled_count(resolved) == 2
        with pytest.raises(DegenerateFillingError, match="filling boundary degenerate"):
            filled_count(resolved * np.array([1.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DegenerateFillingError):
            filled_count(scale * np.array([-1.0, -1.0 + 0.4 * GAP_RTOL, 2.0]), 1)


class TestGroundCorrelation:
    def test_trace_is_half_filling(self):
        d = diagonalize(build_bdg(_spec(N=9, lam=0.9, epsilon=0.3), "up"))
        r = ground_correlation(d).r
        assert abs(np.trace(r) - 9.0) <= 1e-10

    def test_projector(self):
        d = diagonalize(build_bdg(_spec(N=7, lam=1.4), "up"))
        r = ground_correlation(d).r
        assert np.max(np.abs(r @ r - r)) <= 1e-10
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12

    def test_magnetization_matches_oracle(self):
        # <sigma_z_j> = 2 r_jj - 1 against the 2^N ground state
        spec = _spec(N=6, lam=1.5, epsilon=0.0)
        r = ground_correlation(diagonalize(build_bdg(spec, "up"))).r
        sz = 2.0 * np.diag(r)[:6] - 1.0
        np.testing.assert_allclose(sz, oracle.ground_magnetization(spec), atol=1e-8)

    def test_degenerate_filling_fails_loudly(self):
        # the periodic sector has an exact zero mode at criticality
        spec = ChainSpec(N=8, lam=1.0, epsilon=0.0, links=(1,))
        with pytest.raises(DegenerateFillingError):
            ground_correlation(diagonalize(build_bdg(spec, "up", boundary_sign=+1)))

    def test_filled_sea_energy_matches_oracle(self):
        spec = _spec(N=8, lam=1.0, epsilon=0.0)
        d = diagonalize(build_bdg(spec, "up"))
        e_oracle = oracle.ground_state(oracle.build_hamiltonian(spec, "up")).energy
        assert abs(ground_energy(d) - e_oracle) <= 1e-8


class TestPropagator:
    def setup_method(self):
        self.d = diagonalize(build_bdg(_spec(N=6, lam=0.8), "down"))

    def test_zero_time_is_exact_identity(self):
        u = propagator(self.d, 0.0, +1).U
        np.testing.assert_array_equal(u, np.eye(12, dtype=complex))

    def test_unitarity(self):
        u = propagator(self.d, 3.7, +1).U
        assert np.max(np.abs(u.conj().T @ u - np.eye(12))) <= 1e-10

    def test_inverse_pair(self):
        a = propagator(self.d, 2.1, +1).U
        b = propagator(self.d, 2.1, -1).U
        assert np.max(np.abs(a @ b - np.eye(12))) <= 1e-10

    def test_one_parameter_group(self):
        u12 = propagator(self.d, 1.3 + 2.4, +1).U
        u1 = propagator(self.d, 1.3, +1).U
        u2 = propagator(self.d, 2.4, +1).U
        assert np.max(np.abs(u12 - u1 @ u2)) <= 1e-9

    def test_accepts_bdg_matrix(self):
        m = build_bdg(_spec(N=4), "up")
        assert propagator(m, 1.0, -1).U.shape == (8, 8)


    @pytest.mark.parametrize("sign", [2, 0])
    def test_sign_other_than_plus_minus_one_rejected(self, sign):
        with pytest.raises(SpecError, match="sign must be"):
            propagator(self.d, 1.0, sign)


class TestGaussianOverlap:
    def test_identity_string_is_exactly_one(self):
        d = diagonalize(build_bdg(_spec(N=5, lam=0.8), "up"))
        r = ground_correlation(d)
        value, log_value = gaussian_overlap(r, [np.eye(10, dtype=complex)])
        assert value == 1.0 and log_value == 0.0

    def test_empty_string_is_exactly_one(self):
        r = ground_correlation(diagonalize(build_bdg(_spec(N=5, lam=0.8), "up")))
        assert gaussian_overlap(r, []) == (1.0, 0.0)

    def test_identical_generators_give_unity(self):
        # eps = 0: both branches share one C, the echo string collapses
        spec = _spec(N=8, lam=1.0, epsilon=0.0)
        d = diagonalize(build_bdg(spec, "up"))
        r = ground_correlation(d)
        for t in (0.5, 2.0, 7.3):
            value, _ = gaussian_overlap(
                r, [propagator(d, t, +1), propagator(d, t, -1)])
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_echo_value_matches_oracle(self):
        spec = _spec(N=6, lam=1.0, epsilon=0.25, links=(1,))
        du = diagonalize(build_bdg(spec, "up"))
        dd = diagonalize(build_bdg(spec, "down"))
        r = ground_correlation(du)
        t = 3.0
        value, _ = gaussian_overlap(
            r, [propagator(du, t, +1), propagator(dd, t, -1)])
        expected = abs(oracle.amplitude_free(spec, [t])[0]) ** 2
        assert value == pytest.approx(expected, abs=1e-8)

    def test_log_value_consistent(self):
        spec = _spec(N=6, lam=1.0, epsilon=0.25)
        du = diagonalize(build_bdg(spec, "up"))
        dd = diagonalize(build_bdg(spec, "down"))
        r = ground_correlation(du)
        value, log_value = gaussian_overlap(
            r, [propagator(du, 4.0, +1), propagator(dd, 4.0, -1)])
        assert np.log(value) == pytest.approx(log_value, rel=1e-12)

    def test_dimension_mismatch(self):
        r = ground_correlation(diagonalize(build_bdg(_spec(N=4), "up")))
        with pytest.raises(SpecError, match="dimension"):
            gaussian_overlap(r, [np.eye(10)])
