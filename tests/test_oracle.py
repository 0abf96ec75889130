import numpy as np
import pytest

from bbecho import freefermion, oracle
from bbecho.echo import loschmidt_free, loschmidt_pulsed
from bbecho.model import ChainSpec, PulseSchedule, TimeGrid
from bbecho.oracle import (CalibrationError, DegenerateGroundStateError,
                           OracleSizeError, amplitude_free, amplitude_pulsed,
                           build_hamiltonian, calibrate_conventions,
                           default_calibration_specs, ground_state)


def _two_site_hand_matrix(lam: float) -> np.ndarray:
    """N=2 chain by hand: H = -2J x1x2 - J lam (z1 + z2).

    Basis (uu, ud, du, dd); the doubled bond comes from periodicity."""
    return np.array([
        [-2.0 * lam, 0.0, 0.0, -2.0],
        [0.0, 0.0, -2.0, 0.0],
        [0.0, -2.0, 0.0, 0.0],
        [-2.0, 0.0, 0.0, 2.0 * lam],
    ])


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])


def _pauli_product(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Tensor product over 1-based sites 1..n, identity where ops has no entry."""
    out = np.eye(1)
    for j in range(1, n + 1):
        out = np.kron(out, ops.get(j, np.eye(2)))
    return out


def _kron_hamiltonian(spec: ChainSpec, branch: str) -> np.ndarray:
    """Reference H summed term by term from Pauli tensor products."""
    n, J = spec.N, spec.J
    h = np.zeros((2 ** n, 2 ** n))
    for j in range(1, n + 1):
        h -= J * _pauli_product({j: _SX, j % n + 1: _SX}, n)
        h -= J * spec.lam * _pauli_product({j: _SZ}, n)
    if branch == "down":
        for j in spec.links:
            h -= spec.epsilon * _pauli_product({j: _SZ}, n)
    return h


class TestBuildHamiltonian:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("coupling", ["single", "two", "star"])
    def test_equals_pauli_kron_sum_exactly(self, n, coupling):
        links = {"single": (1,), "two": (1, n // 2 + 1),
                 "star": tuple(range(1, n + 1))}[coupling]
        for J, lam, eps in ((1.0, 1.0, 0.25), (0.7, 1.3, -0.37), (1.9, 0.45, 0.21)):
            spec = ChainSpec(N=n, lam=lam, epsilon=eps, links=links, J=J)
            for branch in ("up", "down"):
                np.testing.assert_array_equal(
                    build_hamiltonian(spec, branch).matrix,
                    _kron_hamiltonian(spec, branch))

    def test_two_site_toy_matches_hand_expansion(self):
        spec = ChainSpec(N=2, lam=0.0, epsilon=0.0, links=(1,))
        h = build_hamiltonian(spec, "up")
        np.testing.assert_allclose(h.matrix, _two_site_hand_matrix(0.0), atol=1e-15)
        assert np.min(np.linalg.eigvalsh(h.matrix)) == pytest.approx(-2.0, abs=1e-12)

    def test_two_site_with_field(self):
        spec = ChainSpec(N=2, lam=0.5, epsilon=0.0, links=(1,))
        h = build_hamiltonian(spec, "up")
        np.testing.assert_allclose(h.matrix, _two_site_hand_matrix(0.5), atol=1e-15)

    def test_down_branch_with_zero_coupling_is_identical(self):
        spec = ChainSpec(N=5, lam=0.8, epsilon=0.0, links=(2, 4))
        up = build_hamiltonian(spec, "up").matrix
        down = build_hamiltonian(spec, "down").matrix
        np.testing.assert_array_equal(up, down)

    def test_down_branch_adds_link_fields(self):
        spec = ChainSpec(N=4, lam=0.8, epsilon=0.3, links=(1, 3))
        up = build_hamiltonian(spec, "up").matrix
        down = build_hamiltonian(spec, "down").matrix
        diff = up - down
        # difference must be +eps (z_1 + z_3), diagonal in this basis
        assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0

    def test_hermiticity(self):
        spec = ChainSpec(N=6, lam=1.3, epsilon=0.4, links=(1, 2, 5))
        h = build_hamiltonian(spec, "down").matrix
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_ground_energy_matches_filled_sea(self):
        spec = ChainSpec(N=8, lam=1.0, epsilon=0.0, links=(1,))
        e_dense = ground_state(build_hamiltonian(spec, "up")).energy
        d = freefermion.diagonalize(freefermion.build_bdg(spec, "up"))
        assert abs(e_dense - freefermion.ground_energy(d)) <= 1e-8

    def test_size_guard(self):
        spec = ChainSpec(N=15, lam=1.0, epsilon=0.1, links=(1,))
        with pytest.raises(OracleSizeError):
            build_hamiltonian(spec, "up")


class TestGroundState:
    def test_two_site_hand_values(self):
        # block (uu, dd): eigenvalues -+ 2 sqrt(1 + lam^2)
        spec = ChainSpec(N=2, lam=0.5, epsilon=0.0, links=(1,))
        g = ground_state(build_hamiltonian(spec, "up"))
        assert g.energy == pytest.approx(-2.0 * np.sqrt(1.25), abs=1e-12)

    def test_unit_norm_and_residual(self):
        spec = ChainSpec(N=6, lam=0.9, epsilon=0.0, links=(1,))
        h = build_hamiltonian(spec, "up")
        g = ground_state(h)
        assert abs(np.linalg.norm(g.vector) - 1.0) <= 1e-12
        assert np.linalg.norm(h.matrix @ g.vector - g.energy * g.vector) <= 1e-8

    def test_degenerate_ground_state_fails_loudly(self):
        # lam = 0: the two-site spectrum is (-2, -2, 2, 2)
        spec = ChainSpec(N=2, lam=0.0, epsilon=0.0, links=(1,))
        with pytest.raises(DegenerateGroundStateError):
            ground_state(build_hamiltonian(spec, "up"))

    def test_strong_field_approaches_product_state(self):
        # perturbative oracle: infidelity ~ N / (16 lam^2) from the N
        # two-spin-flip states at gap 4 J lam with amplitude 1/(4 lam)
        n, lam = 6, 50.0
        spec = ChainSpec(N=n, lam=lam, epsilon=0.0, links=(1,))
        g = ground_state(build_hamiltonian(spec, "up")).vector
        aligned = np.zeros(2 ** n, dtype=complex)
        aligned[0] = 1.0  # all spins along +z
        infidelity = 1.0 - abs(np.vdot(aligned, g)) ** 2
        predicted = n / (16.0 * lam ** 2)
        assert infidelity == pytest.approx(predicted, rel=0.3)
        # far enough out the product state is reached at 1e-6
        spec4 = ChainSpec(N=4, lam=5000.0, epsilon=0.0, links=(1,))
        g4 = ground_state(build_hamiltonian(spec4, "up")).vector
        assert 1.0 - abs(g4[0]) ** 2 <= 1e-6


class TestAmplitudeFree:
    def test_zero_time(self):
        spec = ChainSpec(N=4, lam=1.0, epsilon=0.25, links=(1,))
        assert amplitude_free(spec, [0.0])[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_zero_coupling_stays_on_unit_circle(self):
        spec = ChainSpec(N=4, lam=0.7, epsilon=0.0, links=(1, 2))
        amps = amplitude_free(spec, np.linspace(0, 8, 17))
        np.testing.assert_allclose(np.abs(amps), 1.0, atol=1e-12)

    def test_magnitude_bounded(self):
        spec = ChainSpec(N=6, lam=1.0, epsilon=0.4, links=(1, 4))
        amps = amplitude_free(spec, np.linspace(0, 12, 25))
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)

    def test_matches_determinant_path(self):
        spec = ChainSpec(N=6, lam=1.0, epsilon=0.25, links=(1,))
        grid = TimeGrid(t_max=10.0, n_points=101)
        le = loschmidt_free(spec, grid).le
        le_oracle = np.abs(amplitude_free(spec, grid.times())) ** 2
        assert np.max(np.abs(le - le_oracle)) <= 1e-8


class TestAmplitudePulsed:
    def test_large_interval_reduces_to_free(self):
        spec = ChainSpec(N=4, lam=0.5, epsilon=0.25, links=(1,))
        ts = np.linspace(0.0, 3.0, 7)
        pulsed = amplitude_pulsed(spec, PulseSchedule(delta_t=10.0), ts)
        free = amplitude_free(spec, ts)
        np.testing.assert_allclose(pulsed, free, atol=1e-12)

    def test_zero_coupling_magnitude_one(self):
        spec = ChainSpec(N=4, lam=1.2, epsilon=0.0, links=(1,))
        amps = amplitude_pulsed(spec, PulseSchedule(delta_t=0.3), np.linspace(0, 5, 11))
        np.testing.assert_allclose(np.abs(amps), 1.0, atol=1e-12)

    def test_matches_determinant_path(self):
        spec = ChainSpec(N=6, lam=1.0, epsilon=0.25, links=(1,))
        schedule = PulseSchedule(delta_t=0.5)
        grid = TimeGrid(t_max=10.0, n_points=101)
        le = loschmidt_pulsed(spec, schedule, grid).le
        le_oracle = np.abs(amplitude_pulsed(spec, schedule, grid.times())) ** 2
        assert np.max(np.abs(le - le_oracle)) <= 1e-8


class TestSpinStarShiftIdentity:
    def test_full_hilbert_space_level(self):
        # echo of the spin-star (lam, eps) against the pure-bath pair
        # (lam, lam + eps/J), both at 2^N level
        n, lam, eps = 6, 0.9, 0.3
        star = ChainSpec.spin_star(N=n, lam=lam, epsilon=eps)
        ts = np.linspace(0.0, 8.0, 33)
        le_star = np.abs(amplitude_free(star, ts)) ** 2

        bare = ChainSpec(N=n, lam=lam, epsilon=0.0, links=(1,))
        shifted = ChainSpec(N=n, lam=lam + eps, epsilon=0.0, links=(1,))
        h0 = build_hamiltonian(bare, "up").matrix
        h1 = build_hamiltonian(shifted, "up").matrix
        e0, v0 = np.linalg.eigh(h0)
        e1, v1 = np.linalg.eigh(h1)
        g = v0[:, 0].astype(complex)
        w = v1.conj().T @ g
        le_pair = np.empty(ts.size)
        for i, t in enumerate(ts):
            amp = np.vdot(g, v1 @ (np.exp(-1j * e1 * t) * w))
            le_pair[i] = abs(amp) ** 2
        np.testing.assert_allclose(le_star, le_pair, atol=1e-10)


class TestCalibrateConventions:
    def test_unique_pair_on_default_suite(self):
        result = calibrate_conventions(default_calibration_specs())
        assert (result.boundary_sign, result.det_exponent) == (-1, 1)
        assert result.max_residual <= 1e-8

    def test_empty_suite_rejected(self):
        with pytest.raises(CalibrationError, match="at least one"):
            calibrate_conventions([])

    def test_zero_coupling_suite_unidentifiable(self):
        specs = [ChainSpec(N=4, lam=0.5, epsilon=0.0, links=(1,))]
        with pytest.raises(CalibrationError, match="unidentifiable"):
            calibrate_conventions(specs)
