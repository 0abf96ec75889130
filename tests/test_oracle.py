import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bbecho import cli, echo, freefermion, oracle
from bbecho.echo import loschmidt_free, loschmidt_pulsed
from bbecho.model import ChainSpec, PulseSchedule, SpecError, TimeGrid
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

    def test_unknown_branch_rejected(self):
        with pytest.raises(SpecError, match="branch must be 'up' or 'down'"):
            build_hamiltonian(ChainSpec(N=4, lam=1.0, epsilon=0.25, links=(1,)), "left")

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

    def test_descending_times_rejected(self):
        spec = ChainSpec(N=4, lam=0.5, epsilon=0.25, links=(1,))
        with pytest.raises(SpecError, match="ascending"):
            amplitude_pulsed(spec, PulseSchedule(delta_t=0.3), [1.0, 0.5])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cycle_count_refused(self):
        spec = ChainSpec(N=4, lam=0.5, epsilon=0.25, links=(1,))
        with pytest.raises(SpecError, match=r"delta_t = 1e-320 .* at t = 1\.0 overflows"):
            amplitude_pulsed(spec, PulseSchedule(delta_t=1e-320), [0.0, 1.0])

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


def _complex_product_pulsed(spec: ChainSpec, dt: float, ts: np.ndarray) -> np.ndarray:
    """Reference pulsed amplitude: the complex product v (phases * (v^H x)) per step."""
    eu, vu = np.linalg.eigh(build_hamiltonian(spec, "up").matrix)
    ed, vd = np.linalg.eigh(build_hamiltonian(spec, "down").matrix)

    def evolve(branch, t, x):
        e, v = (eu, vu) if branch == "up" else (ed, vd)
        return v @ (np.exp(-1j * e * t) * (v.conj().T @ x))

    phi0 = phi1 = vu[:, 0].astype(complex)
    m_cur, out = 0, []
    for t in ts:
        m = int(math.floor(t / (2.0 * dt) + 1e-12))
        for _ in range(m - m_cur):
            phi0 = evolve("down", dt, evolve("up", dt, phi0))
            phi1 = evolve("up", dt, evolve("down", dt, phi1))
        m_cur = m
        t_res = t - 2.0 * m * dt
        if t_res < dt:
            a, b = evolve("up", t_res, phi0), evolve("down", t_res, phi1)
        else:
            s = t_res - dt
            a = evolve("down", s, evolve("up", dt, phi0))
            b = evolve("up", s, evolve("down", dt, phi1))
        out.append(np.vdot(a, b))
    return np.array(out)


class TestHeldDecomposition:
    """amplitude_free and amplitude_pulsed share the last spec's eigh pair."""

    def test_check_suite_decomposes_each_spec_once(self, monkeypatch):
        monkeypatch.setattr(oracle, "_held", [])
        built, inits = [], []
        original_build, original_init = oracle.build_hamiltonian, oracle._Spectral.__init__

        def counting_build(spec, branch):
            built.append(spec)
            return original_build(spec, branch)

        def counting_init(self, spec):
            inits.append(spec)
            original_init(self, spec)

        monkeypatch.setattr(oracle, "build_hamiltonian", counting_build)
        monkeypatch.setattr(oracle._Spectral, "__init__", counting_init)
        rows, _ = cli.oracle_check_suite()
        # a free and two pulsed rows per spec, but one decomposition
        assert len(rows) == 36
        assert len(inits) == len(set(inits)) == 12
        assert len(built) == 24

    @pytest.mark.parametrize("other", [
        {"epsilon": 0.4}, {"links": (1, 2, 3, 4, 5, 6)}], ids=["epsilon", "links"])
    def test_next_spec_gets_its_own_amplitudes(self, monkeypatch, other):
        a = ChainSpec(N=6, lam=0.8, epsilon=0.25, links=(1,))
        b = replace(a, **other)
        schedule, ts = PulseSchedule(delta_t=0.45), np.linspace(0.0, 6.0, 13)
        monkeypatch.setattr(oracle, "_held", [])
        fresh = amplitude_free(b, ts), amplitude_pulsed(b, schedule, ts)
        monkeypatch.setattr(oracle, "_held", [])
        amplitude_free(a, ts)
        amplitude_pulsed(a, schedule, ts)
        np.testing.assert_array_equal(amplitude_free(b, ts), fresh[0])
        np.testing.assert_array_equal(amplitude_pulsed(b, schedule, ts), fresh[1])

    def test_previous_decomposition_is_released_before_the_next_build(
            self, monkeypatch):
        # two pairs alive at once would raise the peak memory of a run
        monkeypatch.setattr(oracle, "_held", [])
        a = ChainSpec(N=6, lam=0.8, epsilon=0.25, links=(1,))
        amplitude_free(a, [0.5])
        held_a = weakref.ref(oracle._held[0][1])
        amplitude_free(a, [1.0])
        assert held_a() is oracle._held[0][1]
        alive_at_build = []
        original = oracle.build_hamiltonian

        def recording(spec, branch):
            alive_at_build.append(held_a() is not None)
            return original(spec, branch)

        monkeypatch.setattr(oracle, "build_hamiltonian", recording)
        amplitude_free(replace(a, epsilon=0.4), [0.5])
        assert alive_at_build == [False, False]
        assert held_a() is None


class TestLongPulseTrain:
    def test_real_evolve_matches_complex_product_and_keeps_norm(self, monkeypatch):
        # 500 cycles at dt = 0.05: the real/imaginary split against the
        # complex product, and the drift of the evolved states' norm
        spec = ChainSpec(N=6, lam=1.0, epsilon=0.25, links=(1,))
        dt, ts = 0.05, np.linspace(0.0, 50.0, 201)
        monkeypatch.setattr(oracle, "_held", [])
        norms = []
        original = oracle._Spectral.evolve

        def recording(self, branch, t, state):
            out = original(self, branch, t, state)
            norms.append(np.linalg.norm(out))
            return out

        monkeypatch.setattr(oracle._Spectral, "evolve", recording)
        amps = amplitude_pulsed(spec, PulseSchedule(delta_t=dt), ts)
        assert len(norms) >= 4 * 500
        assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-12
        np.testing.assert_allclose(amps, _complex_product_pulsed(spec, dt, ts), rtol=0, atol=1e-12)


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
        # the +1 sector cannot fill its sea at lam = 1 (see below)
        assert result.residuals[(1, 1)] == result.residuals[(1, 2)] == math.inf

    def test_periodic_sector_refused_by_the_filling_guard(self):
        # at lam = 1 the +1 sector has an exact zero mode: the smallest
        # singular value of A + B is below half the 1e-12 gap threshold
        spec = default_calibration_specs()[2]
        assert spec.lam == 1.0
        with pytest.raises(freefermion.DegenerateFillingError,
                           match="filling boundary degenerate"):
            echo._BranchData(spec, +1)
        echo._BranchData(spec, -1)

    def test_each_sector_determinant_built_once(self, monkeypatch):
        specs = default_calibration_specs()
        ts = np.arange(0.5, 5.01, 0.5)
        # reference: the exponent loop outside, one build per exponent; a
        # sector that cannot fill its sea is out at the first such spec
        expected, reference_builds = {}, 0
        for bs, p in itertools.product((1, -1), (1, 2)):
            worst = 0.0
            for spec in specs:
                reference_builds += 1
                try:
                    log_dets = echo._free_log_dets(echo._BranchData(spec, bs), ts)
                except freefermion.DegenerateFillingError:
                    worst = math.inf
                    break
                det = np.exp(p * np.asarray(log_dets))
                oracle_le = np.abs(amplitude_free(spec, ts)) ** 2
                worst = max(worst, float(np.max(np.abs(det - oracle_le))))
            expected[(bs, p)] = worst
        built = []
        original = echo._BranchData

        def counting(spec, boundary_sign):
            built.append((spec, boundary_sign))
            return original(spec, boundary_sign)

        monkeypatch.setattr(echo, "_BranchData", counting)
        result = calibrate_conventions(specs)
        assert not oracle._held  # no decomposition outlives the calibration
        assert len(built) == reference_builds // 2
        assert len(set(built)) == len(built)
        assert list(result.residuals.items()) == list(expected.items())
        assert result.max_residual == expected[(-1, 1)]
        assert expected[(1, 1)] == expected[(1, 2)] == math.inf

    @pytest.mark.parametrize("amplitude, message", [
        (2.0, "no candidate matched"),
        (1.0, "4 candidates matched"),
    ], ids=["none", "several"])
    def test_scan_needs_exactly_one_match(self, monkeypatch, amplitude, message):
        # every candidate gets the echo 1; the oracle reads amplitude**2
        monkeypatch.setattr(echo, "_BranchData", lambda spec, bs: None)
        monkeypatch.setattr(echo, "_free_log_dets", lambda data, ts: np.zeros(len(ts)))
        monkeypatch.setattr(oracle, "amplitude_free",
                            lambda spec, ts: np.full(len(ts), amplitude + 0j))
        with pytest.raises(CalibrationError, match=f"{message} at tol=1e-08"):
            calibrate_conventions([ChainSpec(N=4, lam=0.5, epsilon=0.25, links=(1,))])

    def test_nan_residual_on_one_spec_fails(self, monkeypatch):
        specs = default_calibration_specs()
        original = oracle.amplitude_free
        monkeypatch.setattr(oracle, "amplitude_free", lambda spec, ts: (
            np.full(len(ts), np.nan + 0j) if spec == specs[3] else original(spec, ts)))
        with pytest.raises(CalibrationError, match="no candidate matched"):
            calibrate_conventions(specs)

    def test_empty_suite_rejected(self):
        with pytest.raises(CalibrationError, match="at least one"):
            calibrate_conventions([])

    def test_zero_coupling_suite_unidentifiable(self):
        specs = [ChainSpec(N=4, lam=0.5, epsilon=0.0, links=(1,))]
        with pytest.raises(CalibrationError, match="unidentifiable"):
            calibrate_conventions(specs)
