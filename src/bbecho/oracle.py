"""Brute-force exact diagonalization at small N: ground truth for everything.

Dense Hamiltonians, the full 2^N matrix or one symmetry block of it,
filled by bit arithmetic on the sigma^z basis (periodic chain, site
N+1 == site 1), full spectra, exact echo amplitudes for free and pulsed
evolution, and the convention calibration that pins the free-fermion
path. This is deliberately unsophisticated: no sparsity, no fermions, no
momenta, just eigh on dense matrices, which is exactly why it can
arbitrate conventions.

Two symmetries are used, both permutations of the sigma^z basis that
read only the bits of the basis index, so the split is exact and needs
no tolerance. The first is the spin parity prod_j sigma^z_j: every term
of either branch Hamiltonian is diagonal in the sigma^z basis or flips
two bits, so both commute with it. The second is a site reflection P,
j -> s - j (mod N), for the first axis s that maps the link set to
itself, ``ChainSpec.reflection_axis``, which the determinant route
reads too.
It maps ring bonds to ring bonds and the uniform field to itself, leaves
the link field unchanged, and commutes with the parity. So the echo
never leaves the sector of the bare-bath ground state |G>: a parity
block, and within it the states even (+) or odd (-) under P. Where no
axis exists, as for links (1, 2, 4) at N = 6, the sectors are the parity
blocks.

A sector's basis is one state per orbit {i, P i} with i <= P i: the
normalized |i> + P|i> in the + sector and |i> - P|i> in the - sector,
which holds the pairs only. Each block is filled straight from the
basis bits, row a from its representative i_a alone: the diagonal of
i_a, and for each bond the flipped state t, which is i_b or P i_b of
one column b (or lies outside the sector and drops out). These are the
entries w_a w_b (H[i_a, i_b] +- H[i_a, P i_b]) of the full matrix, with
w = 1/sqrt(2) for a fixed state (P i = i) and 1 otherwise, so each
block is exactly symmetric. The off-diagonal entries of H are whole
multiples of J; the diagonal is summed site by site, so H[P i, P i] can
differ from H[i, i] in the last bit, and the block is exact up to that
rounding. The full matrix is the trivial sector, P the identity and
every state fixed, so ``build_hamiltonian`` builds both.

The eigenvalues of every up sector are computed, the degeneracy check
runs on their merged spectrum (the full spectrum), and the sector with
the lowest ground level is kept; both branches are decomposed in that
sector alone. At N = 10 the sectors are 272 and 240 wide, against 512
for a parity block and 1024 for the full matrix. ``ground_state`` still
takes the full matrix, and tests compare the sector amplitudes against a
full-matrix replay.

This is also the only route that returns the complex amplitude D(t);
the determinant and momentum routes keep |D|^2, dropping at the end the
phase that their determinants carry.

The two branch decompositions of the last spec are kept for the next
call, so the free and pulsed amplitudes of one spec share one set of
eigh calls. Only one spec is held, and it is dropped before the next
spec's pair is built: at N = 10 the held pair is two eigenvector blocks
of at most 272 x 272, 1.2 MB, and building the new pair while the old
one is alive would raise the peak memory of a run over many specs by
that much.

Guarded to N <= 12. The echo path builds no 2^N x 2^N matrix: the up
sectors are built and their levels computed one at a time, and the peak
of one decomposition above the interpreter, the down sector's eigh while
the up pair is held, is about 3.4 * 4^N bytes (measured 15 MB at N = 11,
54 MB at N = 12). The guard is set by the full matrix, which
``build_hamiltonian`` gives with no sector and ``ground_state`` takes,
8 * 4^N bytes,
whose eigh peaks at about 38 * 4^N bytes (measured 0.64 GB at N = 12):
about 2.6 GB at N = 13, which a shared machine with a few GB free may
not survive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import echo, freefermion
from .model import ChainSpec, PulseSchedule, SpecError

_N_MAX = 12

# The echo routes meet the oracle to this absolute tolerance in L: the
# bar of `bbecho check` and of the convention calibration.
TOL = 1e-8


class OracleSizeError(SpecError):
    """Chain too large for dense 2^N diagonalization."""


class DegenerateGroundStateError(RuntimeError):
    """Ground level degenerate within tolerance; |G> is ill-defined."""


class CalibrationError(RuntimeError):
    """Convention scan failed or was ambiguous."""


@dataclass(frozen=True)
class DenseOperator:
    matrix: np.ndarray


@dataclass(frozen=True)
class GroundState:
    energy: float
    vector: np.ndarray


def _check_size(spec: ChainSpec) -> None:
    if spec.N > _N_MAX:
        raise OracleSizeError(
            f"oracle handles N <= {_N_MAX}, got N={spec.N}"
        )


def _spins(N: int, states: np.ndarray | None = None) -> np.ndarray:
    """sigma^z eigenvalues of the basis states (all 2^N by default), shape
    (len(states), N): site 1 is the top bit, bit 0 = up."""
    states = np.arange(2 ** N) if states is None else states
    bits = states[:, None] >> np.arange(N - 1, -1, -1)
    return 1.0 - 2.0 * (bits & 1)


def build_hamiltonian(spec: ChainSpec, branch: str, sector: tuple | None = None
                      ) -> DenseOperator:
    """Dense bath Hamiltonian for one qubit branch, in full or on one sector.

    branch "up": -J sum_j (x_j x_{j+1} + lam z_j).
    branch "down": additionally -epsilon sum_{links} z_j.
    sector (rows, p, sign): H on the normalized states |i> + sign P|i>,
    i in rows, with p the map of basis indices of P and i <= p[i] for
    each i in rows; a fixed state (p[i] = i) is |i> alone. None is the
    full matrix: rows every state and p the identity, so every state is
    fixed.
    """
    if branch not in ("up", "down"):
        raise SpecError(f"branch must be 'up' or 'down', got {branch!r}")
    _check_size(spec)
    N, J = spec.N, spec.J
    i = np.arange(2 ** N)
    rows, p, sign = (i, i, 1) if sector is None else sector
    z = _spins(N, rows)
    # summed site by site, fields before links, so the diagonal is the
    # same to the last bit as the sum of one-site operators
    fields = [(J * spec.lam, j) for j in range(1, N + 1)]
    fields += [(spec.epsilon, j) for j in spec.links] if branch == "down" else []
    diag = np.zeros(rows.size)
    for c, j in fields:
        diag -= c * z[:, j - 1]
    h = np.diag(diag)
    a = np.arange(rows.size)
    index = np.zeros(2 ** N, dtype=np.intp)
    index[rows] = index[p[rows]] = a
    # bond j, x_j x_{j+1}, flips both bits of row a into t[j, a]; at N = 2
    # the two bonds coincide
    j = np.arange(N)[:, None]
    t = rows ^ (1 << (N - 1 - j)) ^ (1 << (N - 1 - (j + 1) % N))
    b = index[t]
    # t is the representative of column b, its image, or (coefficient 0) a
    # state outside the sector. w_a w_b as 0.5 ** (half_a + half_b): exactly
    # 1/2 for two fixed states, so a flip of the full matrix is -J * 2 * 1/2
    half = np.where(p[rows] == rows, 0.5, 0.0)
    flips = J * ((rows[b] == t) + sign * (p[rows[b]] == t)) * 0.5 ** (half + half[b])
    np.subtract.at(h, (a, b), flips)  # unbuffered, bond by bond in order
    return DenseOperator(matrix=h)


def _check_gap(evals: np.ndarray) -> None:
    """Raises DegenerateGroundStateError where the ground level, the one
    filled level of the ascending many-body spectrum evals, is not
    resolved from the next by the rule of freefermion.filled_count."""
    try:
        freefermion.filled_count(evals, 1)
    except freefermion.DegenerateFillingError as exc:
        raise DegenerateGroundStateError(f"ground state degenerate: {exc}") from None


def ground_state(h: DenseOperator) -> GroundState:
    """Lowest eigenpair; raises if the ground level is degenerate."""
    evals, evecs = np.linalg.eigh(h.matrix)
    _check_gap(evals)
    return GroundState(energy=float(evals[0]), vector=evecs[:, 0].astype(complex))


def ground_magnetization(spec: ChainSpec) -> np.ndarray:
    """<G| sigma^z_j |G> for j = 1..N in the bare-bath ground state."""
    g = ground_state(build_hamiltonian(spec, "up")).vector
    return np.abs(g) ** 2 @ _spins(spec.N)


def _reflection(spec: ChainSpec) -> np.ndarray | None:
    """The site reflection P as a map of basis indices, or None.

    The axis is spec.reflection_axis, the first s whose reflection
    j -> s - j (mod N) maps the 0-based link set to itself; entry i of the
    map is the index of the state i with the spin of each site j moved to
    site s - j.
    """
    n, i, axis = spec.N, np.arange(2 ** spec.N), spec.reflection_axis
    if axis is None:
        return None
    # site j is bit N-1-j of the index, as _spins reads it
    return sum(((i >> (n - 1 - j)) & 1) << (n - 1 - (axis - j) % n) for j in range(n))


class _Spectral:
    """Eigen-decomposed branch pair in the symmetry sector of |G>; decompose
    once, reuse over a grid. States are vectors of that sector, of
    dimension at most 2^(N-2) + 2^(N//2-1) where an axis exists (272 at
    N = 10) and 2^(N-1) where none does. The sector's basis is given by
    ``rows`` and ``sign``: the state |i> + sign P|i>, normalized, for
    each i in rows (|i> alone where P i = i).

    The last one built is held by ``_spectral`` for the next call on the
    same spec, and dropped before another spec's pair is built.
    """

    def __init__(self, spec: ChainSpec):
        _check_size(spec)  # before the first 2^N array
        i = np.arange(2 ** spec.N)
        p = _reflection(spec)
        p = i if p is None else p  # no axis: every state is fixed, the parity blocks
        even = _spins(spec.N).prod(axis=1) > 0
        sectors = [(np.flatnonzero(block & m), p, sign) for block in (even, ~even)
                   for sign, m in ((1, i <= p), (-1, i < p)) if (block & m).any()]
        # one block alive at a time: the kept up sector is built again below
        levels = [np.linalg.eigvalsh(build_hamiltonian(spec, "up", sector).matrix)
                  for sector in sectors]
        _check_gap(np.sort(np.concatenate(levels)))
        k = int(np.argmin([e[0] for e in levels]))  # the sector with the lowest ground level
        self.rows, _, self.sign = sectors[k]
        self.eu, self.vu = np.linalg.eigh(build_hamiltonian(spec, "up", sectors[k]).matrix)
        self.ed, self.vd = np.linalg.eigh(build_hamiltonian(spec, "down", sectors[k]).matrix)
        self.g = self.vu[:, 0]

    def evolve(self, branch: str, t: float, state: np.ndarray) -> np.ndarray:
        """exp(-i H_branch t) applied to state.

        The eigenvectors are real, so they act on the real and imaginary
        parts apart; a complex product would cast the matrix every call.
        """
        e, v = (self.eu, self.vu) if branch == "up" else (self.ed, self.vd)
        c = np.exp(-1j * e * t) * (v.T @ state.real + 1j * (v.T @ state.imag))
        return v @ c.real + 1j * (v @ c.imag)


# (spec, _Spectral) of the last call, at most one entry
_held: list = []


def _spectral(spec: ChainSpec) -> _Spectral:
    """The branch pair of spec, built only if the held one is another spec's."""
    if not (_held and _held[0][0] == spec):
        _held.clear()  # before the build, so two pairs are never alive at once
        _held.append((spec, _Spectral(spec)))
    return _held[0][1]


def amplitude_free(spec: ChainSpec, ts) -> np.ndarray:
    """D(t) = <G| e^{+i H_up t} e^{-i H_down t} |G> on a time array.

    With G real, D(t) = e^{i E0 t} sum_k w_k e^{-i E^down_k t} and
    w = (V_down^T G)^2, so a time point costs O(d), d the dimension of the
    sector of |G> (272 at N = 10).
    """
    sp = _spectral(spec)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.size, dtype=complex)
    w = (sp.vd.T @ sp.g) ** 2
    e0 = sp.eu[0]
    for i, t in enumerate(ts):
        out[i] = np.exp(1j * e0 * t) * (np.exp(-1j * sp.ed * t) @ w)
    return out


def amplitude_pulsed(spec: ChainSpec, schedule: PulseSchedule, ts) -> np.ndarray:
    """Echo amplitude under the pulse train, exact in the sector of |G>.

    The two qubit branches are evolved as explicit state vectors: per
    full flip cycle the up branch picks up e^{-iH_down dt} e^{-iH_up dt}
    and the down branch the reversed pair; in the residual the branch
    that has been flipped mid-cycle finishes under the other Hamiltonian.
    """
    sp = _spectral(spec)
    dt = schedule.delta_t
    cycles, residuals, firsts = schedule.split(np.atleast_1d(ts))
    out = np.empty(cycles.size, dtype=complex)
    phi0 = phi1 = sp.g
    m_cur = 0
    for i, (m, t_res, first) in enumerate(zip(cycles, residuals, firsts)):
        while m_cur < m:
            phi0 = sp.evolve("down", dt, sp.evolve("up", dt, phi0))
            phi1 = sp.evolve("up", dt, sp.evolve("down", dt, phi1))
            m_cur += 1
        if first:
            a = sp.evolve("up", t_res, phi0)
            b = sp.evolve("down", t_res, phi1)
        else:
            a = sp.evolve("down", t_res - dt, sp.evolve("up", dt, phi0))
            b = sp.evolve("up", t_res - dt, sp.evolve("down", dt, phi1))
        out[i] = np.vdot(a, b)
    return out


def default_calibration_specs() -> list[ChainSpec]:
    """Small-N suite spanning both phases, criticality, and both link extremes."""
    specs = []
    for n, lam in itertools.product((4, 6, 8), (0.5, 1.0, 1.5)):
        specs.append(ChainSpec(N=n, lam=lam, epsilon=0.25, links=(1,)))
        specs.append(ChainSpec.spin_star(N=n, lam=lam, epsilon=0.25))
    return specs


@dataclass(frozen=True)
class CalibrationResult:
    boundary_sign: int
    det_exponent: int
    max_residual: float
    residuals: dict


def calibrate_conventions(specs: Sequence[ChainSpec]) -> CalibrationResult:
    """Scan (boundary_sign, det_exponent) candidates against the oracle.

    Exactly one of the four candidate pairs must reproduce the oracle
    echo on every supplied spec to within TOL at t = 0.5, 1, ..., 5;
    anything else (no match, several matches, an all-epsilon-zero suite
    that cannot identify the exponent) raises CalibrationError with the
    residual table.
    """
    specs = list(specs)
    if not specs:
        raise CalibrationError("calibration needs at least one spec")
    if all(s.epsilon == 0.0 for s in specs):
        raise CalibrationError(
            "calibration suite has epsilon = 0 throughout: both determinant "
            "exponents give 1 identically, the exponent is unidentifiable"
        )
    ts = np.arange(0.5, 5.01, 0.5)
    oracle_le = {}
    for spec in specs:
        oracle_le[spec] = np.abs(amplitude_free(spec, ts)) ** 2
    _held.clear()  # else the suite's last pair stays alive in the process

    residuals: dict = {}
    matches = []
    for bs in (1, -1):
        # the exponent only powers the determinant, so each sector's log
        # determinants are computed once and serve both exponents
        try:
            log_dets = [np.asarray(echo._BranchData(spec, bs).log_echo(ts))
                        for spec in specs]
        except freefermion.DegenerateFillingError:
            # a sector with zero modes cannot even define its filled
            # sea on this suite; the candidate is out
            log_dets = []
        for p in (1, 2):
            # np.max keeps a NaN residual, so a NaN echo matches no candidate
            worst = (float(np.max([np.abs(np.exp(p * log_det) - oracle_le[spec])
                                   for spec, log_det in zip(specs, log_dets)]))
                     if log_dets else math.inf)
            residuals[(bs, p)] = worst
            if worst <= TOL:
                matches.append((bs, p))

    if len(matches) != 1:
        table = ", ".join(
            f"(bs={bs:+d}, p={p}): {res:.3e}" for (bs, p), res in sorted(residuals.items())
        )
        kind = "no candidate matched" if not matches else f"{len(matches)} candidates matched"
        raise CalibrationError(f"{kind} at tol={TOL:g}; residuals: {table}")

    bs, p = matches[0]
    return CalibrationResult(
        boundary_sign=bs,
        det_exponent=p,
        max_residual=residuals[(bs, p)],
        residuals=residuals,
    )
