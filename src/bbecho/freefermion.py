"""Free-fermion (Bogoliubov-de Gennes) evaluation of bath overlaps.

The periodic transverse-field Ising bath maps under the Jordan-Wigner
transformation onto a quadratic fermion Hamiltonian

    H = (1/2) Psi^dag C Psi,   Psi = (c_1..c_N, c_1^dag..c_N^dag)^T,

with the real symmetric 2N x 2N single-particle matrix

    C = [[A, B], [-B, -A]],
    A[j,k] = -J (delta_{k,j+1} + delta_{j,k+1}) - 2 (J*lam + eps_j) delta_{jk},
    B[j,k] = -J (delta_{k,j+1} - delta_{j,k+1}),

where eps_j = epsilon on the coupled link sites for the perturbed branch
(qubit down) and 0 for the unperturbed one (qubit up). The boundary bond
(N,1) carries the bulk amplitudes times the sector sign that
``build_bdg`` takes. It is not a field of the spec: every echo route
uses the calibrated -1, the antiperiodic (even fermion parity) sector
that contains the spin ground state for even N, and only the convention
calibration builds the other sector. For odd N the ground state
migrates to the other sector at large fields, so oracle-exactness is
only claimed for even N; odd antiperiodic chains also host an exact zero
mode at lam = 1 (the self-paired momentum pi), which trips the
degenerate-filling guard there by design.

Which levels are filled, and whether that choice is well defined, is
decided in one place, ``filled_count``, for all three routes: the 2N
spectrum here, the sector spectrum of the echo module and the dense
many-body spectrum of the oracle.

Overlaps of evolved Gaussian states reduce to determinants,

    |<G| e^{-iH_1 t} ... e^{-iH_n t} |G>|^2 = |det(1 - r + r S)| = |det(W^T S W)|,

with S = U_1 ... U_n, U_k = e^{-i C_k t}, and r = W W^T the ground-state
two-point matrix of the unperturbed branch (``ground_correlation``), W
its N occupied modes, the N lowest eigenvectors of C. Because r projects onto those modes, the 2N x 2N
determinant equals the N x N determinant over the occupied subspace.
Over the doubled space the determinant magnitude is the squared overlap
itself (calibrated against exact diagonalization, see the conventions
module). Determinants are accumulated in log magnitude, so echoes that
decay below double-precision range stay representable through their
logarithm.

``propagator`` and ``gaussian_overlap`` evaluate the 2N x 2N form
directly and serve as the reference. The echo module evaluates the
occupied-subspace form in a symmetry sector of the ring: where a
reflection maps the link set to itself, each branch is N x N and the
echo is the square of a determinant of size N/2; where none does, it
works over the whole 2N space. The up branch in that sector comes from
the bare ring's closed form, ``ring_modes``: its standing waves centred
on the reflection axis, which are even or odd under the reflection, so
that the sector is one column of each pair of equal energy. The down
branch comes from one eigh in the up eigenbasis. The effective echo
works in the same sector decomposition of both branches, in the up
eigenbasis, where the filled sea is the first basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .conventions import BOUNDARY_SIGN
from .model import ChainSpec, SpecError


class DegenerateFillingError(RuntimeError):
    """Zero-mode degeneracy at the Fermi level; the filled sea is ambiguous."""


# A symmetric eigensolver returns the eigenvalues of a matrix within a
# backward error of about u ||H||, u = 2^-53 = 1.1e-16, times a slowly
# growing factor of the dimension: a gap of 5.7e-16 ||H|| was seen to be
# rounding alone at dimension 256. Above that, the eigenvectors of the
# two levels still mix by about u ||H|| / gap, and the oracle's echo with
# them: on N <= 8 chains and spin stars at small lam, Jt <= 50, it missed
# the determinant and momentum echoes by up to 2.3e-8, above oracle.TOL,
# at gaps of 1e-13 to 1e-12 ||H||, and by at most 4.7e-10 above
# 1e-12 ||H||. The largest |eigenvalue| is ||H|| itself, so the rule does
# not depend on the unit of energy.
GAP_RTOL = 1e-12


@dataclass(frozen=True)
class BdGMatrix:
    """Blocks of the single-particle matrix and its 2N x 2N assembly."""

    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (ascending) and orthogonal eigenvectors of a C matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class CorrelationMatrix:
    """Ground-state two-point matrix r_ij = <Psi_i^dag Psi_j>, a rank-N projector."""

    r: np.ndarray


@dataclass(frozen=True)
class Propagator:
    """Single-particle propagator exp(sign * i * C * t)."""

    U: np.ndarray
    t: float
    sign: int


def _check_sector(boundary_sign: int) -> None:
    if isinstance(boundary_sign, bool) or boundary_sign not in (-1, 1):
        raise SpecError(f"boundary_sign must be +1 or -1, got {boundary_sign!r}")


def build_bdg(spec: ChainSpec, branch: str,
              boundary_sign: int = BOUNDARY_SIGN) -> BdGMatrix:
    """Assemble the A, B blocks and C for one qubit branch.

    branch "up" is the bare bath; branch "down" adds epsilon to the
    on-site field of every link site. boundary_sign (+1 or -1) is the
    fermion sector: the sign of the boundary bond relative to the bulk.
    """
    if branch not in ("up", "down"):
        raise SpecError(f"branch must be 'up' or 'down', got {branch!r}")
    _check_sector(boundary_sign)
    N, J = spec.N, spec.J
    eps_site = np.zeros(N)
    if branch == "down":
        eps_site[np.subtract(spec.links, 1)] = spec.epsilon

    sites = np.arange(N)
    A = np.zeros((N, N))
    B = np.zeros((N, N))
    A[sites, sites] = -2.0 * (J * spec.lam + eps_site)
    # bond (j, j+1) has amplitude -J, the boundary bond (N, 1) the sector
    # sign times that. Each line adds to N distinct entries of zeros, so an
    # untouched entry stays +0.0, and at N = 2, where the two bonds join
    # the same sites, the second line adds onto the first
    hop = np.where(sites == N - 1, float(boundary_sign), 1.0) * -J
    nxt = (sites + 1) % N
    A[sites, nxt] += hop
    A[nxt, sites] += hop
    B[sites, nxt] += hop
    B[nxt, sites] -= hop

    C = np.block([[A, B], [-B, -A]])
    return BdGMatrix(N=N, A=A, B=B, C=C)


def ring_modes(spec: ChainSpec,
               boundary_sign: int = BOUNDARY_SIGN) -> tuple[np.ndarray, np.ndarray, int]:
    """The up branch in the symmetry sector of the spec, from the bare
    ring's closed form (Lieb, Schultz and Mattis, 1961): its ascending
    energies e, its orthonormal modes x over the 2N rows,
    C_up x = x diag(e), and the power of the sector determinant.

    The bare ring is translation invariant, so its modes sit on the
    sector's momenta q = pi k / N in [0, pi], k odd for boundary_sign -1
    and even for +1, at e = +-2J |lam + e^{iq}|. Take the standing waves
    c_j = cos(q (j - s/2)), s_j = sin(q (j - s/2)) over the sites
    j = 0..N-1, centred on the axis s of spec.reflection_axis, and
    theta = arg(-(lam + cos q) + i sin q). C maps (c, 0), (0, s) onto each
    other and (s, 0), (0, c) likewise, and each q gives the columns, u on
    the first N rows and v on the second,
        +E: ( cos(theta/2) c, -sin(theta/2) s),  ( cos(theta/2) s, sin(theta/2) c),
        -E: ( sin(theta/2) c,  cos(theta/2) s),  (-sin(theta/2) s, cos(theta/2) c),
    in pairs of equal energy, each normalized by sqrt(2/N), or sqrt(1/N)
    at q = 0 and pi, where s = 0 or c = 0 and one column of each pair
    vanishes and is dropped.

    Under j -> s - j (mod N), c is even and s odd: a wave that wraps
    round the ring picks up e^{iqN}, which is the sector sign, so the
    sign of the boundary bond is built in. The reflection, taken with
    the opposite sign on the second half of the rows, commutes with
    both branches, and the c-first columns are its sector +1: one of
    each pair, N columns, kept with the power 2 (see the echo module).
    With no axis every column that does not vanish is kept, 2N of them,
    with the power 1. The spec's epsilon does not enter: this is the up
    branch alone.
    """
    _check_sector(boundary_sign)
    n, axis = spec.N, spec.reflection_axis
    k = np.arange((1 - boundary_sign) // 2, n + 1, 2)
    # e^{i pi r / 2N}, exact at the quarter turns, so that q = pi pairs
    # nothing, its energy is exact and its waves vanish exactly
    phase = np.exp(0.5j * np.pi / n * np.arange(4 * n))
    phase[n::n] = 1j, -1.0, -1j
    x, y = spec.lam + phase[2 * k].real, phase[2 * k].imag
    # (cos(theta/2), sin(theta/2)) at each q times the closed form's scale,
    # as one complex number: the float64 views of c and i s times it are
    # the u and v of the +E column beside those of the -E one
    half = (np.sqrt(np.where((k == 0) | (k == n), 1.0, 2.0) / n)
            * np.exp(0.5j * np.arctan2(y, -x)))[:, None]
    # e^{iq(j - s/2)} at every site, whose parts are (c, s), centred on
    # s = 0 where there is no axis; there -i times it adds the waves
    # (s, -c), whose c-first columns are the other column of each pair
    z = phase[(2 * np.arange(n)[:, None] - (axis or 0)) * k % (4 * n)][..., None]
    if axis is None:
        z = z * [1.0, -1j]
    waves = np.concatenate([(z.real * half).view(np.float64),
                            (z.imag * (1j * half)).view(np.float64)]).reshape(2 * n, -1)
    e = np.tile(np.outer(2.0 * spec.J * np.hypot(x, y), [1.0, -1.0]), z.shape[-1]).ravel()
    kept = np.flatnonzero((waves * waves).sum(axis=0) > 0.5)
    order = kept[np.argsort(e[kept], kind="stable")]
    return e[order], waves[:, order], 1 if axis is None else 2


def diagonalize(m: BdGMatrix) -> SpectralDecomp:
    """Full spectrum of C; eigenvalues ascending, eigenvectors orthogonal."""
    eigenvalues, eigenvectors = np.linalg.eigh(m.C)
    return SpectralDecomp(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def ground_energy(d: SpectralDecomp) -> float:
    """Energy of the filled sea: half the sum of the N negative modes."""
    n = d.eigenvalues.size // 2
    return 0.5 * float(np.sum(d.eigenvalues[:n]))


def filled_count(e: np.ndarray, n: Optional[int] = None) -> int:
    """The number of filled levels of the ascending spectrum e.

    They are the n lowest where n is given, as the ground level (n = 1) of
    a many-body spectrum, and else the negative ones, as of a
    single-particle spectrum: the 2N spectrum of C, or a sector spectrum
    whose negation is the complementary sector. The gap at the filling
    boundary is e[n] - e[n - 1] in the first case and twice the smallest
    |e|, the gap of e together with -e, in the second. Raises
    DegenerateFillingError where that gap is not above GAP_RTOL times the
    largest |e|: the filled levels are then picked by rounding.
    """
    scale = float(np.max(np.abs(e)))
    if n is None:
        n = int(np.count_nonzero(e < 0))
        gap = 2.0 * float(np.min(np.abs(e)))
    else:
        gap = float(e[n] - e[n - 1])
    if not gap > GAP_RTOL * scale:
        raise DegenerateFillingError(
            f"filling boundary degenerate: gap {gap!r} is not above "
            f"{GAP_RTOL:g} of the largest |e| {scale!r}")
    return n


def ground_correlation(d: SpectralDecomp) -> CorrelationMatrix:
    """Two-point matrix of the ground state r = W W^T over the filled sea,
    the N negative-energy eigenvectors W.

    Raises DegenerateFillingError where filled_count finds the filling
    boundary degenerate; silently picking a sea would change the echo
    unpredictably.
    """
    n = filled_count(d.eigenvalues)
    w_occ = d.eigenvectors[:, :n]
    r = w_occ @ w_occ.T
    r = 0.5 * (r + r.T)
    return CorrelationMatrix(r=r)


def propagator(d: Union[SpectralDecomp, BdGMatrix], t: float, sign: int = 1) -> Propagator:
    """exp(sign * i * C * t) from the spectral decomposition.

    t = 0 returns the exact identity, so every echo path is exactly one
    at time zero.
    """
    if isinstance(d, BdGMatrix):
        d = diagonalize(d)
    if sign not in (-1, 1):
        raise SpecError(f"sign must be +1 or -1, got {sign!r}")
    dim = d.eigenvalues.size
    if t == 0.0:
        return Propagator(U=np.eye(dim, dtype=complex), t=0.0, sign=sign)
    w = d.eigenvectors
    phases = np.exp(1j * sign * d.eigenvalues * float(t))
    return Propagator(U=(w * phases) @ w.conj().T, t=float(t), sign=sign)


def _unwrap(u) -> np.ndarray:
    return u.U if isinstance(u, Propagator) else np.asarray(u)


def gaussian_overlap(r: Union[CorrelationMatrix, np.ndarray],
                     factors: Sequence[Union[Propagator, np.ndarray]],
                     ) -> tuple[float, float]:
    """|det(1 - r + r U_1 U_2 ... U_n)| and its natural logarithm.

    The factors are multiplied in the order given (U_1 leftmost). The
    determinant is LU-factorized with log-magnitude accumulation, so the
    value may underflow to 0.0 while the log stays finite and exact.
    """
    rm = r.r if isinstance(r, CorrelationMatrix) else np.asarray(r)
    dim = rm.shape[0]
    string = None
    for u in factors:
        mat = _unwrap(u)
        if mat.shape != (dim, dim):
            raise SpecError(
                f"propagator dimension {mat.shape} does not match "
                f"correlation matrix dimension {(dim, dim)}"
            )
        string = mat if string is None else string @ mat
    if string is None:
        string = np.eye(dim)
    m = np.eye(dim, dtype=complex) - rm + rm @ string
    _, log_abs = np.linalg.slogdet(m)
    value = math.exp(log_abs) if log_abs > -745.0 else 0.0
    return value, float(log_abs)
