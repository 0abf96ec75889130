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
directly and serve as the reference; the echo module evaluates the
N x N form in the real Majorana bases of the two branches, which take
one N x N SVD of A + B each; the SVD of the up branch also gives the
filled sea of the effective echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .conventions import BOUNDARY_SIGN
from .model import ChainSpec, SpecError


class DegenerateFillingError(RuntimeError):
    """Zero-mode degeneracy at the Fermi level; the filled sea is ambiguous."""


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


def build_bdg(spec: ChainSpec, branch: str,
              boundary_sign: int = BOUNDARY_SIGN) -> BdGMatrix:
    """Assemble the A, B blocks and C for one qubit branch.

    branch "up" is the bare bath; branch "down" adds epsilon to the
    on-site field of every link site. boundary_sign (+1 or -1) is the
    fermion sector: the sign of the boundary bond relative to the bulk.
    """
    if branch not in ("up", "down"):
        raise SpecError(f"branch must be 'up' or 'down', got {branch!r}")
    if isinstance(boundary_sign, bool) or boundary_sign not in (-1, 1):
        raise SpecError(f"boundary_sign must be +1 or -1, got {boundary_sign!r}")
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
    # boundary bond (N, 1); += so the doubled bond at N=2 accumulates
    bs = float(boundary_sign)
    A[N - 1, 0] += bs * (-J)
    A[0, N - 1] += bs * (-J)
    B[N - 1, 0] += bs * (-J)
    B[0, N - 1] += bs * (+J)

    C = np.block([[A, B], [-B, -A]])
    return BdGMatrix(N=N, A=A, B=B, C=C)


def diagonalize(m: BdGMatrix) -> SpectralDecomp:
    """Full spectrum of C; eigenvalues ascending, eigenvectors orthogonal."""
    eigenvalues, eigenvectors = np.linalg.eigh(m.C)
    return SpectralDecomp(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def ground_energy(d: SpectralDecomp) -> float:
    """Energy of the filled sea: half the sum of the N negative modes."""
    n = d.eigenvalues.size // 2
    return 0.5 * float(np.sum(d.eigenvalues[:n]))


def ground_correlation(d: SpectralDecomp) -> CorrelationMatrix:
    """Two-point matrix of the ground state r = W W^T over the filled sea,
    the N lowest eigenvectors W.

    Raises DegenerateFillingError when the spectrum is degenerate across
    the filling boundary; silently picking a sea would change the echo
    unpredictably.
    """
    e = d.eigenvalues
    n = e.size // 2
    if abs(e[n] - e[n - 1]) < 1e-12:
        raise DegenerateFillingError(
            f"filling boundary degenerate: e[{n}]={e[n - 1]!r}, "
            f"e[{n + 1}]={e[n]!r} (1-based)"
        )
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
