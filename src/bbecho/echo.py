"""Loschmidt echo series: free decay, bang-bang pulsed, and effective theory.

The free and pulsed echo of a spec take one of two exact routes, picked
by ``route`` from the spec alone. A spin star (every site linked) with
even N takes the momentum route, spinstar.log_echo: N/2 independent 2x2
pair problems, O(N) per point whatever the number of pulse cycles. Every
other spec takes the determinant route below, as do the effective theory
and the convention calibration for every spec. Both routes work in the
calibrated antiperiodic fermion sector; the sector is not a field of the
spec, and only the calibration passes another one, to _BranchData.

On the determinant route every echo point is one determinant of the
freefermion module taken over the occupied subspace, |det(W^T S W)| for
the propagator string S, with W the N filled modes of the up branch. The
module works in the up-branch eigenbasis, where W picks the first N
modes and the down branch enters through the real orthogonal
K = V_up^T V_down, formed once per spec. With D(x) = diag(e^{iEx}) on
either branch's energies, the free and effective points read
det(L diag(phases) R) over L of size N x 2N and R of size 2N x N:

    free:       L = K[:N],       phases D_down(-t),   R = L^T
    effective:  L = W^T V_eff,   phases D_eff(t),     R = L^H

Time t under a pulse train with interval dt decomposes as t = 2 M dt + t_res;
the propagator string is, with F = e^{+iC_down dt} e^{+iC_up dt} and
B = conj(F),

    t_res <  dt:  F^M  e^{+iC_down t_res} e^{-iC_up t_res}  B^M
    t_res >= dt:  F^M  e^{+iC_down dt} e^{+iC_up s} e^{-iC_down s}
                       e^{-iC_up dt}  B^M,      s = t_res - dt,

which is continuous at the branch boundary and reduces to the free string
for M = 0, t < dt. In the up eigenbasis one cycle is
F~ = K D_down(dt) K^T D_up(dt), and F~^T = D_up F~ D_up^{-1}, so the
occupied columns of B^M are those of the occupied rows of F~^M, up to
column phases that drop out of |det|. Those rows are carried in the down
eigenbasis, P = F~^M[:N] K = K[:N] G^M with the cycle
G = D_down(dt) K^T D_up(dt) K, and both residual strings read

    det(P' K^T D_up(a) K D_down(-sigma) P^H),

with P' = P, sigma = t_res, a = sigma - dt in the first branch and
P' = P D_down(dt), sigma = a = t_res - dt in the second.

The code keeps every complex operand transposed (P^T, 2N x N) and
C-contiguous, so that a product with the real K or K^T is one float64
product over the interleaved real and imaginary parts: numpy has no BLAS
path for a complex times real matmul. A point then costs two such real
products, one N x 2N by 2N x N complex product and one N x N LU. Between
points the rows advance by the exact integer number of cycles d through
a binary ladder of held powers G^(2^j), one 2N x 2N by 2N x N product
per set bit of d. The ladder lives for one series and grows only to the
bit length of the largest jump, so at most log2(M) + 1 powers are held.

For fast pulsing the echo is predicted by the effective generator
C_eff = i (dt/2) [C_down, C_up], whose entries do not depend on the
transverse field; field dependence survives only through the ground
state. The prediction is leading order: it drops the mean generator
(C_up + C_down) / 2, which rotates each mode at its gap w and averages
the residual decay away. Its error therefore grows with t |w| and is
not removed by shrinking dt, which scales the decay and the error
together (both as dt^2) but does not shrink their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import freefermion, spinstar
from .conventions import BOUNDARY_SIGN
from .model import ChainSpec, PulseSchedule, QubitSpec, SpecError, TimeGrid


@dataclass(frozen=True)
class EchoPoint:
    t: float
    le: float
    log_le: float
    kind: str


@dataclass(frozen=True)
class EchoSeries:
    points: tuple[EchoPoint, ...]

    @property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    @property
    def le(self) -> np.ndarray:
        return np.array([p.le for p in self.points])

    @property
    def log_le(self) -> np.ndarray:
        return np.array([p.log_le for p in self.points])


def _require_even_n(spec: ChainSpec) -> None:
    """SpecError for odd N, where the calibrated antiperiodic sector misses
    the oracle echo (by 8e-4 to 5e-2 at N = 3, 5, 7, one link, Jt <= 10)."""
    if spec.N % 2:
        raise SpecError(f"the determinant echo needs even N, got N={spec.N}")


class _BranchData:
    """Both branch spectra of one fermion sector in the up-branch eigenbasis.

    The occupied modes are the first N up modes, so k[:N] = W^T V_down.
    Raises DegenerateFillingError when the filled sea is ambiguous, and
    SpecError for odd N (see _require_even_n).
    """

    def __init__(self, spec: ChainSpec, boundary_sign: int = BOUNDARY_SIGN):
        _require_even_n(spec)
        up = freefermion.diagonalize(freefermion.build_bdg(spec, "up", boundary_sign))
        down = freefermion.diagonalize(freefermion.build_bdg(spec, "down", boundary_sign))
        freefermion.occupied_modes(up)  # the filling guard; W itself is k[:N]
        self.spec = spec
        self.e_up, self.e_down = up.eigenvalues, down.eigenvalues
        self.k = up.eigenvectors.T @ down.eigenvectors


def _log_det(m: np.ndarray) -> float:
    """log|det m| of the N x N matrix of every echo point."""
    return float(np.linalg.slogdet(m)[1])


def _real_times(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r @ z for real r and C-contiguous complex z as one float64 product."""
    return (r @ z.view(np.float64)).view(np.complex128)


def _series(ts: np.ndarray, log_dets: Sequence[float], kind: str) -> EchoSeries:
    """Echo points from log L; t = 0 is exactly one on every route."""
    points = []
    for t, log_le in zip(ts, log_dets):
        if t == 0.0:
            log_le = 0.0
        value = math.exp(log_le) if log_le > -745.0 else 0.0
        points.append(EchoPoint(t=float(t), le=value, log_le=log_le, kind=kind))
    return EchoSeries(points=tuple(points))


def _free_log_dets(data: _BranchData, ts: np.ndarray) -> list[float]:
    """log|det| of the free string e^{+iC_up t} e^{-iC_down t} at each time."""
    k_occ = data.k[:data.spec.N]
    k_occ_t = np.ascontiguousarray(k_occ.T)
    return [_log_det(_real_times(k_occ, np.exp(-1j * data.e_down * t)[:, None] * k_occ_t))
            for t in ts]


def _carried_rows(data: _BranchData) -> np.ndarray:
    """P^T at M = 0: the occupied rows P = K[:N], transposed and complex."""
    return np.ascontiguousarray(data.k[:data.spec.N].T, dtype=complex)


class _CyclePowers:
    """Held powers (G^T)^(2^j) of the cycle's transpose G^T = K^T D_up K D_down.

    The ladder grows only as far as the largest jump asks, so a series
    whose rows reach M cycles holds at most M.bit_length() matrices.
    """

    def __init__(self, data: _BranchData, dt: float):
        k_down = data.k * np.exp(1j * data.e_down * dt)
        self.powers = [_real_times(data.k.T, np.exp(1j * data.e_up * dt)[:, None] * k_down)]

    def advance(self, rows: np.ndarray, cycles: int) -> np.ndarray:
        """(G^T)^cycles rows, one product per set bit of cycles."""
        j = 0
        while cycles:
            if j == len(self.powers):
                self.powers.append(self.powers[-1] @ self.powers[-1])
            if cycles & 1:
                rows = self.powers[j] @ rows
            cycles >>= 1
            j += 1
        return rows


def _residual_log_det(data: _BranchData, rows: np.ndarray, dt: float,
                      t_res: float, branch: int) -> float:
    """log|det| of F^M mid B^M with rows = P^T; branch picks the mid formula.

    It evaluates the conjugate transpose of P' K^T D_up(a) K D_down(-sigma) P^H,
    scaling in place so that a point allocates few temporaries.
    """
    if branch == 1:
        sigma, a = t_res, t_res - dt
        v = _real_times(data.k, rows)
    else:
        sigma = a = t_res - dt
        v = _real_times(data.k, np.exp(1j * data.e_down * dt)[:, None] * rows)
    v *= np.exp(1j * data.e_up * a)[:, None]
    v = _real_times(data.k.T, v)
    v *= np.exp(-1j * data.e_down * sigma)[:, None]
    return _log_det(rows.T @ np.conjugate(v, out=v))


def _pulsed_log_dets(data: _BranchData, dt: float, ts: np.ndarray) -> list[float]:
    """log|det| of the pulsed string at ascending times; rows jump by whole cycles."""
    if np.any(np.diff(ts) < 0):
        raise SpecError("pulsed series needs ascending times")
    powers = _CyclePowers(data, dt)
    rows = _carried_rows(data)
    m_cur = 0
    log_dets = []
    for t in ts:
        m = int(math.floor(t / (2.0 * dt) + 1e-12))
        rows = powers.advance(rows, m - m_cur)
        m_cur = m
        t_res = t - 2.0 * m * dt
        log_dets.append(_residual_log_det(data, rows, dt, t_res,
                                          1 if t_res < dt else 2))
    return log_dets


def route(spec: ChainSpec) -> str:
    """The route of spec's free and pulsed echo: "momentum" for a spin star
    with even N, else "determinant"."""
    if spec.is_spin_star and spec.N % 2 == 0:
        return "momentum"
    return "determinant"


def _log_dets(spec: ChainSpec) -> Callable[..., list[float]]:
    """log L at times ts on spec's route, as f(ts) free or f(ts, dt) pulsed.

    On the determinant route log L is log|det|: the calibrated determinant
    exponent is 1 (conventions.DET_EXPONENT).
    """
    if route(spec) == "momentum":
        return lambda ts, dt=None: spinstar.log_echo(spec, ts, dt).tolist()
    data = _BranchData(spec)
    return lambda ts, dt=None: (_free_log_dets(data, ts) if dt is None
                                else _pulsed_log_dets(data, dt, ts))


def loschmidt_free(spec: ChainSpec, grid: TimeGrid) -> EchoSeries:
    """Echo without control: |<G| e^{+iH_up t} e^{-iH_down t} |G>|^2."""
    ts = grid.times()
    return _series(ts, _log_dets(spec)(ts), "free")


def loschmidt_pulsed(spec: ChainSpec, schedule: PulseSchedule,
                     grid: TimeGrid) -> EchoSeries:
    """Echo under the ideal-kick pulse train."""
    ts = grid.times(schedule)
    return _series(ts, _log_dets(spec)(ts, schedule.delta_t), "pulsed")


@dataclass(frozen=True)
class EffectiveGenerator:
    """Hermitian single-particle generator i (dt/2) [C_down, C_up]."""

    N: int
    C: np.ndarray


def effective_bdg(spec: ChainSpec, schedule: PulseSchedule) -> EffectiveGenerator:
    """Leading-order generator of the residual decay under fast pulsing.

    The transverse-field parts of C_down and C_up are identical and
    cancel in the commutator, so the entries are field-independent.
    """
    cu = freefermion.build_bdg(spec, "up").C
    cd = freefermion.build_bdg(spec, "down").C
    c_eff = 1j * (schedule.delta_t / 2.0) * (cd @ cu - cu @ cd)
    return EffectiveGenerator(N=spec.N, C=c_eff)


def loschmidt_effective(spec: ChainSpec, schedule: PulseSchedule,
                        grid: TimeGrid) -> EchoSeries:
    """Leading-order prediction |<G| e^{i t C_eff} ...>| on cycle-aligned times.

    It omits the mean generator (C_up + C_down) / 2, so it holds only
    while t |w| << 1 for the mode gaps w of that generator. Its error
    grows with t |w|; a smaller delta_t shrinks the decay and the error
    alike but not their ratio.
    """
    if grid.mode != "cycles":
        raise SpecError("loschmidt_effective needs a cycle-aligned grid")
    _require_even_n(spec)
    gen = effective_bdg(spec, schedule)
    evals, vecs = np.linalg.eigh(gen.C)
    up = freefermion.diagonalize(freefermion.build_bdg(spec, "up"))
    left = freefermion.occupied_modes(up).T @ vecs
    right = left.conj().T
    ts = grid.times(schedule)
    log_dets = [_log_det((left * np.exp(1j * evals * t)) @ right) for t in ts]
    return _series(ts, log_dets, "effective")


def coherence_offdiagonal(qubit: QubitSpec, d_complex: complex, t: float) -> complex:
    """rho_down_up(t) = c_down c_up^* e^{i omega0 t} D(t).

    D(t) must come from the oracle path; the determinant path carries no
    phase information.
    """
    return (qubit.c_down * np.conj(qubit.c_up)
            * complex(np.exp(1j * qubit.omega0 * float(t))) * d_complex)


def time_average(series: EchoSeries, center: float, half_width: float) -> float:
    """Mean echo over grid points in the closed window [center-w, center+w]."""
    if half_width < 0:
        raise SpecError(f"half_width must be nonnegative, got {half_width}")
    ts = series.times
    if center - half_width < ts[0] - 1e-9 or center + half_width > ts[-1] + 1e-9:
        raise SpecError(
            f"window [{center - half_width}, {center + half_width}] not inside "
            f"grid span [{ts[0]}, {ts[-1]}]"
        )
    mask = np.abs(ts - center) <= half_width + 1e-12
    if not np.any(mask):
        raise SpecError("no grid points inside the averaging window")
    return float(np.mean(series.le[mask]))


@dataclass(frozen=True)
class SweepRow:
    lam: float
    delta_t: float
    le_pulsed: float
    le_free: float
    ratio: Optional[float]


def family(spec: ChainSpec, lambdas: Sequence[float], delta_ts: Sequence[float],
           ts: np.ndarray) -> Iterator[tuple]:
    """Echo series (lam, dt, series) at the ascending times ts, lam outer.

    Per field, one set-up of the route serves the uncontrolled series,
    yielded first with dt None, and then one pulsed series per interval
    in the order of delta_ts.
    """
    for lam in lambdas:
        log_dets = _log_dets(replace(spec, lam=lam))
        yield lam, None, _series(ts, log_dets(ts), "free")
        for dt in delta_ts:
            yield lam, dt, _series(ts, log_dets(ts, dt), "pulsed")


def sweep(spec: ChainSpec, lambdas: Sequence[float], delta_ts: Sequence[float],
          t_star: float, half_width: float, window_points: int = 101,
          threads: int = 1) -> list[SweepRow]:
    """Time-averaged pulsed echo against the uncontrolled value.

    One row per (lam, dt) point, lam outer and dt inner, each holding the
    window-averaged pulsed echo, the uncontrolled echo (computed once per
    lam), and their ratio. The ratio is None where the uncontrolled echo
    is below 1e-14 (deep decay, meaningless division). The series are
    those of family, on the window grid. threads must be 1: the series
    are computed in one loop, and the parameter is kept only for callers
    that still pass it.
    """
    if threads != 1:
        raise SpecError(f"sweep computes in one thread; threads={threads!r} "
                        "is not supported")
    lambdas = list(lambdas)
    delta_ts = list(delta_ts)
    if not lambdas or not delta_ts:
        raise SpecError("sweep needs nonempty lambda and delta_t axes")
    if half_width <= 0:
        raise SpecError("sweep needs a positive averaging half-width")
    if window_points < 2:
        raise SpecError(f"sweep needs window_points >= 2, got {window_points}")
    window = np.linspace(t_star - half_width, t_star + half_width, window_points)
    if window[0] < 0:
        raise SpecError("averaging window extends below t = 0")

    rows: list[SweepRow] = []
    for lam, dt, series in family(spec, lambdas, delta_ts, window):
        average = time_average(series, t_star, half_width)
        if dt is None:
            le_free = average
            continue
        ratio = average / le_free if le_free >= 1e-14 else None
        rows.append(SweepRow(lam=float(lam), delta_t=float(dt), le_pulsed=average,
                             le_free=le_free, ratio=ratio))
    return rows
