"""Loschmidt echo series: free decay, bang-bang pulsed, and effective theory.

The free and pulsed echo of a spec take one of two exact routes, picked
by ``route`` from the spec alone. A spin star (every site linked) with
even N on the calibrated antiperiodic boundary takes the momentum route,
spinstar.log_echo: N/2 independent 2x2 pair problems, O(N) per point
whatever the number of pulse cycles. Every other spec takes the
determinant route below, as do the effective theory and the convention
calibration for every spec.

On the determinant route every echo point is one determinant of the
freefermion module taken over the occupied subspace, |det(W^T S W)| for
the propagator string S, with W the N filled modes of the up branch. The
module works in the up-branch eigenbasis, where W picks the first N
modes and the down branch enters through K = V_up^T V_down, formed once
per spec. Each string writes its N x N matrix as L diag(phases) R, L of
size N x 2N and R of size 2N x N:

    free:       L = K[:N],       phases e^{-iE_down t},  R = L^T
    effective:  L = W^T V_eff,   phases e^{+iE_eff t},   R = L^H

Time t under a pulse train with interval dt decomposes as t = 2 M dt + t_res;
the propagator string is, with F = e^{+iC_down dt} e^{+iC_up dt} and
B = conj(F),

    t_res <  dt:  F^M  e^{+iC_down t_res} e^{-iC_up t_res}  B^M
    t_res >= dt:  F^M  e^{+iC_down dt} e^{+iC_up s} e^{-iC_down s}
                       e^{-iC_up dt}  B^M,      s = t_res - dt,

which is continuous at the branch boundary and reduces to the free string
for M = 0, t < dt. In the up eigenbasis one cycle is
F~ = K D_down(dt) K^T D_up(dt), D(x) = diag(e^{iEx}), formed once per dt.
Only the occupied rows X = F~^M[:N] are carried along an ascending grid,
one N x 2N by 2N x 2N product per cycle: F~^T = D_up F~ D_up^{-1}, so the
occupied columns of B^M are D_up X^H up to column phases that drop out
of |det|. Both residual strings then read

    L = Z D_up(sigma - dt) K,   phases e^{-iE_down sigma},   R = (X K)^H,

with Z = X, sigma = t_res in the first branch and Z = X F~,
sigma = t_res - dt in the second.

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
from .conventions import DET_EXPONENT
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


class _BranchData:
    """Both branch spectra in the up-branch eigenbasis.

    The occupied modes are the first N up modes, so k[:N] = W^T V_down.
    Raises DegenerateFillingError when the filled sea is ambiguous, and
    SpecError for odd N, where the calibrated antiperiodic sector misses
    the oracle echo (by 8e-4 to 5e-2 at N = 3, 5, 7, one link, Jt <= 10).
    """

    def __init__(self, spec: ChainSpec):
        if spec.N % 2:
            raise SpecError(f"the determinant echo needs even N, got N={spec.N}")
        up = freefermion.diagonalize(freefermion.build_bdg(spec, "up"))
        down = freefermion.diagonalize(freefermion.build_bdg(spec, "down"))
        self.spec = spec
        self.occupied = freefermion.occupied_modes(up)
        self.e_up, self.e_down = up.eigenvalues, down.eigenvalues
        self.k = up.eigenvectors.T @ down.eigenvectors


def _log_det(left: np.ndarray, phases: np.ndarray, right: np.ndarray) -> float:
    """log|det(left diag(phases) right)|, the determinant of every echo point."""
    return float(np.linalg.slogdet((left * phases) @ right)[1])


def _series(ts: np.ndarray, log_dets: Sequence[float], kind: str) -> EchoSeries:
    """Echo points from log|det|; t = 0 is exactly one on every route."""
    points = []
    for t, log_abs in zip(ts, log_dets):
        if t == 0.0:
            log_abs = 0.0
        value = math.exp(log_abs) if log_abs > -745.0 else 0.0
        points.append(EchoPoint(t=float(t), le=value ** DET_EXPONENT,
                                log_le=DET_EXPONENT * log_abs, kind=kind))
    return EchoSeries(points=tuple(points))


def _free_log_dets(data: _BranchData, ts: np.ndarray) -> list[float]:
    """log|det| of the free string e^{+iC_up t} e^{-iC_down t} at each time."""
    k_occ = data.k[:data.spec.N]
    return [_log_det(k_occ, np.exp(-1j * data.e_down * t), k_occ.T) for t in ts]


def _cycle(data: _BranchData, dt: float) -> np.ndarray:
    """One pulse cycle F~ = K D_down(dt) K^T D_up(dt) in the up eigenbasis."""
    return ((data.k * np.exp(1j * data.e_down * dt))
            @ (data.k.T * np.exp(1j * data.e_up * dt)))


def _residual_log_det(data: _BranchData, cycle: np.ndarray, rows: np.ndarray,
                      dt: float, t_res: float, branch: int) -> float:
    """log|det| of F^M mid B^M with rows = F~^M[:N]; branch picks the mid formula."""
    z, sigma = (rows, t_res) if branch == 1 else (rows @ cycle, t_res - dt)
    left = (z * np.exp(1j * data.e_up * (sigma - dt))) @ data.k
    return _log_det(left, np.exp(-1j * data.e_down * sigma), (rows @ data.k).conj().T)


def _pulsed_log_dets(data: _BranchData, dt: float, ts: np.ndarray) -> list[float]:
    """log|det| of the pulsed string at ascending times; rows advance per cycle."""
    if np.any(np.diff(ts) < 0):
        raise SpecError("pulsed series needs ascending times")
    n = data.spec.N
    cycle = _cycle(data, dt)
    rows = np.eye(n, 2 * n, dtype=complex)
    m_cur = 0
    log_dets = []
    for t in ts:
        m = int(math.floor(t / (2.0 * dt) + 1e-12))
        while m_cur < m:
            rows = rows @ cycle
            m_cur += 1
        t_res = t - 2.0 * m * dt
        log_dets.append(_residual_log_det(data, cycle, rows, dt, t_res,
                                          1 if t_res < dt else 2))
    return log_dets


def route(spec: ChainSpec) -> str:
    """The route of spec's free and pulsed echo: "momentum" for a spin star
    with even N on the antiperiodic boundary, else "determinant"."""
    if spec.is_spin_star and spec.N % 2 == 0 and spec.boundary_sign == -1:
        return "momentum"
    return "determinant"


def _log_dets(spec: ChainSpec) -> Callable[..., list[float]]:
    """log|det| at times ts on spec's route, as f(ts) free or f(ts, dt) pulsed.

    The momentum route's log L is that log|det|, since DET_EXPONENT is 1.
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
    gen = effective_bdg(spec, schedule)
    evals, vecs = np.linalg.eigh(gen.C)
    left = _BranchData(spec).occupied.T @ vecs
    ts = grid.times(schedule)
    log_dets = [_log_det(left, np.exp(1j * evals * t), left.conj().T) for t in ts]
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
