"""Loschmidt echo series: free decay, bang-bang pulsed, and effective theory.

The free and pulsed echo of a spec take one of two exact routes, picked
by ``route`` from the spec alone. A spin star (every site linked) with
even N takes the momentum route, spinstar.log_echo: N/2 independent 2x2
pair problems, O(N) per point whatever the number of pulse cycles. Every
other spec takes the determinant route below, as do the effective theory
and the convention calibration for every spec. Both routes work in the
calibrated antiperiodic fermion sector; the sector is not a field of the
spec, and only the calibration passes another one, to _BranchData.

On the determinant route every echo point is one N x N determinant over
the occupied subspace, |det(W^H S W)| for the propagator string S, with
W the N filled modes of the up branch (see the freefermion module). The
kernel works in the Majorana basis of the Lieb-Schultz-Mattis reduction
(Ann. Phys. 16, 407 (1961)), the real and imaginary parts of the fermion
modes. There C = [[A, B], [-B, -A]] becomes i times the real
antisymmetric [[0, Z^T], [-Z, 0]], Z = A + B, so a branch needs one
N x N SVD Z = Psi diag(e) Phi^T, whose singular values e are the mode
energies. In the basis O = Phi (+) Psi of a branch, e^{-iCt} is the
real rotation R(t): row k of the Phi half turns with row k of the Psi
half by the angle e_k t, N 2 x 2 rotations in all. The two branch bases
differ by the orthogonal K = O_up^T O_down = k_1 (+) k_2, with the N x N
blocks k_1 = Phi_up^T Phi_down and k_2 = Psi_up^T Psi_down formed once
per spec, and the filled up modes read W = O_up [1; i 1] / sqrt(2).

With Q = k_1^T k_2 and the diagonal c, s = cos, sin(e_down t), a free
point is

    |det(W^H e^{-iC_down t} W)| = |det(1/2 [c + Q c Q^T + i (Q s + s Q^T)])|,

one real N x N product and one LU.

Time t under a pulse train with interval dt decomposes as t = 2 M dt + t_res;
the propagator string is, with F = e^{+iC_down dt} e^{+iC_up dt} and
B = conj(F),

    t_res <  dt:  F^M  e^{+iC_down t_res} e^{-iC_up t_res}  B^M
    t_res >= dt:  F^M  e^{+iC_down dt} e^{+iC_up s} e^{-iC_down s}
                       e^{-iC_up dt}  B^M,      s = t_res - dt,

which is continuous at the branch boundary and reduces to the free string
for M = 0, t < dt. As C is real symmetric, F^T = e^{+iC_up dt} F
e^{-iC_up dt}, so B^M W = e^{+iC_up dt} P^H up to column phases that drop
out of |det|, with the occupied rows P = W^H F^M. Those rows are carried
in the down basis, P = P_0 G^M with P_0 = [k_1, -i k_2] / sqrt(2) and
the real orthogonal cycle G = R_down(-dt) K^T R_up(-dt) K, and both
residual strings read

    det(P R_down(-x) K^T R_up(alpha) K R_down(y) P^H),

with (x, alpha, y) = (t_res, t_res - dt, 0) in the first branch and
(dt, dt - t_res, t_res - dt) in the second.

One pulsed series is one _PulseTrain, which holds everything the series
carries from point to point: the rows, the ladder of cycle powers and two
work arrays. It keeps the rows transposed (P^T, 2N x N) and
C-contiguous, so that every real operator acts on them as one float64
product over the interleaved real and imaginary parts: K as one batched
product over the stacked (2, N, N) blocks, a rotation as one batched
product of N 2 x 2 matrices. A point (log_det) then costs two products
with K, two or three rotations, one N x 2N by 2N x N complex product and
one N x N LU. Between points the rows advance by the exact integer
number of cycles d through a binary ladder of held real powers G^(2^j),
one 2N x 2N by 2N x 2N product per set bit of d. Each held power gets one
Newton-Schulz step X (3 - X^T X) / 2, so the rounding of K and of the
squarings does not build up into a drift of the echo over long trains.
The ladder grows only to the bit length of the largest jump, so at most
log2(M) + 1 powers are held.

The effective point is det(L D_eff(t) L^H) with L = W^T V_eff, in the
eigenbasis V_eff, D_eff of C_eff below. Its filled sea comes from the
same SVD of the up branch: in the fermion basis W = [u; v] with
u = (Phi - Psi) / 2 and v = (Phi + Psi) / 2, so the effective echo takes
no 2N x 2N eigh of C_up.

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


def _modes(spec: ChainSpec, branch: str, boundary_sign: int):
    """SVD A + B = Psi diag(e) Phi^T of one branch, as (Psi, e, Phi^T).

    Raises SpecError for odd N, where the calibrated antiperiodic sector
    misses the oracle echo (by 8e-4 to 5e-2 at N = 3, 5, 7, one link,
    Jt <= 10). For the up branch, whose modes are filled, it raises
    DegenerateFillingError when the filled sea is ambiguous: a mode energy
    below half the 1e-12 gap that freefermion.ground_correlation asks of
    the 2N spectrum.
    """
    if spec.N % 2:
        raise SpecError(f"the determinant echo needs even N, got N={spec.N}")
    m = freefermion.build_bdg(spec, branch, boundary_sign)
    psi, e, phi_t = np.linalg.svd(m.A + m.B)
    if branch == "up" and 2.0 * e[-1] < 1e-12:
        raise freefermion.DegenerateFillingError(
            f"filling boundary degenerate: mode energies +-{float(e[-1])!r} "
            "at the Fermi level")
    return psi, e, phi_t


class _BranchData:
    """Both branches of one fermion sector, each in its own Majorana basis.

    e_up and e_down are the mode energies, and k stacks the blocks k_1
    and k_2 of K as one (2, N, N) array; k_t holds their transposes.
    Raises what _modes raises.
    """

    def __init__(self, spec: ChainSpec, boundary_sign: int = BOUNDARY_SIGN):
        psi_up, self.e_up, phi_up_t = _modes(spec, "up", boundary_sign)
        psi_down, self.e_down, phi_down_t = _modes(spec, "down", boundary_sign)
        self.spec = spec
        self.k = np.stack([phi_up_t @ phi_down_t.T, psi_up.T @ psi_down])
        self.k_t = np.ascontiguousarray(self.k.transpose(0, 2, 1))


def _log_det(m: np.ndarray) -> float:
    """log|det m| of the N x N matrix of every echo point."""
    return float(np.linalg.slogdet(m)[1])


def _series(ts: np.ndarray, log_dets: Sequence[float], kind: str) -> EchoSeries:
    """Echo points from log L; t = 0 is exactly one on every route.

    Raises FloatingPointError where log L is NaN or +inf, which no echo
    is; -inf, an echo of exactly zero, is kept.
    """
    points = []
    for t, log_le in zip(ts, log_dets):
        if t == 0.0:
            log_le = 0.0
        if not log_le < math.inf:
            raise FloatingPointError(f"echo at t = {float(t)!r} has log L = {log_le}")
        value = math.exp(log_le) if log_le > -745.0 else 0.0
        points.append(EchoPoint(t=float(t), le=value, log_le=log_le, kind=kind))
    return EchoSeries(points=tuple(points))


def _free_log_dets(data: _BranchData, ts: np.ndarray) -> list[float]:
    """log|det| of the free string e^{+iC_up t} e^{-iC_down t} at each time,
    det(1/2 [c + Q c Q^T + i (Q s + s Q^T)]) with Q = k_1^T k_2."""
    q = data.k_t[0] @ data.k[1]
    q_t = np.ascontiguousarray(q.T)
    out = []
    for t in ts:
        half = 0.5 * np.exp(1j * data.e_down * t)
        m = np.empty(q.shape, dtype=complex)
        m.real = (q * half.real) @ q_t
        m.real.flat[::len(q) + 1] += half.real
        qs = q * half.imag
        m.imag = qs + q_t * half.imag[:, None]
        out.append(_log_det(m))
    return out


def _rotate(src: np.ndarray, e: np.ndarray, x: float, out: np.ndarray) -> np.ndarray:
    """R(x) src into out, both real (2, N, m): row k of either half turns
    with row k of the other by the angle e_k x, as one batched product of
    N 2 x 2 rotations. out must not overlap src."""
    c, s = np.cos(e * x), np.sin(e * x)
    np.matmul(np.array([[c, s], [-s, c]]).transpose(2, 0, 1), src.transpose(1, 0, 2),
              out=out.transpose(1, 0, 2))
    return out


def _orthogonalized(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step x (3 - x^T x) / 2 toward the nearest orthogonal matrix."""
    return x @ (1.5 * np.eye(len(x)) - 0.5 * (x.T @ x))


class _PulseTrain:
    """One pulsed series on the determinant route, carried from point to point.

    It holds the occupied rows P^T (times sqrt(2)) at the current cycle
    count m, the ladder of held powers (G^T)^(2^j) of the real cycle
    G^T = K^T R_up(dt) K R_down(dt), and two real (2, N, 2N) work arrays:
    allocating those afresh made a point at N = 100 about 40% slower
    (2 vCPUs, OpenBLAS). Each held power gets one Newton-Schulz step, so
    rounding in K and in the squarings does not build up into a drift of
    the echo over long trains. The ladder grows only as far as the
    largest jump asks, so a series whose rows reach M cycles holds at most
    M.bit_length() matrices.
    """

    def __init__(self, data: _BranchData, dt: float):
        self.data, self.dt = data, dt
        n = data.spec.N
        self.a, self.b = np.empty((2, n, 2 * n)), np.empty((2, n, 2 * n))
        x = _rotate(np.eye(2 * n).reshape(2, n, 2 * n), data.e_down, dt, self.a)
        y = _rotate(np.matmul(data.k, x), data.e_up, dt, self.b)
        np.matmul(data.k_t, y, out=x)
        self.powers = [_orthogonalized(x.reshape(2 * n, 2 * n))]
        # P^T at m = 0, the occupied up modes in the down basis, times
        # sqrt(2): [Phi_down^T Phi_up; -i Psi_down^T Psi_up], 2N x N complex
        self.rows = np.concatenate([data.k_t[0], -1j * data.k_t[1]])
        self.m = 0

    def advance(self, m: int) -> None:
        """Carry the rows forward to m >= self.m cycles, one product per
        set bit of the jump."""
        cycles, j = m - self.m, 0
        while cycles:
            if j == len(self.powers):
                self.powers.append(_orthogonalized(self.powers[-1] @ self.powers[-1]))
            if cycles & 1:
                self.rows = (self.powers[j] @ self.rows.view(np.float64)).view(np.complex128)
            cycles >>= 1
            j += 1
        self.m = m

    def log_det(self, t_res: float, branch: int) -> float:
        """log|det| of F^M mid B^M at t = 2 M dt + t_res, M = self.m.

        It is det(P^* R_down(-y) K^T R_up(-alpha) K R_down(x) P^T) / 2^N, with
        (x, alpha, y) = (t_res, t_res - dt, 0) in branch 1, before the
        mid-cycle pulse, and (dt, dt - t_res, t_res - dt) in branch 2,
        after it; /2^N undoes the sqrt(2) of the rows.
        """
        data, dt, a, b, rows = self.data, self.dt, self.a, self.b, self.rows
        x, alpha, y = ((t_res, t_res - dt, 0.0) if branch == 1
                       else (dt, dt - t_res, t_res - dt))
        _rotate(rows.view(np.float64).reshape(a.shape), data.e_down, x, a)
        np.matmul(data.k, a, out=b)
        _rotate(b, data.e_up, -alpha, a)
        np.matmul(data.k_t, a, out=b)
        w = (_rotate(b, data.e_down, -y, a) if y else b).reshape(rows.shape[0], -1)
        w = w.view(np.complex128)
        m = rows.T @ np.conjugate(w, out=w)
        m *= 0.5
        return _log_det(m)


def _pulsed_log_dets(data: _BranchData, dt: float, ts: np.ndarray) -> list[float]:
    """log|det| of the pulsed string at ascending times; rows jump by whole cycles."""
    if np.any(np.diff(ts) < 0):
        raise SpecError("pulsed series needs ascending times")
    cycles = PulseSchedule(dt).cycles(ts)
    train = _PulseTrain(data, dt)
    log_dets = []
    for t, m in zip(ts, cycles):
        train.advance(int(m))
        t_res = t - 2.0 * m * dt
        log_dets.append(train.log_det(t_res, 1 if t_res < dt else 2))
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
    psi, _, phi_t = _modes(spec, "up", BOUNDARY_SIGN)
    gen = effective_bdg(spec, schedule)
    evals, vecs = np.linalg.eigh(gen.C)
    # W^T for the filled sea W = [u; v], u = (Phi - Psi) / 2, v = (Phi + Psi) / 2
    left = 0.5 * np.concatenate([phi_t - psi.T, phi_t + psi.T], axis=1) @ vecs
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
