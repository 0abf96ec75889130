"""Loschmidt echo series: free decay, bang-bang pulsed, and effective theory.

The free and pulsed echo of a spec take one of two exact routes, picked
by ``route`` from the spec alone. A spin star (every site linked) with
even N takes the momentum route, spinstar.log_echo: N/2 independent 2x2
pair problems, O(N) per point whatever the number of pulse cycles. Every
other spec takes the determinant route below, as do the effective theory
and the convention calibration for every spec. Both routes work in the
calibrated antiperiodic fermion sector; the sector is not a field of the
spec, and only the calibration passes another one, to _BranchData.

On the determinant route every echo point is a determinant over the
occupied subspace, |det(W^H S W)| for the propagator string S, with W
the N filled modes of the up branch (see the freefermion module). The
kernel works in one symmetry sector, which the spec alone picks, as it
picks the route. Take the first axis s for which the reflection
j -> s - j (mod N) of the ring maps the link set to itself. Site signs
d_j, found by walking the ring bond by bond so that the boundary bond
keeps its sector sign, make it a signed permutation Pi with
Pi A Pi^T = A and Pi B Pi^T = -B in both branches. Then U = diag(Pi, -Pi)
commutes with C_up, C_down and every string S, and the real 2N x N
columns V that span U = +1 reduce each branch to the N x N matrix
V^T C V. Particle-hole conjugation maps the U = +1 sector onto U = -1,
its filled modes onto the empty ones of the other sector, and S onto
conj(S). So the determinant splits into the sector determinant and its
complementary minor, which have equal magnitude for a unitary S, and

    L = |det(W_+^H S_+ W_+)|^2,

with W_+ the filled modes of the sector, the eigenvectors of negative
energy (N/2 of them on every spec tried). A link set that no reflection
maps to itself, such as (1, 2, 4) at N = 6, takes V = 1, the whole 2N
space, and the power 1.

In the sector a branch is one real eigh, V^T C V = X diag(e) X^T, its
evolution e^{+iCt} is the diagonal phase E(t) = diag(e^{+iet}) in its
eigenbasis, and the two bases differ by the real orthogonal
K = X_up^T X_down, formed once per spec with one Newton-Schulz step.
With Q the filled rows of K, a free point is

    |det(W^H e^{+iC_up t} e^{-iC_down t} W)| = |det(Q E_down(-t) Q^T)|,

two real products and one LU of the filled size.

Time t under a pulse train with interval dt decomposes as t = 2 M dt + t_res;
the propagator string is, with F = e^{+iC_down dt} e^{+iC_up dt} and
B = conj(F),

    t_res <  dt:  F^M  e^{+iC_down t_res} e^{-iC_up t_res}  B^M
    t_res >= dt:  F^M  e^{+iC_down dt} e^{+iC_up s} e^{-iC_down s}
                       e^{-iC_up dt}  B^M,      s = t_res - dt,

which is continuous at the branch boundary and reduces to the free string
for M = 0, t < dt. As C is real symmetric, B = e^{+iC_up dt} F^H
e^{-iC_up dt}, so B^M W = e^{+iC_up dt} P^H up to column phases that
drop out of |det|, with the occupied rows P = W^H F^M. Those rows are
carried in the down basis, R = Q G^M with the unitary cycle
G = E_down(dt) K^T E_up(dt) K, and both residual strings read

    det(b^T E_up(alpha) a),   b = K E_down(x) R^T,   a = conj(K E_down(y) R^T),

with (x, alpha, y) = (t_res, dt - t_res, 0) in the first branch and
(dt, t_res - dt, t_res - dt) in the second. One factor depends on M
alone: a = conj(K R^T) before the mid-cycle pulse, b = K E_down(dt) R^T
after it.

One pulsed series is one _PulseTrain, which holds everything the series
carries from point to point: the rows R^T, the ladder of cycle powers
and the residual factor that depends on M alone. A point (log_det) then
costs one product with K, the product b^T E_up(alpha) a and one LU of
the filled size, and one more product with K where the held factor does
not serve it: at a new M, or on the other side of the mid-cycle pulse.
K is real, so each product with it is one real product on the float64
view of the complex D x n columns, a real D x 2n array: half the
arithmetic of casting K to complex. With D the sector dimension and n
the filled modes, a point costs 4 D^2 n flop for the product with K,
8 n^2 D for b^T E_up(alpha) a and 8/3 n^3 for the LU; at N = 100
(D = 100, n = 50) that is 2.0 + 2.0 + 0.33 Mflop, and 2.0 more where
the held factor does not serve it. Between points the rows advance by
the exact integer number of cycles d through a binary ladder of held
powers (G^T)^(2^j), one product per set bit of d. Each held power, and
the rows after every jump, get one Newton-Schulz step X (3 - X^H X) / 2,
so the rounding of K, of the squarings and of the jumps does not build
up into a drift of the echo over long trains. The ladder grows only to
the bit length of the largest jump, so at most log2(M) + 1 powers are
held.

The effective generator C_eff below commutes with U too, so the
effective point is det(L E_eff(t) L^H) to the same power, with
L = W_+^T Y in the eigenbasis Y, E_eff of V^T C_eff V and W_+ from the
sector decomposition of the up branch.

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


def _sector(spec: ChainSpec, boundary_sign: int) -> tuple[np.ndarray, int]:
    """The sector columns V and the power of the sector determinant.

    V (2N x N, real, orthonormal) spans U = +1 for the first axis s whose
    reflection j -> s - j (mod N) maps the link set to itself; with no
    such axis V is the identity and the power 1.
    """
    n, sites = spec.N, np.arange(spec.N)
    links = {j - 1 for j in spec.links}
    axis = next((s for s in range(n) if {(s - j) % n for j in links} == links), None)
    if axis is None:
        return np.eye(2 * n), 1
    image = (axis - sites) % n
    # bond (j, j+1) maps onto bond (s-j-1, s-j), so d_{j+1} = d_j times
    # the product of their signs; the walk closes, as every sign occurs twice
    bond = np.where(sites == n - 1, float(boundary_sign), 1.0)
    steps = bond * bond[(axis - sites - 1) % n]
    signs = np.cumprod(np.concatenate(([1.0], steps[:-1])))
    # U = diag(Pi, -Pi) takes site j of either half to s - j, with sign +-d_j
    perm = np.eye(2 * n)[:, np.concatenate([image, image + n])]
    projector = 0.5 * (np.eye(2 * n) + perm * np.concatenate([signs, -signs]))
    # one column per orbit {j, s - j} and half, of squared norm its diagonal
    # entry; a fixed site gives one column, the other is zero
    norm2 = projector.diagonal()
    keep = np.concatenate([sites <= image] * 2) & (norm2 > 0)
    return projector[:, keep] / np.sqrt(norm2[keep]), 2


def _modes(spec: ChainSpec, branch: str, boundary_sign: int):
    """Sector spectrum of one branch, as (e, X, V, power): the ascending
    eigenvalues e and eigenvectors X of V^T C V, with V and power from
    _sector.

    Raises SpecError for odd N, where the calibrated antiperiodic sector
    misses the oracle echo (by 8e-4 to 5e-2 at N = 3, 5, 7, one link,
    Jt <= 10). For the up branch, whose modes are filled, it raises
    DegenerateFillingError when the filled sea is ambiguous: a mode energy
    below half the 1e-12 gap that freefermion.ground_correlation asks of
    the 2N spectrum, which is the sector spectrum and its negative.
    """
    if spec.N % 2:
        raise SpecError(f"the determinant echo needs even N, got N={spec.N}")
    v, power = _sector(spec, boundary_sign)
    e, x = np.linalg.eigh(v.T @ freefermion.build_bdg(spec, branch, boundary_sign).C @ v)
    gap = float(np.min(np.abs(e)))
    if branch == "up" and 2.0 * gap < 1e-12:
        raise freefermion.DegenerateFillingError(
            f"filling boundary degenerate: mode energies +-{gap!r} "
            "at the Fermi level")
    return e, x, v, power


def _unitarized(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step x (3 - x^H x) / 2 toward orthonormal columns."""
    g = x.conj().T @ x
    g *= -0.5
    g.flat[::len(g) + 1] += 1.5
    return x @ g


def _real_times(k: np.ndarray, z: np.ndarray) -> np.ndarray:
    """k @ z for real k and complex z, as one real product on the float64
    view of z, which holds the real and imaginary part of each entry in
    adjacent columns."""
    return (k @ np.ascontiguousarray(z).view(np.float64)).view(np.complex128)


class _BranchData:
    """Both branches of one fermion sector in the symmetry sector of the spec.

    e_up and e_down are the sector mode energies, the down branch taken
    in the sector columns V that _modes returns for the up branch;
    k = X_up^T X_down is the real change of basis after one Newton-Schulz
    step (the product of two float64 eigh bases is orthogonal only to
    about 1e-15, and that error, powered over a long train, would set the
    drift of the echo); filled is the number of filled up modes (the first
    rows of k) and power the power of the sector determinant.
    Raises what _modes raises.
    """

    def __init__(self, spec: ChainSpec, boundary_sign: int = BOUNDARY_SIGN):
        self.e_up, x_up, v, self.power = _modes(spec, "up", boundary_sign)
        c_down = freefermion.build_bdg(spec, "down", boundary_sign).C
        self.e_down, x_down = np.linalg.eigh(v.T @ c_down @ v)
        self.filled = int(np.count_nonzero(self.e_up < 0))
        self.k = _unitarized(x_up.T @ x_down)


def _log_det(m: np.ndarray) -> float:
    """log|det m| of the matrix of every echo point."""
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
    """log L of the free string e^{+iC_up t} e^{-iC_down t} at each time,
    power times log|det(Q E_down(-t) Q^T)| with Q the filled rows of k."""
    q = data.k[:data.filled]
    return [data.power * _log_det((q * p.real) @ q.T + 1j * ((q * p.imag) @ q.T))
            for p in np.exp(-1j * np.outer(ts, data.e_down))]


class _PulseTrain:
    """One pulsed series on the determinant route, carried from point to point.

    It holds the occupied rows R^T at the current cycle count m, the
    ladder of held powers (G^T)^(2^j) of the cycle
    G^T = K^T E_up(dt) K E_down(dt), and the residual factor that depends
    on m and the branch alone, with its key (m, branch); a series at
    ascending times asks for each key in one run. Each held power gets one
    Newton-Schulz step, so rounding in K and in the squarings does not
    build up into a drift of the echo over long trains, and so do the rows
    after every jump: without it their Gram matrix drifted by about 1e-15
    per product, 2e-13 after 248 one-cycle jumps at N = 100, which moved
    log L by 1.6e-12. The ladder grows
    only as far as the largest jump asks, so a series whose rows reach M
    cycles holds at most M.bit_length() matrices.

    K multiplies the rows, and the cycle, as one real product on their
    float64 view (_real_times); the rows are kept C-ordered so that the
    view needs no copy. A point costs 4.3 Mflop at N = 100, 6.3 where
    the held factor is rebuilt (see the module docstring).
    """

    def __init__(self, data: _BranchData, dt: float):
        self.data, self.dt = data, dt
        cycle = _real_times(data.k.T, np.exp(1j * data.e_up * dt)[:, None] * data.k)
        self.powers = [_unitarized(cycle * np.exp(1j * data.e_down * dt))]
        self.rows = data.k[:data.filled].T.astype(complex, order="C")
        self.m, self.held = 0, (None, None)

    def advance(self, m: int) -> None:
        """Carry the rows forward to m >= self.m cycles, one product per
        set bit of the jump, and give them one Newton-Schulz step."""
        cycles, j = m - self.m, 0
        while cycles:
            if j == len(self.powers):
                self.powers.append(_unitarized(self.powers[-1] @ self.powers[-1]))
            if cycles & 1:
                self.rows = self.powers[j] @ self.rows
            cycles >>= 1
            j += 1
        if m != self.m:
            self.rows = _unitarized(self.rows)
        self.m = m

    def _k_rows(self, x: float) -> np.ndarray:
        """K E_down(x) R^T."""
        return _real_times(self.data.k,
                           np.exp(1j * self.data.e_down * x)[:, None] * self.rows)

    def log_det(self, t_res: float, branch: int) -> float:
        """log L of F^M mid B^M at t = 2 M dt + t_res, M = self.m.

        It is power times log|det(b^T E_up(alpha) a)|, with
        b = K E_down(x) R^T and a = conj(K E_down(y) R^T) for
        (x, alpha, y) = (t_res, dt - t_res, 0) in branch 1, before the
        mid-cycle pulse, and (dt, t_res - dt, t_res - dt) in branch 2,
        after it. The factor with y = 0 or x = dt depends on M alone and
        is held.
        """
        dt, first = self.dt, branch == 1
        x, alpha, y = (t_res, dt - t_res, 0.0) if first else (dt, t_res - dt, t_res - dt)
        if self.held[0] != (self.m, branch):
            self.held = ((self.m, branch),
                         self._k_rows(y).conj() if first else self._k_rows(x))
        fixed = self.held[1]
        a, b = (fixed, self._k_rows(x)) if first else (self._k_rows(y).conj(), fixed)
        m = b.T @ (np.exp(1j * self.data.e_up * alpha)[:, None] * a)
        return self.data.power * _log_det(m)


def _pulsed_log_dets(data: _BranchData, dt: float, ts: np.ndarray) -> list[float]:
    """log L of the pulsed string at ascending times; rows jump by whole cycles."""
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
    e, x, v, power = _modes(spec, "up", BOUNDARY_SIGN)
    gen = effective_bdg(spec, schedule)
    evals, vecs = np.linalg.eigh(v.T @ gen.C @ v)
    left = x[:, e < 0].T @ vecs
    right = left.conj().T
    ts = grid.times(schedule)
    log_dets = [power * _log_det((left * np.exp(1j * evals * t)) @ right) for t in ts]
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
