"""Loschmidt echo series: free decay, bang-bang pulsed, and effective theory.

The free and pulsed echo of a spec take one of two exact routes, picked
by ``route`` from the spec alone. A spin star (every site linked) with
even N takes the momentum route, spinstar.log_echo: N/2 independent 2x2
pair problems, O(N) per point whatever the number of pulse cycles. Every
other spec takes the determinant route below, as do the effective theory
and the convention calibration for every spec. Both routes work in the
calibrated antiperiodic fermion sector; the sector is not a field of the
spec, and only the calibration passes another one, to _BranchData.
Each route has one set-up object per field, built once in _log_dets:
spinstar._PairProblems (the pair fields, their norms and the ground
directions) on the momentum route, _BranchData (the sector spectra and
K) on the determinant route. Both answer log_echo(ts, delta_t=None),
log L free or pulsed every delta_t, so one set-up serves the free series
and every pulsed series of that field, and a family or a sweep sets up
each field once. The effective echo and the calibration build
_BranchData too.
Every route ends in _series, which makes log L at the times one
EchoSeries: the columns times, le and log_le, and one kind; no per-point
object is built on a run.

On the determinant route every echo point is a determinant over the
occupied subspace, |det(W^H S W)| for the propagator string S, with W
the N filled modes of the up branch (see the freefermion module). The
kernel works in one symmetry sector, which the spec alone picks, as it
picks the route. Take the first axis s for which the reflection
j -> s - j (mod N) of the ring maps the link set to itself
(ChainSpec.reflection_axis), and centre the bare ring's standing waves
on it: c_j = cos(q (j - s/2)) is even under the reflection and
s_j = sin(q (j - s/2)) odd, where a wave that wraps round the ring
picks up e^{iqN}, the sign of the boundary bond in the fermion sector.
Call Pi the reflection with those wrap signs on the sites. It maps the
hopping block A of both branches onto itself and the pairing block B,
odd under it, onto -B, so U = diag(Pi, -Pi) commutes with C_up, C_down
and every string S. Its sector U = +1, of dimension N, is spanned by
the columns (a c, b s), c on the first N rows and s on the second, and
U = -1 by the columns (a s, b c). Particle-hole conjugation swaps the
two halves, so it maps the U = +1 sector onto U = -1, its filled modes
onto the empty ones of the other sector, and S onto conj(S). So the
determinant splits into the sector determinant and its complementary
minor, which have equal magnitude for a unitary S, and

    L = |det(W_+^H S_+ W_+)|^2,

with W_+ the filled modes of the sector, the eigenvectors of negative
energy (N/2 of them on every spec tried). A link set that no reflection
maps to itself, such as (1, 2, 4) at N = 6, takes the whole 2N space
and the power 1.

In the sector a branch is C = X diag(e) X^T, X its D orthonormal modes
over the 2N rows, its evolution e^{+iCt} is the diagonal phase
E(t) = diag(e^{+iet}) in its eigenbasis, and the two bases differ by the
real orthogonal K = X_up^T X_down. The up branch is the bare ring, whose
modes are known in closed form (freefermion.ring_modes): X_up holds the
sector's standing waves (a c, b s), one of each energy, normalized by
the closed form's own scale. C_down differs from C_up by a diagonal
delta on the link sites, so in the up
eigenbasis it is diag(e_up) + Z^T diag(delta) Z, Z the link rows of
X_up, and one real eigh of that matrix gives e_down and K itself, which
gets one Newton-Schulz step. So the set-up forms no 2N x 2N matrix: the
closed form is O(N^2), and one eigh of the sector size is most of the
cost. At N = 100 with one link it takes about 1.4 ms, where the waves
take 0.15 ms; two eigh and two products with the sector basis took
3.8 ms (2 vCPUs, numpy with OpenBLAS).
With Q the filled rows of K, a free point is

    |det(W^H e^{+iC_up t} e^{-iC_down t} W)| = |det(Q E_down(-t) Q^T)|,

two real products and one LU of the filled size.

Time t under a pulse train with interval dt decomposes as t = 2 M dt + t_res,
split by PulseSchedule.split on all three routes (determinant, momentum
and oracle), which also refuses a pulsed series at descending times;
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
and the residual factor that depends on M alone. K is real, so each
product with it is one real product on the float64 view of the complex
D x n columns, a real D x 2n array: half the arithmetic of casting K to
complex. With D the sector dimension and n the filled modes, a product
with K costs 4 D^2 n flop, a complex product with a held power 8 D^2 n,
b^T E_up(alpha) a 8 n^2 D, a Newton-Schulz step on the rows 16 n^2 D and
the LU 8/3 n^3; at N = 100 (D = 100, n = 50) that is 2.0, 4.0, 2.0, 4.0
and 0.33 Mflop.

A point (log_det) costs one product with K, the product
b^T E_up(alpha) a and one LU, 4.3 Mflop at N = 100, and one more product
with K, 2.0 Mflop, where the held factor does not serve it. Between
points the rows advance by the exact integer number of cycles d. The
bits of d above the lowest take one product each with a binary ladder of
held powers (G^T)^(2^j), j >= 1. An odd d ends in one cycle through the
after-pulse held factor, as two real products with K:
K R'^T = E_up(dt) (K E_down(dt) R^T), then R'^T = K^T (K R'^T). It costs
as much as a ladder product, 4.0 Mflop, or 2.0 where the point before it
held K E_down(dt) R^T, and it leaves conj(K R'^T), the before-pulse held
factor of the new M, with no product. Each held power gets one
Newton-Schulz step X (3 - X^H X) / 2 and the rows get one at the end of
the jump that brings the products since their last step to four (on
K R'^T, before K^T multiplies it, where the jump ends in the fused
cycle), so the rounding of K, of the squarings and of the jumps does
not build up into a drift of the echo over long trains. On 51 points
with t <= 50, a point costs on average 6.8 Mflop at dt = 1.0, 11.2 at
dt = 0.3 and 14.2 at dt = 0.1, where a step and a ladder product per set
bit of every jump cost 10.3, 14.2 and 18.1. The ladder grows only to the
bit length of the largest jump, so at most log2(M) + 1 powers are held.

The effective generator C_eff below commutes with U too, so it is
taken in the sector, and there in the up eigenbasis of _BranchData,
where C_up is diag(e_up), C_down is K diag(e_down) K^T and the filled
sea is the first filled basis vectors. Its entries are

    (i dt/2) (K diag(e_down) K^T)[a, b] (e_b - e_a),

and with its eigenvalues w and eigenvectors Y the effective point is
|det(L diag(e^{+iwt}) L^H)| to the same power, L the filled rows of Y.
It needs no 2N matrix: the set-up of the free and pulsed echo serves it.

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


@dataclass(frozen=True, eq=False)
class EchoSeries:
    """One echo series as columns: the float arrays times, le and log_le,
    one entry per point, and the kind of the whole series ("free",
    "pulsed", "effective" or "analytic"). le is math.exp(log_le), and 0.0
    where log_le <= -745, derived once by _series, which builds every
    series; log_le stays finite where le underflows.
    """

    times: np.ndarray
    le: np.ndarray
    log_le: np.ndarray
    kind: str

    def rows(self) -> Iterator[tuple[float, float, float, str]]:
        """(t, le, log_le, kind) at each point, the numbers as Python floats:
        an np.float64 would print as np.float64(...) in a table cell."""
        return zip(self.times.tolist(), self.le.tolist(), self.log_le.tolist(),
                   [self.kind] * len(self.times))

    @property
    def points(self) -> tuple[EchoPoint, ...]:
        """The series as one EchoPoint per time, built at each access."""
        return tuple(EchoPoint(*row) for row in self.rows())


# The rows' Newton-Schulz step runs at the end of the jump that brings the
# products since the last one to this many. At N = 100, one link,
# lam = 1.5 and dt = 0.1, the rows' Gram matrix deviated from 1 by at most
# 9.6e-15 after any of 248 one-cycle jumps at 4 and by 1.6e-14 at 8,
# against 4.4e-16 with a step after every jump. Over 51 points with
# t <= 50 at lam = 1, log L stayed within 6.0e-14 of the extended-precision
# replay at 4, and reached 7.9e-14 at 8 and 1.1e-13 at 16. There a step
# every 4 products took the pulsed kernel from 122 to 100 ms summed over
# dt = 0.1, 0.2, 0.3, 0.5, 0.7 and 1.0, where the fused odd cycle alone
# gave 118 ms (2 vCPUs, numpy with OpenBLAS).
_STEP_EVERY = 4


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
    """The determinant route's set-up: both branches of one fermion sector
    in the symmetry sector of the spec, built once per field.

    e_up and e_down are the ascending mode energies of each branch in the
    sector, and power is that of the sector determinant;
    k = X_up^T X_down is the real change of basis between their
    eigenvectors; filled is the number of filled up modes, the first rows
    of k. X_up is the bare ring's standing waves centred on the
    reflection axis, the c-first columns that span the sector
    (freefermion.ring_modes). e_down and k come from one eigh of the down
    branch in the up eigenbasis, diag(e_up) + Z^T diag(delta) Z with Z
    the link rows of X_up, so a field costs O(N^2) and one eigh of the
    sector size, with no build_bdg and no 2N matrix (see the module
    docstring). k gets one Newton-Schulz step: an eigh basis is
    orthogonal only to about 1e-15, and that error, powered over a long
    train, would set the drift of the echo. log_echo serves the free
    series and every pulsed series of the field, and loschmidt_effective
    forms its generator from the same fields.

    Raises SpecError for odd N, where the calibrated antiperiodic sector
    misses the oracle echo (by 8e-4 to 5e-2 at N = 3, 5, 7, one link,
    Jt <= 10). The filled modes are the negative ones, counted by
    freefermion.filled_count, which raises DegenerateFillingError where
    that choice is ambiguous. That guard sees the fermion levels of one
    sector only, not a degenerate spin ground level: there, as at
    lam = 0 or at lam = 1e-3 with N = 8, this route returns the echo of
    the even-parity ground state (prod sigma^z = +1, the antiperiodic
    sector's vacuum), while the oracle raises DegenerateGroundStateError.
    """

    def __init__(self, spec: ChainSpec, boundary_sign: int = BOUNDARY_SIGN):
        if spec.N % 2:
            raise SpecError(f"the determinant echo needs even N, got N={spec.N}")
        self.e_up, x_up, self.power = freefermion.ring_modes(spec, boundary_sign)
        self.filled = freefermion.filled_count(self.e_up)
        # C_down - C_up is diagonal: -2 epsilon on the link sites of the
        # first half, +2 epsilon on those of the second. In the up
        # eigenbasis it is z^T diag(delta) z, z the link rows of the up
        # modes, so the eigenvectors of diag(e_up) + z^T diag(delta) z
        # are X_up^T X_down itself
        sites = np.subtract(spec.links, 1)
        z = x_up[np.concatenate([sites, sites + spec.N])]
        delta = np.repeat([-2.0 * spec.epsilon, 2.0 * spec.epsilon], len(sites))
        self.e_down, k = np.linalg.eigh(np.diag(self.e_up) + z.T @ (delta[:, None] * z))
        self.k = _unitarized(k)

    def log_echo(self, ts, delta_t: float | None = None) -> list[float]:
        """log L at the times ts, free or pulsed every delta_t.

        Free, a point is power times log|det(Q E_down(-t) Q^T)| with Q the
        filled rows of k. Pulsed, the times must ascend, and one
        _PulseTrain carries the rows from point to point by whole cycles.
        """
        if delta_t is None:
            q = self.k[:self.filled]
            return [self.power * _log_det((q * p.real) @ q.T + 1j * ((q * p.imag) @ q.T))
                    for p in np.exp(-1j * np.outer(ts, self.e_down))]
        cycles, residuals, firsts = PulseSchedule(delta_t).split(ts)
        train = _PulseTrain(self, delta_t)
        log_dets = []
        for m, t_res, first in zip(cycles.tolist(), residuals.tolist(), firsts.tolist()):
            train.advance(int(m))
            log_dets.append(train.log_det(t_res, first))
        return log_dets


def _log_det(m: np.ndarray) -> float:
    """log|det m| of the matrix of every echo point."""
    return float(np.linalg.slogdet(m)[1])


def _series(ts: np.ndarray, log_dets: Sequence[float], kind: str) -> EchoSeries:
    """The echo series of log L at the times ts; t = 0 is exactly one on
    every route.

    Raises FloatingPointError where log L is NaN or +inf, which no echo
    is; -inf, an echo of exactly zero, is kept.
    """
    ts = np.asarray(ts, dtype=float)
    log_le = np.where(ts == 0.0, 0.0, log_dets)
    for t, x in zip(ts.tolist(), log_le.tolist()):
        if not x < math.inf:
            raise FloatingPointError(f"echo at t = {t!r} has log L = {x}")
    # math.exp, not np.exp, which differs in the last bit on some points
    le = [math.exp(x) if x > -745.0 else 0.0 for x in log_le.tolist()]
    return EchoSeries(times=ts, le=np.array(le), log_le=log_le, kind=kind)


class _PulseTrain:
    """One pulsed series on the determinant route, carried from point to point.

    It holds the occupied rows R^T at the current cycle count m, the
    ladder of held powers (G^T)^(2^j) of the cycle
    G^T = K^T E_up(dt) K E_down(dt), and the residual factor that depends
    on m and the side of the mid-cycle pulse alone, with its key
    (m, first); a series at ascending times asks for each key in one run.
    An odd jump ends in one cycle through the after-pulse held factor,
    reused where its key is (m - 1, False), and leaves the before-pulse
    one of the new m. Each held power gets one Newton-Schulz step, so
    rounding in K and in the squarings does not build up into a drift of
    the echo over long trains, and so do the rows once every _STEP_EVERY
    products: with no step their Gram matrix drifted by 1e-15 to 2e-15
    per product, 2e-13 after 248 one-cycle jumps at N = 100, which moved
    log L by 1.6e-12. The ladder grows only as far as the largest jump
    asks, so a series whose rows reach M cycles holds at most
    M.bit_length() matrices, and one whose jumps are all one cycle holds
    none: the first jump of two cycles or more builds the one-cycle power
    G^T, which the ladder only squares.

    K multiplies the rows, and the cycle, as one real product on their
    float64 view (_real_times); the rows are kept C-ordered so that the
    view needs no copy. At N = 100 a point costs 4.3 Mflop, 6.3 where the
    held factor is rebuilt, and a jump 4.0 Mflop per product, with a
    4.0 Mflop step every fourth product (see the module docstring).
    """

    def __init__(self, data: _BranchData, dt: float):
        self.data, self.dt = data, dt
        self.up_phase = np.exp(1j * data.e_up * dt)[:, None]
        self.powers = []
        self.rows = data.k[:data.filled].T.astype(complex, order="C")
        self.m, self.held, self.products = 0, (None, None), 0

    def advance(self, m: int) -> None:
        """Carry the rows forward to m >= self.m cycles: one product per
        set bit of the jump above the lowest, then, for an odd jump, the
        last cycle through the after-pulse held factor. The rows get a
        Newton-Schulz step at the end of the jump once _STEP_EVERY
        products have run since their last one."""
        jump = m - self.m
        cycles, j = jump >> 1, 1
        while cycles:
            if not self.powers:
                # the one-cycle power is read only to square it
                cycle = _real_times(self.data.k.T, self.up_phase * self.data.k)
                self.powers.append(_unitarized(cycle * np.exp(1j * self.data.e_down * self.dt)))
            if j == len(self.powers):
                self.powers.append(_unitarized(self.powers[-1] @ self.powers[-1]))
            if cycles & 1:
                self.rows = self.powers[j] @ self.rows
                self.products += 1
            cycles >>= 1
            j += 1
        self.products += jump & 1
        due = self.products >= _STEP_EVERY
        if jump & 1:
            # K R'^T = E_up(dt) K E_down(dt) R^T, then R'^T = K^T (K R'^T);
            # held keys never pass self.m, so (m - 1, False) is fresh only
            # where the ladder did not move the rows
            after = (self.held[1] if self.held[0] == (m - 1, False)
                     else self._k_rows(self.dt))
            k_rows = self.up_phase * after
            if due:
                k_rows = _unitarized(k_rows)
            self.rows = _real_times(self.data.k.T, k_rows)
            self.held = ((m, True), k_rows.conj())
        elif due:
            self.rows = _unitarized(self.rows)
        if due:
            self.products = 0
        self.m = m

    def _k_rows(self, x: float) -> np.ndarray:
        """K E_down(x) R^T."""
        return _real_times(self.data.k,
                           np.exp(1j * self.data.e_down * x)[:, None] * self.rows)

    def log_det(self, t_res: float, first: bool) -> float:
        """log L of F^M mid B^M at t = 2 M dt + t_res, M = self.m, with
        first as PulseSchedule.split gives it: t_res < dt.

        It is power times log|det(b^T E_up(alpha) a)|, with
        b = K E_down(x) R^T and a = conj(K E_down(y) R^T) for
        (x, alpha, y) = (t_res, dt - t_res, 0) when first, before the
        mid-cycle pulse, and (dt, t_res - dt, t_res - dt) after it. The
        factor with y = 0 or x = dt depends on M alone and is held.
        """
        dt = self.dt
        x, alpha, y = (t_res, dt - t_res, 0.0) if first else (dt, t_res - dt, t_res - dt)
        if self.held[0] != (self.m, first):
            self.held = ((self.m, first),
                         self._k_rows(y).conj() if first else self._k_rows(x))
        fixed = self.held[1]
        a, b = (fixed, self._k_rows(x)) if first else (self._k_rows(y).conj(), fixed)
        m = b.T @ (np.exp(1j * self.data.e_up * alpha)[:, None] * a)
        return self.data.power * _log_det(m)


def route(spec: ChainSpec) -> str:
    """The route of spec's free and pulsed echo: "momentum" for a spin star
    with even N, else "determinant"."""
    if spec.is_spin_star and spec.N % 2 == 0:
        return "momentum"
    return "determinant"


def _log_dets(spec: ChainSpec) -> Callable[..., np.ndarray | list[float]]:
    """log L at times ts on spec's route, as f(ts) free or f(ts, dt) pulsed.

    The route's set-up is built here, once per spec, and its log_echo
    serves every series f is asked for: spinstar._PairProblems on the
    momentum route, _BranchData on the determinant route. On the
    determinant route log L is power times the log|det| of the sector,
    2 log|det_+| where a reflection axis exists: the log|det| of the
    whole 2N string, on which the calibrated exponent
    conventions.DET_EXPONENT is 1.
    """
    return (spinstar._PairProblems if route(spec) == "momentum" else _BranchData)(spec).log_echo


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
    """Leading-order generator of the residual decay under fast pulsing,
    over the whole 2N space: the reference that tests hold the sector
    form of loschmidt_effective against.

    C_down - C_up is diagonal, delta = -2 epsilon on the link sites of the
    first half and +2 epsilon on those of the second, so the commutator
    [C_down, C_up] has the entries (delta_a - delta_b) C_up[a, b]. The
    transverse field sits on the diagonal, where delta_a - delta_b is
    zero, so the entries are field-independent.
    """
    cu = freefermion.build_bdg(spec, "up").C
    link = np.zeros(spec.N)
    link[np.subtract(spec.links, 1)] = 2.0 * spec.epsilon
    delta = np.concatenate([-link, link])
    c_eff = 1j * (schedule.delta_t / 2.0) * (delta[:, None] - delta) * cu
    return EffectiveGenerator(N=spec.N, C=c_eff)


def loschmidt_effective(spec: ChainSpec, schedule: PulseSchedule,
                        grid: TimeGrid) -> EchoSeries:
    """Leading-order prediction |<G| e^{i t C_eff} ...>| on cycle-aligned times.

    The generator is taken in the up eigenbasis of _BranchData, where
    C_up is diag(e_up), C_down is K diag(e_down) K^T and the filled sea is
    the first filled basis vectors: its entries are
    i (dt/2) (K diag(e_down) K^T)[a, b] (e_b - e_a), and a point is power
    times log|det(L diag(e^{+iwt}) L^H)|, with w its eigenvalues and L the
    filled rows of its eigenvectors.

    It omits the mean generator (C_up + C_down) / 2, so it holds only
    while t |w| << 1 for the mode gaps w of that generator. Its error
    grows with t |w|; a smaller delta_t shrinks the decay and the error
    alike but not their ratio.
    """
    if grid.mode != "cycles":
        raise SpecError("loschmidt_effective needs a cycle-aligned grid")
    data = _BranchData(spec)
    down = (data.k * data.e_down) @ data.k.T
    gen = 1j * (schedule.delta_t / 2.0) * down * (data.e_up - data.e_up[:, None])
    evals, vecs = np.linalg.eigh(gen)
    left = vecs[:data.filled]
    right = left.conj().T
    ts = grid.times(schedule)
    log_dets = [data.power * _log_det((left * np.exp(1j * evals * t)) @ right) for t in ts]
    return _series(ts, log_dets, "effective")


def coherence_offdiagonal(qubit: QubitSpec, d_complex: complex, t: float) -> complex:
    """rho_down_up(t) = c_down c_up^* e^{i omega0 t} D(t).

    Only the oracle returns the complex D(t) (oracle.amplitude_free and
    oracle.amplitude_pulsed). The determinant and momentum routes keep
    L = |D|^2: their determinants and mode overlaps carry the phase of D
    on the way, and they drop it at the end.
    """
    return (qubit.c_down * np.conj(qubit.c_up)
            * complex(np.exp(1j * qubit.omega0 * float(t))) * d_complex)


def time_average(series: EchoSeries, center: float, half_width: float) -> float:
    """Mean echo over grid points in the closed window [center-w, center+w].

    The window's edges may pass the grid's span, and a grid point may lie
    outside the window, by a slack of 1e-12 times the grid's largest |t|:
    the rounding of times computed on the grid, and in no unit of time.
    """
    if half_width < 0:
        raise SpecError(f"half_width must be nonnegative, got {half_width}")
    ts = series.times
    slack = 1e-12 * max(abs(ts[0]), abs(ts[-1]))
    if center - half_width < ts[0] - slack or center + half_width > ts[-1] + slack:
        raise SpecError(
            f"window [{center - half_width}, {center + half_width}] not inside "
            f"grid span [{ts[0]}, {ts[-1]}]"
        )
    mask = np.abs(ts - center) <= half_width + slack
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
        # spec itself where the field is its own: a replace re-validates it
        log_dets = _log_dets(spec if lam == spec.lam else replace(spec, lam=lam))
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
