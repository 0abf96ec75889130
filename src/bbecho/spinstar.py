"""Closed forms for the spin-star model under fast pulsing.

For the qubit coupled uniformly to all N bath spins, the leading-order
echo amplitude under pulsing factorizes over momentum modes,

    <G| e^{i t H_eff} |G> = prod_{k=1}^{N/2} cos(8 t eps_eff Delta_k),

with Delta_k = sin(2 pi k / N) and the renormalized coupling
eps_eff = eps * J * dt / 2. For small arguments the product collapses to
the Gaussian envelope exp(-Gamma (t eps_eff)^2 / 2) at the amplitude
level, Gamma = 64 sum_k Delta_k^2 = 16 N.

The product is the leading term of the first-order average-Hamiltonian
expansion, taken mode by mode. Each branch acts on mode q as a 2x2
generator h_q = 2J[(lam - cos q) sz + sin q sy], with lam + eps/J in
place of lam on the down branch. One pulse cycle then acts as
exp(-2i dt (hbar_q +- K_q)) with the mean hbar_q = (h_up,q + h_down,q)/2
and K_q = i (dt/4) [h_down,q, h_up,q]. The product keeps only +-K_q, so
it holds while t w_q << 1, where w_q = 4J sqrt((lam' - cos q)^2 +
sin^2 q), lam' = lam + eps/(2J), is the gap of hbar_q. Beyond that,
hbar_q rotates each mode and averages the perpendicular K_q away: the
pulsed echo saturates while the product keeps decaying. To second order
in eps, mode q of the pulsed echo decays as the product's mode times
sinc^2(w_q t/2) [tan(w_q dt/2) / (w_q dt/2)]^2. At N = 300, eps = 0.01,
J dt = 0.1 this tracks the pulsed 1 - L to 6e-4 relative over Jt <= 10,
while the decay of the product alone is 700 to 1600 times the pulsed
decay at Jt = 10 (lam = 0.5, 1, 1.5).

The integer-k momenta of ``modes`` and the cosine product are the ones
of the periodic fermion problem. The calibrated echo works in the
antiperiodic sector, whose effective generator has eigenvalues
8 eps_eff sin(q) at the half-shifted momenta q = (2m+1) pi / N. Both
products nevertheless agree to machine precision while 8 t eps_eff is
small, because the equally spaced sums sum_q sin^{2p}(q) are independent
of the grid offset for 2p < N; the measured cross-path difference is
< 1e-13 on the regimes of interest and grows only at order
(8 t eps_eff)^N.

``log_echo`` owns the antiperiodic grid: it is the exact free and pulsed
echo of a spin-star spec with even N, to all orders, and the route the
echo module takes for every such spec. Its set-up, _PairProblems, is
built once per field: the pair fields of both branches, their norms and
the ground direction of each up mode. The free series and every pulsed
series of that field are then elementwise passes over the N/2 modes and
the times, with no matrix product; at N = 300 a call spends most of its
time in numpy's per-call overhead on these 150-element arrays, so the
echo module builds the set-up once per field and reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainSpec, PulseSchedule, SpecError, _as_int


@dataclass(frozen=True)
class MomentumMode:
    """One (k, -k) momentum pair of the periodic fermion problem."""

    k: int
    eps_k: float
    delta_k: float
    theta_k: float


@dataclass(frozen=True)
class EffectiveCoupling:
    """Renormalized system-bath coupling under pulsing: eps * J * dt / 2."""

    eps_eff: float


def _check_even(N: int) -> int:
    n = _as_int("N", N)
    if n < 2 or n % 2:
        raise SpecError(f"N must be even and at least 2, got {N!r}")
    return n


def modes(N: int, lam: float) -> list[MomentumMode]:
    """The N/2 momentum modes with dispersion and Bogoliubov angle."""
    n = _check_even(N)
    out = []
    for k in range(1, n // 2 + 1):
        q = 2.0 * math.pi * k / n
        eps_k = lam - math.cos(q)
        delta_k = math.sin(q)
        if eps_k != 0.0:
            theta_k = math.atan(delta_k / eps_k)
        else:
            theta_k = math.copysign(math.pi / 2.0, delta_k) if delta_k else 0.0
        out.append(MomentumMode(k=k, eps_k=eps_k, delta_k=delta_k, theta_k=theta_k))
    return out


def effective_coupling(epsilon: float, J: float, delta_t: float) -> EffectiveCoupling:
    for name, value in (("epsilon", epsilon), ("J", J), ("delta_t", delta_t)):
        if not math.isfinite(float(value)):
            raise SpecError(f"{name} must be finite, got {value!r}")
    return EffectiveCoupling(eps_eff=float(epsilon) * float(J) * float(delta_t) / 2.0)


def _delta_k(N: int) -> np.ndarray:
    k = np.arange(1, N // 2 + 1)
    return np.sin(2.0 * np.pi * k / N)


def amplitude_closed_form(N: int, eps_eff: float, t: float) -> float:
    """prod_k cos(8 t eps_eff Delta_k); the echo is this value squared.

    Accumulated as sign and log magnitude so that deep decay at large N
    underflows gracefully to 0.0 instead of losing the product.
    """
    n = _check_even(N)
    c = np.cos(8.0 * t * eps_eff * _delta_k(n))
    sign = 1.0 if (c < 0).sum() % 2 == 0 else -1.0
    log_abs = float(np.sum(np.log(np.abs(c))))
    return sign * math.exp(log_abs) if log_abs > -745.0 else 0.0


def log_echo_closed_form(N: int, eps_eff: float, ts) -> np.ndarray:
    """log L = 2 sum_k log|cos(8 t eps_eff Delta_k)| at each of the times ts.

    The log of the squared amplitude_closed_form, summed in its order; it
    stays finite where the echo itself underflows.
    """
    n = _check_even(N)
    t = np.atleast_1d(np.asarray(ts, dtype=float))[:, None]
    return 2.0 * np.sum(np.log(np.abs(np.cos(8.0 * t * eps_eff * _delta_k(n)))), axis=-1)


def gamma_coefficient(N: int) -> float:
    """Gamma = 64 sum_k Delta_k^2; equals 16 N identically for even N."""
    n = _check_even(N)
    return 64.0 * float(np.sum(_delta_k(n) ** 2))


def gaussian_envelope(N: int, eps_eff: float, t: float) -> float:
    """Small-argument echo envelope exp(-Gamma (t eps_eff)^2)."""
    gamma = gamma_coefficient(N)
    return math.exp(-gamma * (t * eps_eff) ** 2)


# The exact momentum route. An SU(2) matrix [[a, b], [-b*, a*]] is held as
# the pair (a, b) of complex arrays, one entry per mode (and per time).

def _pair_fields(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z up, z down, y) components of h_q on the antiperiodic momenta."""
    n = _check_even(spec.N)
    q = (2.0 * np.arange(n // 2) + 1.0) * np.pi / n
    hz_up = 2.0 * spec.J * (spec.lam - np.cos(q))
    hz_down = 2.0 * spec.J * (spec.lam + spec.epsilon / spec.J - np.cos(q))
    return hz_up, hz_down, 2.0 * spec.J * np.sin(q)


def _evolve(hz: np.ndarray, hy: np.ndarray, w: np.ndarray,
            t) -> tuple[np.ndarray, np.ndarray]:
    """e^{-i h t} for h = hz sz + hy sy of norm w = hypot(hz, hy); hy never
    vanishes on the grid."""
    s = np.sin(w * t) / w
    return np.cos(w * t) - 1j * s * hz, -s * hy


def _mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _dagger(x):
    return np.conj(x[0]), -x[1]


def _power(x, m: np.ndarray):
    """x^m = cos(m th) 1 + [sin(m th) / sin th] (x - cos th 1), cos th = Re a.

    th comes from atan2: arccos(Re a) keeps only half the digits near 0.
    """
    a, b = x
    sin_th = np.hypot(a.imag, np.abs(b))
    th = np.arctan2(sin_th, a.real)
    ratio = np.divide(np.sin(m * th), sin_th, out=np.zeros(np.broadcast(m, th).shape),
                      where=sin_th > 0.0)  # sin th = 0 is x = +-1, a zero vector part
    return np.cos(m * th) + 1j * ratio * a.imag, ratio * b


class _PairProblems:
    """The N/2 pair problems of one spin-star field, built once per spec.

    It holds the pair fields of both branches (_pair_fields), their norms
    w = hypot(hz, hy) and the direction (hz_up, hy) / w_up of the up
    generator, whose lower eigenvector is the ground state g_q of the
    mode; the free series and every pulsed series of the field then
    start from these. Raises SpecError for a spec that is not a spin star
    with even N.
    """

    def __init__(self, spec: ChainSpec):
        if not spec.is_spin_star:
            raise SpecError(f"log_echo needs a spin-star spec, got links={spec.links}")
        self.hz_up, self.hz_down, self.hy = _pair_fields(spec)
        self.w_up = np.hypot(self.hz_up, self.hy)
        self.w_down = np.hypot(self.hz_down, self.hy)
        self.nz, self.ny = self.hz_up / self.w_up, self.hy / self.w_up

    def log_echo(self, ts, delta_t: float | None = None) -> np.ndarray:
        """log L at the times ts, a scalar being one time, free or pulsed
        every delta_t; see log_echo."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        hz_up, hz_down, hy, w_up, w_down = (self.hz_up, self.hz_down, self.hy,
                                            self.w_up, self.w_down)
        if delta_t is None:
            t = ts[:, None]
            x = _mul(_dagger(_evolve(hz_up, hy, w_up, t)), _evolve(hz_down, hy, w_down, t))
        else:
            dt = float(delta_t)
            # split the 1-D times: on a column the ascending check would see no step
            m, t_res, first = (v[:, None] for v in PulseSchedule(dt).split(ts))
            up, down = _evolve(hz_up, hy, w_up, dt), _evolve(hz_down, hy, w_down, dt)
            s = t_res - dt
            # after M cycles: for t_res < dt the branches
            # finish as U_up(t_res) = U_up(s) U_up(dt) and U_down(s) U_down(dt),
            # otherwise as U_down(s) U_up(dt) and U_up(s) U_down(dt)
            a = _mul(_evolve(np.where(first, hz_up, hz_down), hy,
                             np.where(first, w_up, w_down), s), up)
            b = _mul(_evolve(np.where(first, hz_down, hz_up), hy,
                             np.where(first, w_down, w_up), s), down)
            a = _mul(a, _power(_mul(down, up), m))
            b = _mul(b, _power(_mul(up, down), m))
            x = _mul(_dagger(a), b)
        # <g|x|g> = Re x_a - i (nz Im x_a + ny Re x_b) for the ground state g
        # of the up generator along (nz, ny)
        a, b = x
        return np.sum(np.log(a.real ** 2 + (self.nz * a.imag + self.ny * b.real) ** 2),
                      axis=-1)


def log_echo(spec: ChainSpec, ts, delta_t: float | None = None) -> np.ndarray:
    """Exact log L of a spin-star spec at times ts, free or pulsed every delta_t.

    In the calibrated antiperiodic fermion sector, which holds the ground
    state for even N, both qubit branches split into N/2 pair problems at
    q = (2m+1) pi / N with the 2x2 generators h_q = 2J[(lam - cos q) sz +
    sin q sy], lam + eps/J in place of lam on the down branch (Quan et
    al., PRL 96, 140604 (2006); Rossini et al., PRA 75, 032333 (2007)).
    The echo is prod_q |<g_q| a_q^dag b_q |g_q>|^2, g_q the lower
    eigenvector of the up h_q and a_q, b_q the two branch strings of
    oracle.amplitude_pulsed for that mode. The M cycles of a pulse train
    are one closed-form SU(2) power, so a point costs O(N) whatever M is.
    A pulsed series needs ascending times (PulseSchedule.split), as on
    the other routes; a scalar time gives a one-point array.

    Each call builds the field's _PairProblems afresh, about a quarter of
    a free call on two points at N = 300; echo.family, which asks for
    several series of one field, builds it once and calls its log_echo.
    """
    return _PairProblems(spec).log_echo(ts, delta_t)
