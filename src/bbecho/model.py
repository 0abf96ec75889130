"""Physical parameter records shared by every solver path.

Units: energies in units of the Ising coupling J, times in units of 1/J.
J is nevertheless kept as an explicit field so that derived couplings
(e.g. the renormalized eps*J*dt/2 under pulsing) are computed literally.

All records are immutable after construction and normalize/validate their
fields in ``__post_init__``, so an instance that exists is a valid one.
They are hashable and safe to share across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class SpecError(ValueError):
    """Invalid physical parameters or grid specification."""


def _as_int(name: str, value) -> int:
    if type(value) is int:  # the common case, before the slower tests below
        return value
    if isinstance(value, bool) or int(value) != value:
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChainSpec:
    """Transverse-field Ising bath plus qubit-bath coupling.

    Parameters
    ----------
    N : int
        Number of bath spins (N >= 2). Periodic chain, site N+1 == site 1.
    lam : float
        Transverse field in units of J (lam >= 0; critical at lam = 1).
    epsilon : float
        Qubit-bath coupling. Acts on every site in ``links`` when the
        qubit is in its excited state.
    links : tuple of int
        1-based bath sites the qubit couples to; stored sorted and
        deduplicated. ``links == (1, ..., N)`` is the spin-star model.
    J : float
        Ising bond energy (J > 0), default 1.
    """

    N: int
    lam: float
    epsilon: float
    links: tuple[int, ...]
    J: float = 1.0

    def __post_init__(self):
        n = _as_int("N", self.N)
        if n < 2:
            raise SpecError(f"N must be at least 2, got {n}")
        object.__setattr__(self, "N", n)
        for name in ("lam", "epsilon", "J"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.J <= 0:
            raise SpecError(f"J must be positive, got {self.J}")
        if self.lam < 0:
            raise SpecError(f"lam must be nonnegative, got {self.lam}")
        # the largest on-site field of the fermion chain; float products
        # overflow to inf without a warning
        if not math.isfinite(2.0 * (self.J * self.lam + abs(self.epsilon))):
            raise SpecError(f"the field 2 (J lam + |epsilon|) overflows at J = {self.J!r}, "
                            f"lam = {self.lam!r}, epsilon = {self.epsilon!r}")
        if isinstance(self.links, (int, np.integer)):
            raise SpecError("links must be a collection of site indices")
        links = tuple(sorted({_as_int("link", j) for j in self.links}))
        if not links:
            raise SpecError("links must be non-empty")
        if links[0] < 1 or links[-1] > n:
            bad = [j for j in links if j < 1 or j > n]
            raise SpecError(f"link sites {bad} outside 1..{n}")
        object.__setattr__(self, "links", links)

    @classmethod
    def spin_star(cls, N: int, lam: float, epsilon: float,
                  J: float = 1.0) -> "ChainSpec":
        """Spec with the qubit coupled uniformly to all N bath spins."""
        return cls(N=N, lam=lam, epsilon=epsilon,
                   links=tuple(range(1, int(N) + 1)), J=J)

    @property
    def is_spin_star(self) -> bool:
        # links are sorted, unique and inside 1..N, so N of them are all sites
        return len(self.links) == self.N

    @property
    def m(self) -> int:
        """Number of coupled sites."""
        return len(self.links)

    @property
    def reflection_axis(self) -> Optional[int]:
        """The first s in 0..N-1 whose reflection j -> s - j (mod N) of the
        ring maps the 0-based link set to itself, or None where no s does.

        The reflection is a symmetry of both qubit branches, so the
        determinant route and the oracle both split the echo by it.
        """
        links = {j - 1 for j in self.links}
        return next((s for s in range(self.N)
                     if {(s - j) % self.N for j in links} == links), None)


def validate(spec: ChainSpec) -> ChainSpec:
    """Re-run normalization on a spec (idempotent by construction)."""
    return ChainSpec(N=spec.N, lam=spec.lam, epsilon=spec.epsilon,
                     links=spec.links, J=spec.J)


def shifted_field(spec: ChainSpec) -> float:
    """Shifted transverse field lam + eps/J of the spin-star model.

    Only for the spin-star coupling does the perturbed bath Hamiltonian
    equal the bare bath Hamiltonian at this field value; for any other
    link set the identity does not hold and this raises.
    """
    if not spec.is_spin_star:
        raise SpecError(
            "shifted_field is defined only for spin-star specs "
            f"(links cover all sites); got m={spec.m} of N={spec.N}"
        )
    return spec.lam + spec.epsilon / spec.J


@dataclass(frozen=True)
class QubitSpec:
    """Qubit level splitting and initial superposition amplitudes.

    These never influence the echo itself; they enter only the
    reconstruction of the off-diagonal coherence.
    """

    omega0: float
    c_up: complex
    c_down: complex

    def __post_init__(self):
        object.__setattr__(self, "omega0", float(self.omega0))
        object.__setattr__(self, "c_up", complex(self.c_up))
        object.__setattr__(self, "c_down", complex(self.c_down))
        norm = abs(self.c_up) ** 2 + abs(self.c_down) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise SpecError(f"|c_up|^2 + |c_down|^2 = {norm!r}, must be 1")


def _whole_cycles(ts, delta_t: float, slack: float) -> np.ndarray:
    """floor(t / (2 delta_t) + slack) at each time; SpecError where it is
    not finite."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore"):
        m = np.floor(ts / (2.0 * delta_t) + slack)
    bad = ts[~np.isfinite(m)]
    if bad.size:
        raise SpecError(f"delta_t = {delta_t!r} is too small: the cycle count "
                        f"t / (2 delta_t) at t = {float(bad[0])!r} overflows")
    return m


@dataclass(frozen=True)
class PulseSchedule:
    """Ideal-kick pulse train: instantaneous qubit flips every delta_t.

    A +x and a -x kick give both branches the same phase, so the kick
    sign is not a field.
    """

    delta_t: float

    def __post_init__(self):
        dt = float(self.delta_t)
        if not math.isfinite(dt) or dt <= 0:
            raise SpecError(f"delta_t must be positive, got {dt!r}")
        object.__setattr__(self, "delta_t", dt)

    def cycles(self, ts) -> np.ndarray:
        """Whole flip cycles 2 delta_t completed by each time in ts, as floats
        of the same shape: floor(t / (2 delta_t) + 1e-12), whose slack keeps
        a time that ends a cycle from rounding down into it.

        Raises SpecError where a count is not finite, as t / (2 delta_t)
        overflows for a subnormal delta_t.
        """
        return _whole_cycles(ts, self.delta_t, 1e-12)

    def split(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M, t_res, first) at each of the ascending times ts, as arrays:
        t = 2 M delta_t + t_res with M = cycles(ts), and first where
        t_res < delta_t, before the mid-cycle pulse.

        A pulsed series carries its state from point to point, so this
        raises SpecError where ts descend, and where cycles raises.
        """
        ts = np.asarray(ts, dtype=float)
        if np.any(np.diff(ts) < 0):
            raise SpecError("pulsed series needs ascending times")
        m = self.cycles(ts)
        t_res = ts - 2.0 * m * self.delta_t
        return m, t_res, t_res < self.delta_t


@dataclass(frozen=True)
class TimeGrid:
    """Sampling times, either uniform on [0, t_max] or cycle-aligned.

    Cycle-aligned grids hold t = 2*M*delta_t only and need a schedule to
    materialize; they take no n_points, since the schedule fixes the count.
    """

    t_max: float
    n_points: Optional[int] = None
    mode: str = "uniform"

    def __post_init__(self):
        t_max = float(self.t_max)
        if not math.isfinite(t_max) or t_max <= 0:
            raise SpecError(f"t_max must be positive, got {t_max!r}")
        object.__setattr__(self, "t_max", t_max)
        if self.mode not in ("uniform", "cycles"):
            raise SpecError(f"unknown grid mode {self.mode!r}")
        if self.mode == "uniform":
            if self.n_points is None:
                raise SpecError("uniform grid needs n_points")
            n = _as_int("n_points", self.n_points)
            if n < 2:
                raise SpecError(f"n_points must be at least 2, got {n}")
            object.__setattr__(self, "n_points", n)
        elif self.n_points is not None:
            raise SpecError("a cycle-aligned grid takes no n_points: "
                            "its times are t = 2 M delta_t")

    def times(self, schedule: Optional[PulseSchedule] = None) -> np.ndarray:
        """Strictly increasing sample times starting at 0."""
        if self.mode == "uniform":
            return np.linspace(0.0, self.t_max, self.n_points)
        if schedule is None:
            raise SpecError("cycle-aligned grid needs a pulse schedule")
        m_max = int(_whole_cycles(self.t_max, schedule.delta_t, 1e-9))
        return 2.0 * schedule.delta_t * np.arange(m_max + 1)
