"""The benchmark's workloads: seeded jobs, the timed call, the output check.

Each workload hands out jobs in blocks. A block holds a fixed mix of job
kinds, shuffled, and a run always ends on a block boundary, so the mix of
cheap and expensive jobs is the same in every run whatever the seed. The
continuous parameters (field, pulse interval) of each job kind follow an
additive recurrence with an irrational step from a seeded start, so a run
of a few dozen blocks covers each range almost evenly. Job costs depend
on these parameters, and an even cover keeps medians and throughput from
drifting with the seed.

Every call into bbecho goes through a module attribute looked up at call
time (``echo.sweep``, ``cli.main``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bbecho import __version__, cli, echo, freefermion, oracle, spinstar
from bbecho.model import ChainSpec, PulseSchedule, TimeGrid

# Tolerance of the determinant path against the 2^N oracle, the same
# tolerance ``bbecho check`` applies.
ORACLE_TOL = 1e-8
# Independent recomputation of one series point must agree this closely.
RECOMPUTE_TOL = 1e-10
# Rounding allowance above 1 for an echo magnitude.
UNIT_SLACK = 1e-12


@dataclass
class Job:
    index: int
    kind: str
    params: dict = field(default_factory=dict)


class _Cover:
    """Even cover of [lo, hi): seeded start, irrational step.

    Fields step by the golden ratio and pulse intervals by sqrt(2), so the
    two parameters of one job kind do not move in lockstep.
    """

    def __init__(self, rng: random.Random, lo: float, hi: float,
                 step: float = 0.6180339887498949):
        self.lo, self.hi, self.step, self.u = lo, hi, step, rng.random()

    def __call__(self) -> float:
        self.u = (self.u + self.step) % 1.0
        return self.lo + (self.hi - self.lo) * self.u


def _dt_cover(rng: random.Random, lo: float, hi: float) -> _Cover:
    return _Cover(rng, lo, hi, step=0.41421356237309503)


def _numbered(rng: random.Random, jobs: list[Job], first_index: int) -> list[Job]:
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.index = first_index + i
    return jobs


def _check_echo_range(name: str, values) -> str | None:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return f"{name}: non-finite echo"
    if values.min() < 0.0 or values.max() > 1.0 + UNIT_SLACK:
        return f"{name}: echo outside [0, 1]: [{values.min()!r}, {values.max()!r}]"
    return None


def _explicit_echo(spec: ChainSpec, t: float, dt: float | None) -> float:
    """One echo value from freefermion propagators and gaussian_overlap.

    The pulsed string F^M mid B^M (see the echo module) is rebuilt here
    from its propagator factors with an independent cycle power
    (binary powering), not echo's running product.
    """
    up = freefermion.diagonalize(freefermion.build_bdg(spec, "up"))
    down = freefermion.diagonalize(freefermion.build_bdg(spec, "down"))
    r = freefermion.ground_correlation(up)

    def u(d, s, sign):
        return freefermion.propagator(d, s, sign).U

    if dt is None:
        factors = [u(up, t, +1), u(down, t, -1)]
    else:
        m = int(math.floor(t / (2.0 * dt) + 1e-12))
        t_res = t - 2.0 * m * dt
        fwd = np.linalg.matrix_power(u(down, dt, +1) @ u(up, dt, +1), m)
        if t_res < dt:
            mid = [u(down, t_res, +1), u(up, t_res, -1)]
        else:
            s = t_res - dt
            mid = [u(down, dt, +1), u(up, s, +1), u(down, s, -1), u(up, dt, -1)]
        factors = [fwd, *mid, fwd.conj()]
    value, _ = freefermion.gaussian_overlap(r, factors)
    return value


class SeriesCli:
    """In-process ``bbecho run`` of a free or pulsed series at fig1 scale."""

    name = "series-cli"
    epsilon = 0.25

    def __init__(self, tiny: bool = False):
        self.N = 8 if tiny else 100
        self.t_max, self.n_points = (5.0, 11) if tiny else (50.0, 51)
        self.matrix = (2 * self.N, "complex128")

    def blocks(self, rng: random.Random):
        """Blocks of one free and two pulsed series.

        Free series all cost about the same and pulsed ones more, rising as
        dt shrinks. With one free job in three, the median and the 75th
        percentile both fall inside the pulsed jobs' continuous range, not
        in the gap between the two kinds.
        """
        lam = {kind: _Cover(rng, 0.5, 1.5) for kind in ("free", "pulsed")}
        dt = _dt_cover(rng, 0.1, 1.0)
        index = 0
        while True:
            jobs = [Job(0, kind, {"lam": lam[kind](),
                                  "dt": dt() if kind == "pulsed" else None,
                                  "sample": rng.randrange(1, self.n_points)})
                    for kind in ("free", "pulsed", "pulsed")]
            yield _numbered(rng, jobs, index)
            index += len(jobs)

    def points(self, job: Job) -> int:
        return self.n_points

    def run(self, job: Job, workdir: Path):
        out = workdir / f"job{job.index}.csv"
        argv = ["run", "--mode", job.kind, "--N", str(self.N),
                "--lambda", repr(job.params["lam"]),
                "--epsilon", repr(self.epsilon), "--links", "1",
                "--tmax", repr(self.t_max), "--points", str(self.n_points),
                "--out", str(out)]
        if job.params["dt"] is not None:
            argv += ["--dt", repr(job.params["dt"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def bytes_written(self, result) -> int:
        _, out = result
        return out.stat().st_size + out.with_suffix(".meta.json").stat().st_size

    def check(self, job: Job, result) -> str | None:
        code, out = result
        if code != 0:
            return f"bbecho run exited with {code}"
        sidecar = out.with_suffix(".meta.json")
        try:
            lines = out.read_text(encoding="utf-8").splitlines()
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        finally:
            out.unlink(missing_ok=True)
            sidecar.unlink(missing_ok=True)
        if lines[0] != "t,le,log_le,kind" or len(lines) != self.n_points + 1:
            return f"unexpected CSV shape: {lines[0]!r}, {len(lines)} lines"
        config = meta["config"]
        if (meta["version"] != __version__ or config["mode"] != job.kind
                or config["spec"]["N"] != self.N
                or config["spec"]["lambda"] != job.params["lam"]):
            return f"sidecar does not describe the job: {config}"
        rows = [line.split(",") for line in lines[1:]]
        if any(row[3] != job.kind for row in rows):
            return "wrong kind column"
        ts = [float(row[0]) for row in rows]
        le = [float(row[1]) for row in rows]
        log_le = [float(row[2]) for row in rows]
        if ts[0] != 0.0 or le[0] != 1.0:
            return f"le(0) = {le[0]!r}, expected exactly 1"
        bad = _check_echo_range("le", le)
        if bad:
            return bad
        for value, log_value in zip(le, log_le):
            if value > 0.0 and not math.isclose(log_value, math.log(value),
                                                rel_tol=1e-12, abs_tol=1e-12):
                return f"log_le {log_value!r} != log(le) for le = {value!r}"
        k = job.params["sample"]
        spec = ChainSpec(N=self.N, lam=job.params["lam"], epsilon=self.epsilon,
                         links=(1,))
        expected = _explicit_echo(spec, ts[k], job.params["dt"])
        if abs(expected - le[k]) > RECOMPUTE_TOL:
            return (f"point t = {ts[k]!r}: le = {le[k]!r}, explicit propagator "
                    f"product gives {expected!r}")
        return None


class SweepStar:
    """One (lambda, dt) row of ``echo.sweep`` on the fig4 spin star.

    The two-point window sits at Jt = 2.75..3.25, away from t = 0, so every
    row first advances the pulse train through several full cycles.
    """

    name = "sweep-star"
    epsilon = 0.01
    t_star = 3.0
    half_width = 0.25
    window_points = 2

    def __init__(self, tiny: bool = False):
        self.N = 8 if tiny else 300
        self.matrix = (2 * self.N, "complex128")

    def blocks(self, rng: random.Random):
        """Blocks of one row."""
        lam, dt = _Cover(rng, 0.5, 1.5), _dt_cover(rng, 0.1, 1.0)
        index = 0
        while True:
            yield [Job(index, "row", {"lam": lam(), "dt": dt()})]
            index += 1

    def points(self, job: Job) -> int:
        return 2 * self.window_points  # pulsed and free values per window point

    def run(self, job: Job, workdir: Path):
        lam, dt = job.params["lam"], job.params["dt"]
        spec = ChainSpec.spin_star(N=self.N, lam=lam, epsilon=self.epsilon)
        rows = echo.sweep(spec, [lam], [dt], self.t_star, self.half_width,
                          window_points=self.window_points, threads=1)
        eps_eff = spinstar.effective_coupling(self.epsilon, 1.0, dt).eps_eff
        window = np.linspace(self.t_star - self.half_width,
                             self.t_star + self.half_width, self.window_points)
        closed = [spinstar.amplitude_closed_form(self.N, eps_eff, float(t))
                  for t in window]
        return rows, closed

    def check(self, job: Job, result) -> str | None:
        rows, closed = result
        if len(rows) != 1:
            return f"expected one sweep row, got {len(rows)}"
        row = rows[0]
        if row.lam != job.params["lam"] or row.delta_t != job.params["dt"]:
            return f"row ({row.lam}, {row.delta_t}) does not match the job"
        bad = _check_echo_range("le_pulsed, le_free", [row.le_pulsed, row.le_free])
        if bad:
            return bad
        if row.le_free < 1e-14:
            if row.ratio is not None:
                return "ratio given where the free echo vanishes"
        elif row.ratio is None or not math.isclose(
                row.ratio, row.le_pulsed / row.le_free, rel_tol=1e-12):
            return f"ratio {row.ratio!r} != le_pulsed / le_free"
        return _check_echo_range("closed form", np.square(closed))


class OracleCheck:
    """Determinant echo, free and pulsed, against the dense 2^N oracle."""

    name = "oracle-check"
    epsilon = 0.25
    t_max = 5.0
    n_points = 11

    def __init__(self, tiny: bool = False):
        # The mix puts the median and the 75th percentile inside the N = 8
        # jobs and leaves the N = 10 jobs to carry most of the oracle time.
        self.sizes = (4, 4, 6, 6, 6) if tiny else (4, 6, 8, 8, 10)
        self.N = max(self.sizes)
        self.matrix = (2 ** self.N, "float64")

    def blocks(self, rng: random.Random):
        """Blocks of one job per entry of ``sizes``; links alternate per size."""
        lam = {n: _Cover(rng, 0.5, 1.5) for n in self.sizes}
        dt = {n: _dt_cover(rng, 0.2, 1.0) for n in self.sizes}
        star = dict.fromkeys(self.sizes, rng.random() < 0.5)
        index = 0
        while True:
            jobs = []
            for n in self.sizes:
                star[n] = not star[n]
                jobs.append(Job(0, "pair", {"N": n, "lam": lam[n](), "dt": dt[n](),
                                            "star": star[n]}))
            yield _numbered(rng, jobs, index)
            index += len(jobs)

    def points(self, job: Job) -> int:
        return 4 * self.n_points  # two determinant series, two oracle series

    def run(self, job: Job, workdir: Path):
        p = job.params
        links = tuple(range(1, p["N"] + 1)) if p["star"] else (1,)
        spec = ChainSpec(N=p["N"], lam=p["lam"], epsilon=self.epsilon, links=links)
        schedule = PulseSchedule(delta_t=p["dt"])
        grid = TimeGrid(t_max=self.t_max, n_points=self.n_points)
        ts = grid.times()
        return (echo.loschmidt_free(spec, grid).le,
                echo.loschmidt_pulsed(spec, schedule, grid).le,
                np.abs(oracle.amplitude_free(spec, ts)) ** 2,
                np.abs(oracle.amplitude_pulsed(spec, schedule, ts)) ** 2)

    def check(self, job: Job, result) -> str | None:
        det_free, det_pulsed, oracle_free, oracle_pulsed = result
        for name, det, ref in (("free", det_free, oracle_free),
                               ("pulsed", det_pulsed, oracle_pulsed)):
            if len(det) != self.n_points or len(ref) != self.n_points:
                return f"{name}: expected {self.n_points} points"
            diff = float(np.max(np.abs(np.asarray(det) - ref)))
            if not diff <= ORACLE_TOL:
                return f"{name}: max |LE_det - LE_oracle| = {diff:.3e} > {ORACLE_TOL:g}"
        return None


WORKLOADS = {w.name: w for w in (SeriesCli, SweepStar, OracleCheck)}
