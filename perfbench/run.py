"""Closed-loop benchmark of bbecho.

    python3 perfbench/run.py --workload series-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: bbecho is imported from ``src/`` there,
never from an installed copy, and the run exits with code 2 without a
result when ``src/bbecho`` is missing. Workloads, their reasons and the
metric list with units and bounds are in ``BENCHMARK.json``.

One process per run, one client, closed loop: the next job starts only
after the previous one returned and its output was checked. Jobs come
from ``--seed`` in blocks with a fixed mix (see ``workloads.py``); the
loop ends on the first block boundary after ``--seconds``.

Phases of a run:

1. Set-up time: ``setup_s`` is the median over several fresh
   interpreters (``coldstart.py``) of the time from process start until
   bbecho is imported, the first BLAS call has run at the workload's
   matrix size and ``conventions.ensure`` has calibrated into an empty
   ``$BBECHO_STATE_DIR``.
2. The run's own process sets itself up the same way in-process (its
   state directory then stays warm, so ``bbecho run`` jobs read the
   convention cache) and runs one untimed warm-up block.
3. The timed loop. Every job is timed around the call into bbecho and
   checked afterwards, outside its time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
job twice in a row, once with the tracer's wrappers installed and once
without, alternating which goes first; the per-layer numbers come from
the traced executions, and ``trace.overhead_frac`` compares the points
per second of the two. Spans are written to ``.perfbench/`` at the end.

BLAS runs with a fixed budget of at most two threads (fewer when the
process may use fewer CPUs), set before numpy is imported and recorded
in the ``# info`` line with the numpy/BLAS build and the cache sizes.

The last line of standard output is the JSON result; every metric is
also printed before it as a ``# metric`` line, together with
``failed_frac``, which the result carries as ``failed`` / ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    """One executed job."""

    index: int
    wall: float
    points: int
    error: str | None
    traced: bool = False
    bytes_written: int = 0


def run_job(workload, job, workdir: Path, tracer=None) -> Record:
    """Time one job around its call into bbecho, then check its output."""
    if tracer is not None:
        tracer.job = job.index
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run(job, workdir)
        error = None
    except Exception as exc:  # a job that raises is counted as failed
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    written = 0
    if tracer is not None:
        tracer.uninstall()
        if error is None and hasattr(workload, "bytes_written"):
            written = workload.bytes_written(result)
    if error is None:
        try:
            error = workload.check(job, result)
        except Exception as exc:  # a malformed output is counted as failed
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(job.index, wall, workload.points(job), error,
                  tracer is not None, written)


def timed_loop(workload, rng, seconds: float, workdir: Path,
               tracer=None) -> list[Record]:
    """Closed loop over seeded blocks until ``seconds`` have passed.

    Runs at least two jobs, so that every percentile is defined.
    """
    records: list[Record] = []
    blocks = workload.blocks(rng)
    start = time.perf_counter()
    while len(records) < 2 or time.perf_counter() - start < seconds:
        for job in next(blocks):
            if tracer is None:
                records.append(run_job(workload, job, workdir))
                continue
            traced_first = job.index % 2 == 1
            for traced in (traced_first, not traced_first):
                records.append(run_job(workload, job, workdir,
                                       tracer if traced else None))
    return records


def points_per_s(records: list[Record]) -> float:
    good = sum(r.points for r in records if r.error is None)
    return good / sum(r.wall for r in records)


def end_to_end(records: list[Record], setup_samples: list[float]) -> dict:
    walls = [r.wall for r in records]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": points_per_s(records),
        "job_p50_s": statistics.median(walls),
        "job_p75_s": statistics.quantiles(walls, n=4)[2],
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def per_layer(tracer, records: list[Record]) -> dict:
    from tracing import TRACED

    jobs, setup = tracer.summary(setup=False), tracer.summary(setup=True)
    out: dict = {}
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        for key in ("calls", "busy_s", "self_s"):
            out[f"{name}.{key}"] = jobs[name][key]
            out[f"setup.{name}.{key}"] = setup[name][key]
    out["freefermion.gflop_computed"] = tracer.counts[False, "flop"] / 1e9
    out["freefermion.gb_moved_computed"] = tracer.counts[False, "bytes"] / 1e9
    ensure_calls = jobs["conventions.ensure"]["calls"]
    out["conventions.cache_hit_ratio"] = (
        tracer.counts[False, "cache_hits"] / ensure_calls if ensure_calls else 0.0)
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    out["cli.bytes_written"] = sum(r.bytes_written for r in traced)
    out["trace.jobs"] = len(traced)
    out["trace.overhead_frac"] = 1.0 - points_per_s(traced) / points_per_s(untraced)
    return out


def cold_start(tmp: Path, n: int, label: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for a job."""
    state = tmp / f"state-{label}"
    state.mkdir()
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), str(state), str(n)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start exited with {code}, said {line!r}")
    return elapsed


def cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes of CPU 0 in bytes, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def build_info(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    caches = cache_sizes()
    dim, dtype = workload.matrix
    matrix_bytes = dim * dim * np.dtype(dtype).itemsize
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "cpus": len(os.sched_getaffinity(0)), "caches_bytes": caches,
        "matrix": f"{dim}x{dim} {dtype}", "matrix_bytes": matrix_bytes,
        "l2_bytes": caches.get("L2"),
        "matrix_fits_l2": matrix_bytes <= caches["L2"] if "L2" in caches else None,
        "client": "closed loop, 1 client",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, one cold start (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bbecho" / "__init__.py").is_file():
        print(f"no bbecho sources under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    import random

    import bbecho
    import coldstart
    import tracing
    import workloads

    if Path(bbecho.__file__).resolve().parent != SRC / "bbecho":
        print(f"bbecho imported from {bbecho.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    print("# info " + json.dumps(build_info(args, workload), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    tracer = tracing.Tracer(bbecho) if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        repeats = 1 if args.tiny else SETUP_REPEATS
        setup_samples = [cold_start(tmp, workload.N, str(i)) for i in range(repeats)]
        state = tmp / "state-main"
        state.mkdir()
        if tracer is not None:
            tracer.install()
        coldstart.setup(str(state), workload.N)
        if tracer is not None:
            tracer.uninstall()
        warm_rng = random.Random(f"warm-up {args.seed}")
        warm = [run_job(workload, job, tmp)
                for job in next(workload.blocks(warm_rng))]
        timed = timed_loop(workload, random.Random(args.seed), args.seconds,
                           tmp, tracer)
    attempted = len(warm) + len(timed)
    failed = [r for r in warm + timed if r.error is not None]
    for r in failed[:5]:
        print(f"job {r.index} failed: {r.error}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(timed, setup_samples)
        wanted = spec["end_to_end"]
    else:
        metrics = per_layer(tracer, timed)
        wanted = spec["per_layer"]
        tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.json")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    samples = sum(not r.traced for r in timed)
    print(f"# metric jobs = {samples} count (timed, untraced; "
          f"{len(warm)} warm-up jobs not timed)")
    print(f"# metric failed_frac = {len(failed) / attempted!r} ratio "
          f"({len(failed)} of {attempted} jobs)")
    for name, entry in result.items():
        print(f"# metric {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
