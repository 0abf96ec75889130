"""Spans around calls into bbecho, recorded by wrapping module attributes.

The wrappers replace attributes such as ``bbecho.freefermion.propagator``
on the module object itself, not the re-exports in ``bbecho/__init__``:
``echo``, ``oracle``, ``cli`` and ``conventions`` look their callees up
through the module (``freefermion.propagator(...)``, ``time_average(...)``
as a module global), so a wrapped attribute sees every internal call.

Spans are kept in memory as plain lists and written out once, when the
run ends. A span's self time is its duration minus the durations of its
direct children; every traced call runs on the benchmark's single
thread, so children never overlap.

Kernel counts for the freefermion layer are computed, not measured: each
wrapped call adds the floating-point operations and compulsory bytes of
the dense operations it performs, from the matrix dimension n = 2N of its
arguments. The model counts a complex n x n product as 8 n^3 flop and
3 matrices of 16 n^2 bytes (numpy promotes the real factor), a real
symmetric eigendecomposition as 9 n^3 flop and 2 matrices of 8 n^2
bytes, and a complex LU (``slogdet``) as 8/3 n^3 flop and 2 matrices of
16 n^2 bytes. Cache misses are not modelled.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs wrapped by the tracer; the span name is
# "<module>.<attribute>".
TRACED = (
    ("freefermion", "build_bdg"),
    ("freefermion", "diagonalize"),
    ("freefermion", "ground_correlation"),
    ("freefermion", "propagator"),
    ("freefermion", "gaussian_overlap"),
    ("echo", "loschmidt_free"),
    ("echo", "loschmidt_pulsed"),
    ("echo", "sweep"),
    ("echo", "time_average"),
    ("oracle", "build_hamiltonian"),
    ("oracle", "amplitude_free"),
    ("oracle", "amplitude_pulsed"),
    ("oracle", "calibrate_conventions"),
    ("conventions", "ensure"),
    ("cli", "main"),
    ("spinstar", "amplitude_closed_form"),
)

SETUP_JOB = -1


def _dim_of_decomp(args):
    d = args[0]
    return d.eigenvalues.size if hasattr(d, "eigenvalues") else d.C.shape[0]


def _cost_diagonalize(args, kwargs):
    n = args[0].C.shape[0]
    return 9 * n ** 3, 2 * 8 * n * n


def _cost_ground_correlation(args, kwargs):
    n = _dim_of_decomp(args)
    # occupied block (n x n/2) times its transpose
    return n ** 3, 8 * (n * n // 2) + 8 * n * n


def _cost_propagator(args, kwargs):
    n = _dim_of_decomp(args)
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t == 0.0:
        return 0, 16 * n * n
    return 8 * n ** 3, 3 * 16 * n * n


def _cost_gaussian_overlap(args, kwargs):
    r = args[0]
    factors = args[1] if len(args) > 1 else kwargs["factors"]
    n = (r.r if hasattr(r, "r") else r).shape[0]
    products = max(len(factors) - 1, 0) + 1  # string assembly, then r @ string
    flop = 8 * n ** 3 * products + 8 * n ** 3 // 3
    moved = 3 * 16 * n * n * products + 2 * 16 * n * n
    return flop, moved


KERNEL_COST = {
    "freefermion.diagonalize": _cost_diagonalize,
    "freefermion.ground_correlation": _cost_ground_correlation,
    "freefermion.propagator": _cost_propagator,
    "freefermion.gaussian_overlap": _cost_gaussian_overlap,
}


class Tracer:
    """Installs span-recording wrappers on bbecho module attributes.

    Spans are lists ``[name, job, parent, start, end]``; ``parent`` is the
    index of the enclosing span or -1. ``job`` is the benchmark job index,
    or SETUP_JOB for spans recorded while the process set itself up.
    """

    def __init__(self, package):
        self._package = package
        self._originals = {}
        self._stack: list[int] = []
        self.spans: list[list] = []
        # counters keyed by (recorded during set-up, counter name)
        self.counts: dict[tuple[bool, str], float] = defaultdict(float)
        self.job = SETUP_JOB

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._originals[(module_name, attr)] = original
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def uninstall(self) -> None:
        for (module_name, attr), original in self._originals.items():
            setattr(getattr(self._package, module_name), attr, original)
        self._originals.clear()

    def _wrap(self, name, original):
        cost = KERNEL_COST.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            setup = self.job == SETUP_JOB
            if cost is not None:
                flop, moved = cost(args, kwargs)
                self.counts[setup, "flop"] += flop
                self.counts[setup, "bytes"] += moved
            span[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if name == "conventions.ensure" and result.source == "cache":
                self.counts[setup, "cache_hits"] += 1
            return result

        return functools.wraps(original)(traced)

    def summary(self, setup: bool) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        ``setup`` selects the spans recorded during set-up, otherwise the
        spans of benchmark jobs.
        """
        child_time = defaultdict(float)
        for name, job, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for index, (name, job, parent, start, end) in enumerate(self.spans):
            if (job == SETUP_JOB) != setup:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "job", "parent", "start", "end"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n",
                        encoding="utf-8")
