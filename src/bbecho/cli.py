"""Command-line front end: run, preset, check, calibrate.

``run``, ``preset`` and ``check`` differ only in where their raw config
text comes from: the ``--config`` file (or none), a named preset, or the
fixed oracle-check config. ``main`` applies the command-line flags to
that text and runs ``build_run_config`` and ``_execute`` on it, one path
for all three. ``calibrate`` is the one verb without a config.

Every run writes one data file (CSV by default) plus a JSON sidecar with
the resolved configuration, the frozen conventions, and the library
version, and no other file. Identical configurations produce
byte-identical CSV: floats are printed as shortest round-trip decimals
and row order is fixed. ``calibrate`` re-derives the conventions and
prints them; it writes nothing, and no other verb calibrates.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical or
calibration failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, conventions, echo, oracle
from .config import (FLAGS, ConfigError, RunConfig, build_run_config,
                     config_as_dict, read_config_file, read_preset)
from .freefermion import DegenerateFillingError
from .model import ChainSpec, PulseSchedule, SpecError
from .oracle import CalibrationError, DegenerateGroundStateError
from .spinstar import effective_coupling, log_echo_closed_form


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; empty cell for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_table(path: Path, fmt: str, columns: list[str], rows: list[list | tuple]) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    else:
        payload = {"columns": columns,
                   "rows": [[_json_safe(cell) for cell in row] for row in rows]}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _write_sidecar(out: Path, config: RunConfig, extra: dict) -> None:
    sidecar = out.with_suffix(".meta.json")
    payload = {
        "version": __version__,
        "conventions": {
            "boundary_sign": conventions.BOUNDARY_SIGN,
            "det_exponent": conventions.DET_EXPONENT,
        },
        "config": config_as_dict(config),
        **extra,
    }
    sidecar.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def _closed_form(config: RunConfig) -> echo.EchoSeries:
    """Squared spin-star cosine product at the grid times."""
    spec, schedule = config.spec, config.schedule
    eps_eff = effective_coupling(spec.epsilon, spec.J, schedule.delta_t).eps_eff
    ts = config.grid.times(schedule)
    return echo._series(ts, log_echo_closed_form(spec.N, eps_eff, ts), "analytic")


_ECHO = ["t", "le", "log_le", "kind"]


def _echo(series: echo.EchoSeries) -> tuple[list[str], list[tuple]]:
    return _ECHO, list(series.rows())


def oracle_check_suite() -> list[list]:
    """Free and pulsed echo residuals, each spec on its echo route, vs the
    2^N oracle. On the determinant route a single link has a site-centred
    reflection axis, two adjacent links a bond-centred one, and (1, 2, 4)
    a site-centred one at N = 4 and none at N = 6; spin stars take the
    momentum route."""
    ts = np.linspace(0.0, 10.0, 21)
    rows: list[list] = []
    for n, lam in itertools.product((4, 6), (0.5, 1.0, 1.5)):
        for links in ((1,), (1, 2), (1, 2, 4), tuple(range(1, n + 1))):
            spec = ChainSpec(N=n, lam=lam, epsilon=0.25, links=links)
            for _, dt, series in echo.family(spec, (lam,), (0.25, 0.5), ts):
                amp = (oracle.amplitude_free(spec, ts) if dt is None else
                       oracle.amplitude_pulsed(spec, PulseSchedule(delta_t=dt), ts))
                diff = float(np.max(np.abs(series.le - np.abs(amp) ** 2)))
                rows.append([series.kind, n, lam, spec.epsilon, len(links), dt, diff])
    return rows


# mode -> config -> (columns, rows); "family" is the curve family that
# free and pulsed write with an [axes] section. Each entry looks echo.*
# up at call time, so a wrapper installed on the echo module sees the call.
_RUNS = {
    "free": lambda c: _echo(echo.loschmidt_free(c.spec, c.grid)),
    "pulsed": lambda c: _echo(echo.loschmidt_pulsed(c.spec, c.schedule, c.grid)),
    "effective": lambda c: _echo(echo.loschmidt_effective(c.spec, c.schedule, c.grid)),
    "spinstar-analytic": lambda c: _echo(_closed_form(c)),
    # per lambda the uncontrolled series, then one pulsed series per interval
    "family": lambda c: (["lambda", "delta_t", *_ECHO], [
        (lam, dt, *row) for lam, dt, series in echo.family(
            c.spec, c.axes.lambdas, c.axes.delta_ts or (), c.grid.times())
        for row in series.rows()]),
    # the [axes] fields are the keyword arguments of echo.sweep
    "sweep": lambda c: (["lambda", "delta_t", "le_pulsed", "le_free", "ratio"],
                        [list(vars(row).values())
                         for row in echo.sweep(c.spec, **vars(c.axes))]),
    "oracle-check": lambda c: (["check", "N", "lambda", "epsilon", "m", "delta_t",
                                "max_abs_diff"], oracle_check_suite()),
}


def _execute(config: RunConfig) -> int:
    out = Path(config.out)
    if not out.parent.is_dir():  # checked first: a sweep can run for minutes
        raise ConfigError(f"[run] out = {config.out!r}: "
                          f"no directory {str(out.parent)!r}")
    if out.is_dir():
        raise ConfigError(f"[run] out = {config.out!r}: is a directory")
    extra: dict = {}
    if config.mode in ("free", "pulsed", "sweep"):
        extra["route"] = echo.route(config.spec)
    family = config.axes is not None and config.mode != "sweep"
    columns, rows = _RUNS["family" if family else config.mode](config)
    checked = config.mode == "oracle-check"
    if checked:
        # the largest residual, the last cell of each row; np.max keeps a
        # NaN residual, which must count as a failure
        worst = float(np.max([row[-1] for row in rows]))
        extra["oracle_check"] = {"max_abs_diff": _json_safe(worst), "tol": oracle.TOL}
    _write_table(out, config.fmt, columns, rows)
    _write_sidecar(out, config, extra)
    if checked:
        print(f"oracle check: max |LE - LE_oracle| = {worst:.3e} "
              f"(tol {oracle.TOL:g}) over {len(rows)} combinations")
        if not worst <= oracle.TOL:
            print("oracle check FAILED", file=sys.stderr)
            return 2
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _add_flags(sub: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        section, key = FLAGS[flag]
        sub.add_argument(flag, dest=flag, metavar=key, help=f"overrides [{section}] {key}")


def _calibrate() -> int:
    conv = conventions.ensure(__version__)
    print(f"boundary_sign = {conventions.BOUNDARY_SIGN:+d}")
    print(f"det_exponent  = {conventions.DET_EXPONENT}")
    print(f"max residual vs oracle = {conv.max_residual:.3e}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code; argparse's own 2
    is bbecho's code for a numerical failure.

    A word that starts with a minus and a digit, or a minus, a dot and a
    digit, is a value, not an option: argparse alone reads -1e-3 as an
    option, and no bbecho flag has that shape. argparse sets this matcher
    per instance, so it is set here and not on the class.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built at its first call, not at import; every
    parse_args call fills a fresh namespace, so calls share no flags.

    Each verb but calibrate sets ``raw``, a function of the parsed
    arguments that returns the raw config text its flags then override.
    """
    parser = _Parser(
        prog="bbecho",
        description="Loschmidt echo of a qubit under bang-bang control "
                    "against a transverse-field Ising bath",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured computation")
    run.add_argument("--config", help="structured-text config file")
    _add_flags(run, FLAGS)
    run.set_defaults(raw=lambda a: read_config_file(a.config) if a.config else {})

    pre = sub.add_parser("preset", help="run a named figure preset")
    pre.add_argument("name", help="fig1 | fig2 | fig3 | fig4")
    _add_flags(pre, ("--out", "--format"))
    pre.set_defaults(raw=lambda a: read_preset(a.name))

    chk = sub.add_parser("check", help="compare against the exact-diagonalization oracle")
    _add_flags(chk, ("--out",))
    chk.set_defaults(raw=lambda a: {"run": {"mode": "oracle-check",
                                            "out": "oracle-check.csv"}})

    sub.add_parser("calibrate", help="re-derive and print the numerical conventions")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return _calibrate()
        raw = args.raw(args)
        for flag, (section, key) in FLAGS.items():
            value = getattr(args, flag, None)
            if value is not None:
                raw.setdefault(section, {})[key] = value
        return _execute(build_run_config(raw))
    except (ConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, DegenerateFillingError,
            DegenerateGroundStateError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
