"""Command-line front end: run, preset, check, calibrate.

Every run writes one data file (CSV by default) plus a JSON sidecar with
the resolved configuration, the calibrated conventions, and the library
version. Identical configurations produce byte-identical CSV: floats are
printed as shortest round-trip decimals and row order is fixed.

Exit codes: 0 success, 1 configuration error, 2 numerical or
calibration failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, conventions, echo, oracle
from .config import (ConfigError, RunConfig, build_run_config, config_as_dict,
                     read_config_file, read_preset)
from .freefermion import DegenerateFillingError
from .model import ChainSpec, PulseSchedule, SpecError, TimeGrid
from .oracle import CalibrationError, DegenerateGroundStateError
from .spinstar import amplitude_closed_form, effective_coupling

ORACLE_CHECK_TOL = 1e-8


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


def _write_table(path: Path, fmt: str, columns: list[str], rows: list[list]) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    else:
        payload = {"columns": columns,
                   "rows": [[_json_safe(cell) for cell in row] for row in rows]}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _write_sidecar(out: Path, config: RunConfig, conv: conventions.Conventions,
                   extra: dict | None = None) -> None:
    sidecar = out.with_suffix(".meta.json")
    payload = {
        "version": __version__,
        "conventions": {
            "boundary_sign": conv.boundary_sign,
            "det_exponent": conv.det_exponent,
            "max_residual": conv.max_residual,
            "source": conv.source,
        },
        "config": config_as_dict(config),
    }
    if extra:
        payload.update(extra)
    sidecar.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def _series_rows(series: echo.EchoSeries) -> list[list]:
    return [[p.t, p.le, p.log_le, p.kind] for p in series.points]


def _run_series(config: RunConfig) -> tuple[list[str], list[list]]:
    spec, grid, schedule = config.spec, config.grid, config.schedule
    if config.axes is not None and config.mode in ("free", "pulsed"):
        return _run_family(config)
    if config.mode == "free":
        series = echo.loschmidt_free(spec, grid)
    elif config.mode == "pulsed":
        series = echo.loschmidt_pulsed(spec, schedule, grid)
    elif config.mode == "effective":
        series = echo.loschmidt_effective(spec, schedule, grid)
    else:  # spinstar-analytic
        eps_eff = effective_coupling(spec.epsilon, spec.J, schedule.delta_t).eps_eff
        points = []
        for t in grid.times(schedule):
            amp = amplitude_closed_form(spec.N, eps_eff, float(t))
            le = amp * amp
            log_le = math.log(le) if le > 0.0 else float("-inf")
            points.append(echo.EchoPoint(t=float(t), le=le, log_le=log_le,
                                         kind="analytic"))
        series = echo.EchoSeries(spec=spec, schedule=schedule, points=tuple(points))
    return ["t", "le", "log_le", "kind"], _series_rows(series)


def _run_family(config: RunConfig) -> tuple[list[str], list[list]]:
    """Curve family over the axes: per lambda one uncontrolled series and,
    in pulsed mode, one series per pulse interval."""
    from dataclasses import replace

    axes = config.axes
    lambdas = axes.lambdas or (config.spec.lam,)
    delta_ts = axes.delta_ts or ()
    if config.mode == "pulsed" and not delta_ts:
        raise ConfigError("pulsed family needs delta_ts in [axes]")
    rows: list[list] = []
    for lam in lambdas:
        spec_l = replace(config.spec, lam=lam)
        free = echo.loschmidt_free(spec_l, config.grid)
        rows += [[lam, None, p.t, p.le, p.log_le, p.kind] for p in free.points]
        if config.mode == "pulsed":
            for dt in delta_ts:
                pulsed = echo.loschmidt_pulsed(spec_l, PulseSchedule(delta_t=dt),
                                               config.grid)
                rows += [[lam, dt, p.t, p.le, p.log_le, p.kind]
                         for p in pulsed.points]
    return ["lambda", "delta_t", "t", "le", "log_le", "kind"], rows


def _run_sweep(config: RunConfig) -> tuple[list[str], list[list]]:
    axes = config.axes
    rows = echo.sweep(
        config.spec,
        lambdas=axes.lambdas,
        delta_ts=axes.delta_ts,
        t_star=axes.t_star,
        half_width=axes.half_width,
        window_points=axes.window_points,
        threads=config.threads,
    )
    table = [[r.lam, r.delta_t, r.le_pulsed, r.le_free, r.ratio] for r in rows]
    return ["lambda", "delta_t", "le_pulsed", "le_free", "ratio"], table


def oracle_check_suite() -> tuple[list[list], float]:
    """Free and pulsed echo residuals, determinant path vs 2^N oracle."""
    ts = np.arange(0.0, 10.01, 0.5)
    rows: list[list] = []
    worst = 0.0
    for n, lam in itertools.product((4, 6), (0.5, 1.0, 1.5)):
        for links in ((1,), tuple(range(1, n + 1))):
            spec = ChainSpec(N=n, lam=lam, epsilon=0.25, links=links)
            grid = TimeGrid(t_max=10.0, n_points=21)
            free = echo.loschmidt_free(spec, grid).le
            free_oracle = np.abs(oracle.amplitude_free(spec, ts)) ** 2
            diff = float(np.max(np.abs(free - free_oracle)))
            rows.append(["free", n, lam, 0.25, len(links), None, diff])
            worst = max(worst, diff)
            for dt in (0.25, 0.5):
                sched = PulseSchedule(delta_t=dt)
                pulsed = echo.loschmidt_pulsed(spec, sched, grid).le
                pulsed_oracle = np.abs(oracle.amplitude_pulsed(spec, sched, ts)) ** 2
                diff = float(np.max(np.abs(pulsed - pulsed_oracle)))
                rows.append(["pulsed", n, lam, 0.25, len(links), dt, diff])
                worst = max(worst, diff)
    return rows, worst


def _execute(config: RunConfig) -> int:
    conv = conventions.ensure(__version__, recalibrate=config.recalibrate)
    out = Path(config.out)
    extra: dict = {}
    if config.mode == "sweep":
        columns, rows = _run_sweep(config)
    elif config.mode == "oracle-check":
        table, worst = oracle_check_suite()
        columns = ["check", "N", "lambda", "epsilon", "m", "delta_t", "max_abs_diff"]
        rows = table
        extra = {"oracle_check": {"max_abs_diff": worst, "tol": ORACLE_CHECK_TOL}}
    else:
        columns, rows = _run_series(config)
    _write_table(out, config.fmt, columns, rows)
    _write_sidecar(out, config, conv, extra)
    if config.mode == "oracle-check":
        worst = extra["oracle_check"]["max_abs_diff"]
        print(f"oracle check: max |LE_determinant - LE_oracle| = {worst:.3e} "
              f"(tol {ORACLE_CHECK_TOL:g}) over {len(rows)} combinations")
        if worst > ORACLE_CHECK_TOL:
            print("oracle check FAILED", file=sys.stderr)
            return 2
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# Every flag is a plain string parsed by the config key it overrides.
_FLAGS = {
    "--mode": ("run", "mode"),
    "--out": ("run", "out"),
    "--format": ("run", "format"),
    "--threads": ("run", "threads"),
    "--N": ("spec", "N"),
    "--lambda": ("spec", "lambda"),
    "--epsilon": ("spec", "epsilon"),
    "--links": ("spec", "links"),
    "--dt": ("schedule", "delta_t"),
    "--tmax": ("grid", "t_max"),
    "--points": ("grid", "points"),
    "--tstar": ("axes", "t_star"),
    "--halfwidth": ("axes", "half_width"),
}


def _add_flags(sub: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        section, key = _FLAGS[flag]
        sub.add_argument(flag, dest=flag, metavar=key, help=f"overrides [{section}] {key}")
    sub.add_argument("--recalibrate", action="store_true",
                     help="force a fresh convention calibration")


def _execute_raw(raw: dict[str, dict[str, str]], args: argparse.Namespace) -> int:
    """Apply the flags given on the command line to raw config text and run it."""
    for flag, (section, key) in _FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw.setdefault(section, {})[key] = value
    if args.recalibrate:
        raw.setdefault("run", {})["recalibrate"] = "true"
    return _execute(build_run_config(raw))


def _cmd_run(args: argparse.Namespace) -> int:
    return _execute_raw(read_config_file(args.config) if args.config else {}, args)


def _cmd_preset(args: argparse.Namespace) -> int:
    return _execute_raw(read_preset(args.name), args)


def _cmd_check(args: argparse.Namespace) -> int:
    raw = {"run": {"mode": "oracle-check", "out": "oracle-check.csv"}}
    return _execute_raw(raw, args)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    conv = conventions.ensure(__version__, recalibrate=args.recalibrate)
    print(f"boundary_sign = {conv.boundary_sign:+d}")
    print(f"det_exponent  = {conv.det_exponent}")
    if conv.max_residual is not None:
        print(f"max residual vs oracle = {conv.max_residual:.3e}")
    print(f"source = {conv.source}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbecho",
        description="Loschmidt echo of a qubit under bang-bang control "
                    "against a transverse-field Ising bath",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured computation")
    run.add_argument("--config", help="structured-text config file")
    _add_flags(run, _FLAGS)
    run.set_defaults(func=_cmd_run)

    pre = sub.add_parser("preset", help="run a named figure preset")
    pre.add_argument("name", help="fig1 | fig2 | fig3 | fig4")
    _add_flags(pre, ("--out", "--threads", "--format"))
    pre.set_defaults(func=_cmd_preset)

    chk = sub.add_parser("check", help="compare against the exact-diagonalization oracle")
    _add_flags(chk, ("--out",))
    chk.set_defaults(func=_cmd_check)

    cal = sub.add_parser("calibrate", help="derive and cache the numerical conventions")
    cal.add_argument("--recalibrate", action="store_true")
    cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, DegenerateFillingError,
            DegenerateGroundStateError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
