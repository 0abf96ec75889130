"""Run configuration: structured-text config files, overrides, presets.

A run is described by a flat key/value file with one section per
sub-record ([run], [spec], [schedule], [grid], [axes]). One table,
``_KEYS``, maps every settable key to its record field, its parser and
its command-line flag, if it has one; config files, flags and the figure
presets all pass through it.
Unknown sections or keys are errors, and a value that does not parse
names its ``[section] key``. A second table, ``_MODES``, names the
sections each mode needs and the keys it reads; a key the mode does not
read is refused. Where the mode reads an ``[axes]`` list and the list is
given, the mode does not read the single key it replaces ([spec] lambda
for lambdas, [schedule] delta_t for delta_ts). A needed section that is
absent is built from no keys and so reported by its first missing key.
Command-line flags override file keys. The fully resolved configuration,
the keys the run reads and no other, is echoed into the JSON sidecar of
every run so any output file can be reproduced from its sidecar alone.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

from .model import ChainSpec, PulseSchedule, SpecError, TimeGrid

class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class SweepAxes:
    lambdas: Optional[tuple[float, ...]] = None
    delta_ts: Optional[tuple[float, ...]] = None
    t_star: Optional[float] = None
    half_width: Optional[float] = None
    window_points: int = 101


@dataclass
class RunConfig:
    mode: str = "free"
    spec: Optional[ChainSpec] = None
    schedule: Optional[PulseSchedule] = None
    grid: Optional[TimeGrid] = None
    axes: Optional[SweepAxes] = None
    out: str = "bbecho-out.csv"
    fmt: str = "csv"
    # the (section, key) pairs this run reads; build_run_config sets them
    reads: frozenset = frozenset()


def _parse_links(text: str):
    """'all' (resolved against N when the spec is built) or a comma list."""
    if text.strip().lower() == "all":
        return "all"
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma list of numbers")
    return values


# (section, key) -> (record field, parser, command-line flag or None).
# [run] keys are RunConfig fields; every other section builds the record
# in _RECORDS. A flag is a plain string parsed as the key it overrides.
_KEYS = {
    ("run", "mode"): ("mode", str, "--mode"),
    ("run", "out"): ("out", str, "--out"),
    ("run", "format"): ("fmt", str, "--format"),
    ("spec", "N"): ("N", int, "--N"),
    ("spec", "J"): ("J", float, None),
    ("spec", "lambda"): ("lam", float, "--lambda"),
    ("spec", "epsilon"): ("epsilon", float, "--epsilon"),
    ("spec", "links"): ("links", _parse_links, "--links"),
    ("schedule", "delta_t"): ("delta_t", float, "--dt"),
    ("grid", "t_max"): ("t_max", float, "--tmax"),
    ("grid", "points"): ("n_points", int, "--points"),
    ("grid", "mode"): ("mode", str, None),
    ("axes", "lambdas"): ("lambdas", _parse_floats, None),
    ("axes", "delta_ts"): ("delta_ts", _parse_floats, None),
    ("axes", "t_star"): ("t_star", float, "--tstar"),
    ("axes", "half_width"): ("half_width", float, "--halfwidth"),
    ("axes", "window_points"): ("window_points", int, None),
}
FLAGS = {flag: pair for pair, (_, _, flag) in _KEYS.items() if flag}
_RECORDS = {"spec": ChainSpec, "schedule": PulseSchedule, "grid": TimeGrid,
            "axes": SweepAxes}


def _reads(*names: str) -> frozenset:
    """(section, key) pairs of _KEYS named "section" (all its keys) or
    "section key"; [run] keys are always included."""
    return frozenset(pair for pair in _KEYS
                     if pair[0] in ("run",) + names or " ".join(pair) in names)


# mode -> (sections it needs, (section, key) pairs it reads). A key the
# mode does not read is refused, since it could change no output.
_SPEC_DT_GRID = ("spec", "schedule", "grid")
_MODES = {
    "free": (("spec", "grid"), _reads("spec", "grid", "axes lambdas")),
    "pulsed": (("spec", "grid"), _reads(*_SPEC_DT_GRID, "axes lambdas", "axes delta_ts")),
    "effective": (_SPEC_DT_GRID, _reads(*_SPEC_DT_GRID)),
    # the cosine product depends on N, epsilon, J and delta_t, not lambda
    "spinstar-analytic": (_SPEC_DT_GRID, _reads("spec N", "spec J", "spec epsilon",
                                                "spec links", "schedule", "grid")),
    "oracle-check": ((), _reads()),
    "sweep": (("spec", "axes"), _reads("spec", "schedule", "axes")),
}
MODES = tuple(_MODES)


def _read_ini(text: str, source: str) -> dict[str, dict[str, str]]:
    """Raw section/key/value strings of INI text, rejecting unknowns."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {source}: {exc}") from None
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section != "run" and section not in _RECORDS:
            raise ConfigError(f"unknown config section [{section}]")
        raw[section] = dict(parser.items(section))
        for key in raw[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return raw


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse the file into raw section/key/value strings, rejecting unknowns."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return _read_ini(text, path)


def _section(section: str, values: dict[str, str], reads: frozenset):
    """RunConfig keyword arguments for [run], else the section's record.

    A required field whose key the run does not read is set to 0.0, a
    value no output of the run sees (spinstar-analytic's lambda, or a
    single key that a given [axes] list replaces).
    """
    kwargs = {}
    for key, text in values.items():
        field, parse, _ = _KEYS[section, key]
        try:
            kwargs[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from None
    if section == "run":
        return kwargs
    record = _RECORDS[section]
    required = {f.name for f in fields(record) if f.default is MISSING}
    for (sec, key), (field, *_) in _KEYS.items():
        if sec == section and field in required and field not in kwargs:
            if (sec, key) not in reads:
                kwargs[field] = 0.0
                continue
            raise ConfigError(f"[{section}] is missing key {key!r}")
    if kwargs.get("links") == "all":
        kwargs["links"] = tuple(range(1, kwargs["N"] + 1))
    try:
        return record(**kwargs)
    except SpecError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def build_run_config(raw: dict[str, dict[str, str]]) -> RunConfig:
    """Typed RunConfig from raw strings; all domain validation applies.

    An [axes] section's absent lambdas or delta_ts is the one value of
    [spec] lambda or [schedule] delta_t; a present one takes its place,
    and the mode then does not read that single key.
    """
    mode = raw.get("run", {}).get("mode", RunConfig.mode)
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    needs, reads = _MODES[mode]
    for axis, single in (("lambdas", ("spec", "lambda")),
                         ("delta_ts", ("schedule", "delta_t"))):
        if ("axes", axis) in reads and axis in raw.get("axes", {}):
            reads -= {single}
    for section, values in raw.items():
        for key in values:
            if (section, key) not in reads:
                raise ConfigError(f"[{section}] {key} is not read by mode {mode}")
        if section not in {sec for sec, _ in reads}:
            raise ConfigError(f"[{section}] is not read by mode {mode}")
    # raw sections first, so a malformed value is reported before a missing key
    parts = {section: _section(section, values, reads)
             for section, values in raw.items()}
    parts |= {section: _section(section, {}, reads)
              for section in needs if section not in parts}
    config = RunConfig(**parts.pop("run", {}), **parts, reads=reads)
    spec, schedule, grid, axes = config.spec, config.schedule, config.grid, config.axes
    if config.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {config.fmt!r}; choose csv or json")
    if mode == "spinstar-analytic" and not spec.is_spin_star:
        raise ConfigError("spinstar-analytic needs links = all")
    if (mode in ("pulsed", "sweep") and schedule is None
            and (axes is None or axes.delta_ts is None)):
        raise ConfigError(f"mode {mode} needs [schedule] delta_t or [axes] delta_ts")
    if mode == "sweep" and None in (axes.t_star, axes.half_width):
        raise ConfigError("sweep axes need t_star and half_width")
    if grid is not None and grid.mode == "cycles" and (mode == "free" or axes is not None):
        raise ConfigError("[grid] mode = cycles needs a series with one pulse "
                          "interval, not mode free or an [axes] curve family")
    if axes is not None:  # free has no schedule and keeps delta_ts None
        config.axes = replace(axes, lambdas=axes.lambdas or (spec.lam,),
                              delta_ts=axes.delta_ts or schedule and (schedule.delta_t,))
    return config


def config_as_dict(config: RunConfig) -> dict:
    """JSON-ready snapshot of the keys the run reads, laid out as _KEYS."""
    out: dict = {}
    for (section, key), (field, *_) in _KEYS.items():
        record = config if section == "run" else getattr(config, section)
        if record is None or (section, key) not in config.reads:
            continue
        value = getattr(record, field)
        target = out if section == "run" else out.setdefault(section, {})
        target[key] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# Figure presets: full paper scale, reproducible from one config each.
# ---------------------------------------------------------------------------

# The bath of fig1-fig3: the N=100 chain with the qubit on one site.
_CHAIN_100 = """
[spec]
N = 100
epsilon = 0.25
links = 1
"""

_PRESETS = {
    # Echo vs time at N=100, eps=0.25, single link; pulsed curve family per
    # transverse field, uncontrolled curve included per field.
    "fig1": _CHAIN_100 + """
[run]
mode = pulsed
out = fig1.csv
[grid]
t_max = 50.0
points = 501
[axes]
lambdas = 0.5, 1.0, 1.5
delta_ts = 0.1, 0.25, 0.375, 0.5, 1.0
""",
    # Window-averaged echo at Jt*=25 vs pulse interval, per field.
    "fig2": _CHAIN_100 + """
[run]
mode = sweep
out = fig2.csv
[axes]
lambdas = 0.5, 0.9, 1.0, 1.1
delta_ts = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
           1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0,
           2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0
t_star = 25.0
half_width = 5.0
""",
    # Averaged echo and rescaled echo at Jt*=25 vs transverse field.
    "fig3": _CHAIN_100 + """
[run]
mode = sweep
out = fig3.csv
[axes]
lambdas = 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
          1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0
delta_ts = 0.1, 0.2, 0.3, 0.5, 1.0, 2.0
t_star = 25.0
half_width = 5.0
""",
    # Spin-star sweep at N=300, eps=0.01, Jt*=10.
    "fig4": """
[run]
mode = sweep
out = fig4.csv
[spec]
N = 300
epsilon = 0.01
links = all
[axes]
lambdas = 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0,
          1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5
delta_ts = 0.05, 0.1, 0.25, 0.5, 1.0
t_star = 10.0
half_width = 5.0
""",
}


def read_preset(name: str) -> dict[str, dict[str, str]]:
    """Raw section/key/value strings of a named figure preset."""
    try:
        text = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return _read_ini(text, f"preset {name}")


def preset(name: str) -> RunConfig:
    """Fully resolved RunConfig for a named figure preset."""
    return build_run_config(read_preset(name))
