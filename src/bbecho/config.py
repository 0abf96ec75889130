"""Run configuration: structured-text config files, overrides, presets.

A run is described by a flat key/value file with one section per
sub-record ([run], [spec], [qubit], [schedule], [grid], [axes]); every
field of the parameter records has a config key, unknown sections or
keys are errors, and command-line flags override file keys. The fully
resolved configuration is echoed into the JSON sidecar of every run so
any output file can be reproduced from its sidecar alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

from .model import ChainSpec, PulseSchedule, QubitSpec, SpecError, TimeGrid

MODES = ("free", "pulsed", "effective", "spinstar-analytic", "oracle-check", "sweep")


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


_SECTIONS = {
    "run": ("mode", "out", "format", "threads", "recalibrate"),
    "spec": ("N", "J", "lambda", "epsilon", "links", "boundary_sign"),
    "qubit": ("omega0", "c_up", "c_down"),
    "schedule": ("delta_t", "kick_sign"),
    "grid": ("t_max", "points", "mode"),
    "axes": ("lambdas", "delta_ts", "t_star", "half_width", "window_points"),
}


@dataclass(frozen=True)
class SweepAxes:
    lambdas: Optional[tuple[float, ...]] = None
    delta_ts: Optional[tuple[float, ...]] = None
    t_star: Optional[float] = None
    half_width: Optional[float] = None
    window_points: int = 101


@dataclass
class RunConfig:
    mode: str
    spec: Optional[ChainSpec] = None
    qubit: Optional[QubitSpec] = None
    schedule: Optional[PulseSchedule] = None
    grid: Optional[TimeGrid] = None
    axes: Optional[SweepAxes] = None
    out: str = "bbecho-out.csv"
    fmt: str = "csv"
    threads: int = 1
    recalibrate: bool = False

    def validated(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}; choose csv or json")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.mode == "oracle-check":
            return self
        if self.spec is None:
            raise ConfigError(f"mode {self.mode} needs a [spec] section")
        if self.mode in ("pulsed", "effective", "spinstar-analytic") and self.schedule is None:
            raise ConfigError(f"mode {self.mode} needs a [schedule] section")
        if self.mode in ("free", "pulsed", "effective", "spinstar-analytic") and self.grid is None:
            raise ConfigError(f"mode {self.mode} needs a [grid] section")
        if self.mode == "spinstar-analytic" and not self.spec.is_spin_star:
            raise ConfigError("spinstar-analytic needs links = all")
        if self.mode == "sweep":
            if self.axes is None:
                raise ConfigError("mode sweep needs an [axes] section")
            if not self.axes.lambdas or not self.axes.delta_ts:
                raise ConfigError("sweep axes need lambdas and delta_ts")
            if self.axes.t_star is None or self.axes.half_width is None:
                raise ConfigError("sweep axes need t_star and half_width")
        if self.axes is not None and self.mode in ("effective", "spinstar-analytic"):
            raise ConfigError(f"axes are not supported for mode {self.mode}")
        return self


def _parse_links(text: str, n: int) -> tuple[int, ...]:
    text = text.strip()
    if text.lower() == "all":
        return tuple(range(1, n + 1))
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse links {text!r}: {exc}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}: {exc}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse the file into raw section/key/value strings, rejecting unknowns."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _SECTIONS[section]
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = value
    return raw


def merge_overrides(raw: dict[str, dict[str, str]],
                    overrides: dict[tuple[str, str], str]) -> dict[str, dict[str, str]]:
    for (section, key), value in overrides.items():
        raw.setdefault(section, {})[key] = value
    return raw


def build_run_config(raw: dict[str, dict[str, str]]) -> RunConfig:
    """Typed RunConfig from raw strings; all domain validation applies."""
    try:
        config = _build(raw)
        if config.mode == "sweep" and config.axes is not None:
            # flag-driven sweeps: singleton axes fall back to --lambda / --dt
            from dataclasses import replace as _replace
            axes = config.axes
            if axes.lambdas is None and config.spec is not None:
                axes = _replace(axes, lambdas=(config.spec.lam,))
            if axes.delta_ts is None and config.schedule is not None:
                axes = _replace(axes, delta_ts=(config.schedule.delta_t,))
            config.axes = axes
        return config.validated()
    except ValueError as exc:
        # SpecError, and a number or complex value that does not parse
        raise ConfigError(str(exc)) from None


def _build(raw: dict[str, dict[str, str]]) -> RunConfig:
    run = raw.get("run", {})
    config = RunConfig(
        mode=run.get("mode", "free"),
        out=run.get("out", "bbecho-out.csv"),
        fmt=run.get("format", "csv"),
        threads=int(run.get("threads", "1")),
        recalibrate=_parse_bool(run.get("recalibrate", "false")),
    )
    if "spec" in raw:
        sec = raw["spec"]
        for key in ("N", "lambda", "epsilon", "links"):
            if key not in sec:
                raise ConfigError(f"[spec] is missing key {key!r}")
        n = int(sec["N"])
        spec_kwargs = dict(
            N=n,
            lam=float(sec["lambda"]),
            epsilon=float(sec["epsilon"]),
            links=_parse_links(sec["links"], n),
        )
        if "J" in sec:
            spec_kwargs["J"] = float(sec["J"])
        if "boundary_sign" in sec:
            spec_kwargs["boundary_sign"] = int(sec["boundary_sign"])
        config.spec = ChainSpec(**spec_kwargs)
    if "qubit" in raw:
        sec = raw["qubit"]
        config.qubit = QubitSpec(
            omega0=float(sec.get("omega0", "0")),
            c_up=complex(sec.get("c_up", "1")),
            c_down=complex(sec.get("c_down", "0")),
        )
    if "schedule" in raw:
        sec = raw["schedule"]
        if "delta_t" not in sec:
            raise ConfigError("[schedule] is missing key 'delta_t'")
        config.schedule = PulseSchedule(
            delta_t=float(sec["delta_t"]),
            kick_sign=int(sec.get("kick_sign", "1")),
        )
    if "grid" in raw:
        sec = raw["grid"]
        if "t_max" not in sec:
            raise ConfigError("[grid] is missing key 't_max'")
        mode = sec.get("mode", "uniform")
        points = int(sec["points"]) if "points" in sec else None
        config.grid = TimeGrid(t_max=float(sec["t_max"]), n_points=points, mode=mode)
    if "axes" in raw:
        sec = raw["axes"]
        config.axes = SweepAxes(
            lambdas=_parse_floats(sec["lambdas"]) if "lambdas" in sec else None,
            delta_ts=_parse_floats(sec["delta_ts"]) if "delta_ts" in sec else None,
            t_star=float(sec["t_star"]) if "t_star" in sec else None,
            half_width=float(sec["half_width"]) if "half_width" in sec else None,
            window_points=int(sec.get("window_points", "101")),
        )
    return config


def config_as_dict(config: RunConfig) -> dict:
    """JSON-ready snapshot of a resolved configuration."""
    out: dict = {
        "mode": config.mode,
        "out": config.out,
        "format": config.fmt,
        "threads": config.threads,
        "recalibrate": config.recalibrate,
    }
    if config.spec is not None:
        s = config.spec
        out["spec"] = {"N": s.N, "J": s.J, "lambda": s.lam, "epsilon": s.epsilon,
                       "links": list(s.links), "boundary_sign": s.boundary_sign}
    if config.qubit is not None:
        q = config.qubit
        out["qubit"] = {"omega0": q.omega0,
                        "c_up": [q.c_up.real, q.c_up.imag],
                        "c_down": [q.c_down.real, q.c_down.imag]}
    if config.schedule is not None:
        out["schedule"] = {"delta_t": config.schedule.delta_t,
                           "kick_sign": config.schedule.kick_sign}
    if config.grid is not None:
        out["grid"] = {"t_max": config.grid.t_max, "points": config.grid.n_points,
                       "mode": config.grid.mode}
    if config.axes is not None:
        a = config.axes
        out["axes"] = {"lambdas": list(a.lambdas) if a.lambdas else None,
                       "delta_ts": list(a.delta_ts) if a.delta_ts else None,
                       "t_star": a.t_star, "half_width": a.half_width,
                       "window_points": a.window_points}
    return out


# ---------------------------------------------------------------------------
# Figure presets: full paper scale, reproducible from one config each.
# ---------------------------------------------------------------------------

def _preset_fig1() -> RunConfig:
    """Echo vs time at N=100, eps=0.25, single link; pulsed curve family
    per transverse field, uncontrolled curve included per field."""
    return RunConfig(
        mode="pulsed",
        spec=ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,)),
        schedule=PulseSchedule(delta_t=0.25),
        grid=TimeGrid(t_max=50.0, n_points=501),
        axes=SweepAxes(lambdas=(0.5, 1.0, 1.5),
                       delta_ts=(0.1, 0.25, 0.375, 0.5, 1.0)),
        out="fig1.csv",
    ).validated()


def _preset_fig2() -> RunConfig:
    """Window-averaged echo at Jt*=25 vs pulse interval, per field."""
    return RunConfig(
        mode="sweep",
        spec=ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,)),
        axes=SweepAxes(
            lambdas=(0.5, 0.9, 1.0, 1.1),
            delta_ts=tuple(round(0.1 * k, 10) for k in range(1, 31)),
            t_star=25.0, half_width=5.0,
        ),
        out="fig2.csv",
    ).validated()


def _preset_fig3() -> RunConfig:
    """Averaged echo and rescaled echo at Jt*=25 vs transverse field."""
    return RunConfig(
        mode="sweep",
        spec=ChainSpec(N=100, lam=1.0, epsilon=0.25, links=(1,)),
        axes=SweepAxes(
            lambdas=tuple(round(0.5 + 0.1 * k, 10) for k in range(0, 16)),
            delta_ts=(0.1, 0.2, 0.3, 0.5, 1.0, 2.0),
            t_star=25.0, half_width=5.0,
        ),
        out="fig3.csv",
    ).validated()


def _preset_fig4() -> RunConfig:
    """Spin-star sweep at N=300, eps=0.01, Jt*=10."""
    return RunConfig(
        mode="sweep",
        spec=ChainSpec.spin_star(N=300, lam=1.0, epsilon=0.01),
        axes=SweepAxes(
            lambdas=tuple(round(0.5 + 0.05 * k, 10) for k in range(0, 21)),
            delta_ts=(0.05, 0.1, 0.25, 0.5, 1.0),
            t_star=10.0, half_width=5.0,
        ),
        out="fig4.csv",
    ).validated()


_PRESETS = {
    "fig1": _preset_fig1,
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
}


def preset(name: str) -> RunConfig:
    """Fully resolved RunConfig for a named figure preset."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return builder()
