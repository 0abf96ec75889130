"""Frozen numerical conventions and their on-disk calibration cache.

Two conventions of the free-fermion evaluation are not fixed by the model
definition alone and were calibrated once against exact diagonalization:

* ``BOUNDARY_SIGN = -1``: the Jordan-Wigner boundary bond enters with the
  opposite sign of the bulk bonds (antiperiodic fermions, even-parity
  sector). This is the sector containing the spin-chain ground state for
  even N.
* ``DET_EXPONENT = 1``: the determinant magnitude over the doubled
  (Nambu) space equals the Loschmidt echo itself, i.e. the squared
  overlap, with no further squaring.

Neither is an input to the echo. The sector is the default argument of
``freefermion.build_bdg``, which only the calibration overrides, and the
determinant route takes log|det| as log L with no power; the pair is the
target the calibration must reproduce.

``calibrate_and_cache`` re-derives the pair from scratch (small-N exact
diagonalization); a result other than the frozen constants is treated as
a build defect and raised. The state file records only that the
calibration passed for a library version, and with what worst residual,
so a CLI run never silently trusts a stale cache after an upgrade. The
pair itself is never read back: every report prints the constants.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

BOUNDARY_SIGN = -1
DET_EXPONENT = 1

_STATE_ENV = "BBECHO_STATE_DIR"
_STATE_FILE = "calibration.json"


@dataclass(frozen=True)
class Conventions:
    """A passed calibration of BOUNDARY_SIGN and DET_EXPONENT: its worst
    residual against the oracle, and "calibrated" or "cache"."""

    max_residual: float
    source: str


def state_dir() -> Path:
    """Directory for the calibration state file.

    Resolution order: $BBECHO_STATE_DIR, $XDG_CACHE_HOME/bbecho,
    ~/.cache/bbecho.
    """
    env = os.environ.get(_STATE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "bbecho"


def load_cached(version: str) -> Conventions | None:
    path = state_dir() / _STATE_FILE
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != version:
        return None
    try:
        return Conventions(max_residual=float(payload["max_residual"]), source="cache")
    except (KeyError, TypeError, ValueError):
        return None


def store_cache(conv: Conventions, version: str) -> Path:
    d = state_dir()
    d.mkdir(parents=True, exist_ok=True)
    path = d / _STATE_FILE
    payload = {"version": version, "max_residual": conv.max_residual}
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return path


def calibrate_and_cache(version: str) -> Conventions:
    """Run the small-N calibration suite and persist the result.

    Raises CalibrationError if the scan is ambiguous or disagrees with the
    frozen constants.
    """
    from . import oracle  # deferred: oracle pulls in the heavy modules

    result = oracle.calibrate_conventions(oracle.default_calibration_specs())
    if (result.boundary_sign, result.det_exponent) != (BOUNDARY_SIGN, DET_EXPONENT):
        raise oracle.CalibrationError(
            "calibration result "
            f"({result.boundary_sign}, {result.det_exponent}) disagrees with the "
            f"frozen conventions ({BOUNDARY_SIGN}, {DET_EXPONENT})"
        )
    conv = Conventions(max_residual=result.max_residual, source="calibrated")
    store_cache(conv, version)
    return conv


def ensure(version: str, recalibrate: bool = False) -> Conventions:
    """Return validated conventions, calibrating lazily on first use."""
    if not recalibrate:
        cached = load_cached(version)
        if cached is not None:
            return cached
    return calibrate_and_cache(version)
