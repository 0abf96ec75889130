"""Frozen numerical conventions and the check that re-derives them.

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

``ensure`` re-derives the pair from scratch (small-N exact
diagonalization) and raises any result other than the frozen constants
as a build defect. Nothing is stored and no run calls it: ``bbecho
calibrate`` prints its result, and every sidecar prints the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

BOUNDARY_SIGN = -1
DET_EXPONENT = 1


@dataclass(frozen=True)
class Conventions:
    """A passed calibration of BOUNDARY_SIGN and DET_EXPONENT: its worst
    residual against the oracle."""

    max_residual: float
    source = "calibrated"  # stays only for perfbench/ until ROADMAP item 1


def ensure(version: str) -> Conventions:
    """Run the small-N calibration suite and return its passed result.

    Raises CalibrationError if the scan is ambiguous or disagrees with the
    frozen constants.
    """
    # the name and the unused version stay only for perfbench/ until ROADMAP item 1
    from . import oracle  # deferred: oracle imports echo, which imports this module

    result = oracle.calibrate_conventions(oracle.default_calibration_specs())
    if (result.boundary_sign, result.det_exponent) != (BOUNDARY_SIGN, DET_EXPONENT):
        raise oracle.CalibrationError(
            "calibration result "
            f"({result.boundary_sign}, {result.det_exponent}) disagrees with the "
            f"frozen conventions ({BOUNDARY_SIGN}, {DET_EXPONENT})"
        )
    return Conventions(max_residual=result.max_residual)
