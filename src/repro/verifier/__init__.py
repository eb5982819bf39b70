"""Veri-QEC's task encodings, error constraints and correctness-formula
generators (Sections 6 and 7); :mod:`repro.api` decides them."""

from repro.verifier.constraints import discreteness_constraint, locality_constraint
from repro.verifier.encodings import (
    ErrorModel,
    accurate_correction_formula,
    precise_detection_formula,
)

__all__ = [
    "ErrorModel",
    "accurate_correction_formula",
    "precise_detection_formula",
    "locality_constraint",
    "discreteness_constraint",
]
