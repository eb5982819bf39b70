"""A catalogue of the benchmark codes (the rows of Table 3).

Every entry names a builder so the verification suite, the examples and the
benchmarks can iterate over the same set of codes.  Where the paper's exact
code could not be reconstructed offline, the registry records the
substitution (see DESIGN.md for the full table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.codes.base import StabilizerCode
from repro.codes.color import color_code_832, error_detection_422, iceberg_code
from repro.codes.css import hamming_parity_check, hypergraph_product_code
from repro.codes.five_qubit import five_qubit_code, six_qubit_code
from repro.codes.gottesman import gottesman_eight_qubit_code
from repro.codes.reed_muller import quantum_reed_muller_code
from repro.codes.repetition import repetition_code
from repro.codes.shor import shor_code
from repro.codes.steane import steane_code
from repro.codes.surface import rotated_surface_code, xzzx_surface_code

__all__ = [
    "CodeEntry",
    "CODE_REGISTRY",
    "build_code",
    "family_of",
    "list_codes",
]


@dataclass(frozen=True)
class CodeEntry:
    """One row of the benchmark table.

    ``family`` groups codes sharing sub-structure (e.g. the rotated surface
    codes at increasing distance): the dispatcher co-locates a family on one
    worker lane and the reuse-aware sweep schedule groups it.  ``family_rank``
    orders members within the family (smaller rank = smaller code); 0 means
    "not in a family".
    """

    key: str
    builder: Callable[[], StabilizerCode]
    target: str  # "correction" or "detection"
    paper_name: str
    note: str = ""
    family: str = ""
    family_rank: int = 0


def _tanner_substitute() -> StabilizerCode:
    code = hypergraph_product_code(
        hamming_parity_check(3),
        hamming_parity_check(3),
        name="hypergraph-product-hamming",
        distance=3,
    )
    return code


def _surface_from_repetition() -> StabilizerCode:
    rep = [[1, 1, 0], [0, 1, 1]]
    return hypergraph_product_code(rep, rep, name="hypergraph-product-repetition", distance=3)


CODE_REGISTRY: dict[str, CodeEntry] = {
    "steane": CodeEntry("steane", steane_code, "correction", "Steane code [[7,1,3]]"),
    "five-qubit": CodeEntry(
        "five-qubit",
        five_qubit_code,
        "correction",
        "Five-qubit perfect code [[5,1,3]]",
        family="perfect",
        family_rank=5,
    ),
    "six-qubit": CodeEntry(
        "six-qubit",
        six_qubit_code,
        "correction",
        "Six-qubit code [[6,1,3]]",
        note="one-qubit extension of the [[5,1,3]] code",
        family="perfect",
        family_rank=6,
    ),
    "shor": CodeEntry(
        "shor",
        shor_code,
        "correction",
        "Shor code [[9,1,3]]",
        note="substitutes the quantum dodecacode entry",
    ),
    "surface-3": CodeEntry(
        "surface-3",
        lambda: rotated_surface_code(3),
        "correction",
        "Rotated surface code d=3",
        family="surface",
        family_rank=3,
    ),
    "surface-5": CodeEntry(
        "surface-5",
        lambda: rotated_surface_code(5),
        "correction",
        "Rotated surface code d=5",
        family="surface",
        family_rank=5,
    ),
    "xzzx-3": CodeEntry(
        "xzzx-3", lambda: xzzx_surface_code(3), "correction", "XZZX surface code"
    ),
    "reed-muller-4": CodeEntry(
        "reed-muller-4",
        lambda: quantum_reed_muller_code(4),
        "correction",
        "Quantum Reed-Muller code [[15,1,3]]",
    ),
    "gottesman-8": CodeEntry(
        "gottesman-8",
        gottesman_eight_qubit_code,
        "correction",
        "Gottesman code [[8,3,3]]",
    ),
    "repetition-5": CodeEntry(
        "repetition-5",
        lambda: repetition_code(5),
        "correction",
        "Repetition code (Coq scalable example)",
    ),
    "hgp-hamming": CodeEntry(
        "hgp-hamming",
        _tanner_substitute,
        "detection",
        "Hypergraph product code",
        note="also substitutes the quantum Tanner code entries",
        family="hgp",
        family_rank=2,
    ),
    "hgp-repetition": CodeEntry(
        "hgp-repetition",
        _surface_from_repetition,
        "detection",
        "Hypergraph product of repetition codes",
        family="hgp",
        family_rank=1,
    ),
    "color-832": CodeEntry(
        "color-832", color_code_832, "detection", "3D basic color code [[8,3,2]]"
    ),
    "detection-422": CodeEntry(
        "detection-422",
        error_detection_422,
        "detection",
        "[[4,2,2]] error-detecting code",
        note="substitutes the carbon code entry",
    ),
    "iceberg-6": CodeEntry(
        "iceberg-6",
        lambda: iceberg_code(4),
        "detection",
        "Iceberg code [[6,4,2]]",
        note="substitutes the Campbell-Howard / triorthogonal entries",
    ),
}


def build_code(key: str) -> StabilizerCode:
    """Instantiate a registered code by key."""
    if key not in CODE_REGISTRY:
        raise KeyError(f"unknown code {key!r}; known codes: {sorted(CODE_REGISTRY)}")
    return CODE_REGISTRY[key].builder()


def list_codes() -> list[str]:
    return sorted(CODE_REGISTRY)


def family_of(key: str) -> str | None:
    """The family a registry key belongs to, or None (unknown key, no family)."""
    entry = CODE_REGISTRY.get(key) if isinstance(key, str) else None
    if entry is None or not entry.family:
        return None
    return entry.family

