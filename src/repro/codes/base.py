"""The common interface of every stabilizer code in the benchmark suite."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.pauli.group import StabilizerGroup
from repro.pauli.pauli import PauliOperator

__all__ = ["StabilizerCode"]


class StabilizerCode:
    """An ``[[n, k, d]]`` stabilizer code.

    The code is described by its stabilizer generators and (optionally) a
    preferred choice of logical X/Z operators.  When logical operators are
    not supplied they are constructed from the generators by symplectic
    Gram-Schmidt, exactly as the tool does for codes that only come with a
    parity-check matrix (Section 7.4).  ``stabilizers`` is the group's
    immutable generator tuple, which its cached GF(2) reduction relies on.
    """

    def __init__(
        self,
        name: str,
        stabilizers: Sequence[PauliOperator],
        logical_xs: list[PauliOperator] | None = None,
        logical_zs: list[PauliOperator] | None = None,
        distance: int | None = None,
        metadata: dict | None = None,
    ):
        self.name = name
        self.group = StabilizerGroup(stabilizers)
        self.stabilizers = self.group.generators
        self.num_qubits = self.group.num_qubits
        self.num_logical = self.group.num_logical_qubits
        self.distance = distance
        self.metadata = dict(metadata or {})
        if logical_xs is None or logical_zs is None:
            logical_xs, logical_zs = self.group.logical_operators()
        self.logical_xs = list(logical_xs)
        self.logical_zs = list(logical_zs)
        self._validate_logicals()

    # ------------------------------------------------------------------
    def _validate_logicals(self) -> None:
        if len(self.logical_xs) != self.num_logical or len(self.logical_zs) != self.num_logical:
            raise ValueError(
                f"{self.name}: expected {self.num_logical} logical X/Z operators"
            )
        for index, (lx, lz) in enumerate(zip(self.logical_xs, self.logical_zs)):
            if not self.group.commutes_with(lx) or not self.group.commutes_with(lz):
                raise ValueError(f"{self.name}: logical operator {index} does not commute with the group")
            if lx.commutes_with(lz):
                raise ValueError(f"{self.name}: logical X/Z pair {index} must anti-commute")
        for i, li in enumerate(self.logical_xs):
            for j, zj in enumerate(self.logical_zs):
                if i != j and not li.commutes_with(zj):
                    raise ValueError(f"{self.name}: logical X_{i} must commute with logical Z_{j}")

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> tuple[int, int, int | None]:
        """The triple ``(n, k, d)``."""
        return (self.num_qubits, self.num_logical, self.distance)

    @property
    def num_stabilizers(self) -> int:
        return len(self.stabilizers)

    def syndrome(self, error: PauliOperator) -> tuple[int, ...]:
        return self.group.syndrome(error)

    def is_logical_error(self, error: PauliOperator) -> bool:
        """Zero-syndrome error that acts non-trivially on the codespace."""
        return self.group.is_logical_operator(error)

    # ------------------------------------------------------------------
    # CSS structure
    # ------------------------------------------------------------------
    def is_css(self) -> bool:
        """Whether every generator is purely X-type or purely Z-type."""
        return all(
            not any(gen.x) or not any(gen.z) for gen in self.stabilizers
        )

    def x_checks(self) -> np.ndarray:
        """Support matrix of the X-type generators (rows over GF(2))."""
        rows = [gen.x for gen in self.stabilizers if any(gen.x) and not any(gen.z)]
        if not rows:
            return np.zeros((0, self.num_qubits), dtype=np.uint8)
        return np.array(rows, dtype=np.uint8)

    def z_checks(self) -> np.ndarray:
        """Support matrix of the Z-type generators (rows over GF(2))."""
        rows = [gen.z for gen in self.stabilizers if any(gen.z) and not any(gen.x)]
        if not rows:
            return np.zeros((0, self.num_qubits), dtype=np.uint8)
        return np.array(rows, dtype=np.uint8)

    # ------------------------------------------------------------------
    def exact_distance(self, max_weight: int | None = None) -> int | None:
        """Brute-force distance computation (small codes / tests only)."""
        return self.group.minimum_distance(max_weight)

    def logical_state_stabilizers(self, bits: tuple[int, ...]) -> list[PauliOperator]:
        """Generators stabilizing the logical computational state ``|bits>_L``."""
        if len(bits) != self.num_logical:
            raise ValueError("one bit per logical qubit is required")
        extra = [
            lz if bit == 0 else -lz for lz, bit in zip(self.logical_zs, bits)
        ]
        return list(self.stabilizers) + extra

    def describe(self) -> str:
        n, k, d = self.parameters
        d_text = "?" if d is None else str(d)
        return f"{self.name} [[{n},{k},{d_text}]]"

    def __repr__(self) -> str:
        return f"StabilizerCode({self.describe()})"
