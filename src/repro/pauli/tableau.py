"""A stabilizer tableau simulator (the Stim substitute of the evaluation).

The simulator follows Aaronson and Gottesman's CHP construction: the state of
an n-qubit system prepared from |0...0> by Clifford gates and Pauli
measurements is represented by n stabilizer generators and n destabilizer
generators.  Gates act by conjugating every generator; measurements use the
standard anticommutation argument.  The representation here stores each
generator as a :class:`~repro.pauli.pauli.PauliOperator`, which keeps the
phase bookkeeping exact and makes the simulator easy to audit against the
dense-matrix semantics; it comfortably handles the few hundred qubits used in
the paper's benchmarks.
"""

from __future__ import annotations

import random

from repro.pauli.clifford import CLIFFORD_1Q, CLIFFORD_2Q, conjugate_pauli
from repro.pauli.pauli import PauliOperator

__all__ = ["StabilizerTableau"]


class StabilizerTableau:
    """Stabilizer-state simulator supporting Clifford gates and Pauli measurements."""

    def __init__(self, num_qubits: int, seed: int | None = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self._rng = random.Random(seed)
        self.stabilizers = [
            PauliOperator.from_sparse(num_qubits, {q: "Z"}) for q in range(num_qubits)
        ]
        self.destabilizers = [
            PauliOperator.from_sparse(num_qubits, {q: "X"}) for q in range(num_qubits)
        ]

    # ------------------------------------------------------------------
    # Gates and errors
    # ------------------------------------------------------------------
    def apply_gate(self, gate: str, *qubits: int) -> None:
        """Apply a Clifford gate by conjugating every generator."""
        name = gate.upper()
        if name not in CLIFFORD_1Q and name not in CLIFFORD_2Q:
            raise ValueError(f"{gate!r} is not a Clifford gate supported by the tableau")
        for qubit in qubits:
            self._check_qubit(qubit)
        self.stabilizers = [
            conjugate_pauli(op, name, tuple(qubits), "forward") for op in self.stabilizers
        ]
        self.destabilizers = [
            conjugate_pauli(op, name, tuple(qubits), "forward")
            for op in self.destabilizers
        ]

    def apply_pauli(self, pauli: PauliOperator) -> None:
        """Apply a Pauli operator (for example an injected error).

        Conjugation by a Pauli only flips signs of anti-commuting generators.
        """
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("Pauli acts on a different number of qubits")
        self.stabilizers = [
            op if op.commutes_with(pauli) else -op for op in self.stabilizers
        ]
        self.destabilizers = [
            op if op.commutes_with(pauli) else -op for op in self.destabilizers
        ]

    def apply_error(self, qubit: int, pauli: str) -> None:
        """Inject a single-qubit X, Y or Z error."""
        self._check_qubit(qubit)
        self.apply_pauli(PauliOperator.from_sparse(self.num_qubits, {qubit: pauli}))

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure_pauli(self, observable: PauliOperator, forced_outcome: int | None = None) -> int:
        """Measure a Hermitian Pauli observable, returning the outcome bit.

        Outcome 0 corresponds to projecting onto the +1 eigenspace.  When the
        outcome is random, ``forced_outcome`` (0 or 1) postselects it, which
        the QEC test harness uses to explore specific syndrome branches.
        """
        if observable.num_qubits != self.num_qubits:
            raise ValueError("observable acts on a different number of qubits")
        if not observable.is_hermitian():
            raise ValueError("measurement observable must be Hermitian")

        anticommuting = [
            index
            for index, stab in enumerate(self.stabilizers)
            if not stab.commutes_with(observable)
        ]
        if anticommuting:
            return self._measure_random(observable, anticommuting, forced_outcome)
        return self._measure_deterministic(observable)

    def _measure_random(
        self,
        observable: PauliOperator,
        anticommuting: list[int],
        forced_outcome: int | None,
    ) -> int:
        pivot = anticommuting[0]
        pivot_stab = self.stabilizers[pivot]
        for index in anticommuting[1:]:
            self.stabilizers[index] = self.stabilizers[index] * pivot_stab
        for index, destab in enumerate(self.destabilizers):
            if index != pivot and not destab.commutes_with(observable):
                self.destabilizers[index] = destab * pivot_stab
        outcome = (
            forced_outcome if forced_outcome is not None else self._rng.randint(0, 1)
        )
        self.destabilizers[pivot] = pivot_stab
        self.stabilizers[pivot] = observable if outcome == 0 else -observable
        return outcome

    def _measure_deterministic(self, observable: PauliOperator) -> int:
        accumulated = PauliOperator.identity(self.num_qubits)
        for index, destab in enumerate(self.destabilizers):
            if not destab.commutes_with(observable):
                accumulated = accumulated * self.stabilizers[index]
        ratio = accumulated * observable.adjoint()
        if ratio.weight != 0:
            raise RuntimeError("tableau invariant violated during measurement")
        if ratio.phase == 0:
            return 0
        if ratio.phase == 2:
            return 1
        raise RuntimeError("deterministic measurement produced an imaginary phase")

    def measure_z(self, qubit: int, forced_outcome: int | None = None) -> int:
        """Computational-basis measurement of one qubit."""
        self._check_qubit(qubit)
        observable = PauliOperator.from_sparse(self.num_qubits, {qubit: "Z"})
        return self.measure_pauli(observable, forced_outcome)

    def reset_qubit(self, qubit: int) -> None:
        """Reset one qubit to |0> (measure Z and flip on outcome 1)."""
        outcome = self.measure_z(qubit)
        if outcome == 1:
            self.apply_error(qubit, "X")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_stabilized_by(self, observable: PauliOperator) -> bool:
        """Whether the current state is a +1 eigenstate of ``observable``."""
        if any(not stab.commutes_with(observable) for stab in self.stabilizers):
            return False
        return self._measure_deterministic(observable) == 0

    def expectation(self, observable: PauliOperator) -> int:
        """Expectation value of a Hermitian Pauli: +1, -1 or 0 (indeterminate)."""
        if any(not stab.commutes_with(observable) for stab in self.stabilizers):
            return 0
        return 1 if self._measure_deterministic(observable) == 0 else -1

    def copy(self) -> "StabilizerTableau":
        clone = StabilizerTableau(self.num_qubits)
        clone.stabilizers = list(self.stabilizers)
        clone.destabilizers = list(self.destabilizers)
        clone._rng = random.Random()
        clone._rng.setstate(self._rng.getstate())
        return clone

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit index {qubit} out of range")
