"""The unified, JSON-serializable verification result.

``Result`` is what every task returns: the verdict, the counterexample, the
solver statistics and the engine-level fields (backend, compile time, cache
hit).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.api.tasks import ProgramTask

__all__ = ["Result"]


@dataclass
class Result:
    """Outcome of one verification task.

    ``verified`` is True when the property holds for *all* error
    configurations in scope (the underlying SAT query was unsatisfiable);
    otherwise ``counterexample`` holds a concrete falsifying assignment.
    """

    task: str
    subject: str
    verified: bool
    counterexample: dict[str, bool] | None = None
    elapsed_seconds: float = 0.0
    compile_seconds: float = 0.0
    backend: str = "serial"
    cached: bool = False
    num_variables: int = 0
    num_clauses: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    details: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        status = "VERIFIED" if self.verified else "COUNTEREXAMPLE"
        return (
            f"[{status}] {self.task} on {self.subject} "
            f"({self.elapsed_seconds:.3f}s, {self.num_variables} vars, "
            f"{self.num_clauses} clauses, {self.conflicts} conflicts, "
            f"{self.decisions} decisions, {self.propagations} propagations)"
        )

    def session_stats(self) -> dict | None:
        """Cumulative per-session solver statistics, when a persistent
        session decided this task (see ``details["session"]``), merged with
        the engine's resource counters (context hits and misses,
        learnt clauses kept/deleted) when the resource layer was involved
        (``details["resources"]``)."""
        stats = self.details.get("session")
        resources = self.details.get("resources")
        merged: dict = {}
        # Resource counters first, session counters second: where the keys
        # overlap (learnt_kept/learnt_deleted), the per-session values — the
        # ones describing the session that decided THIS task — win over the
        # engine-wide sums, which stay available under details["resources"].
        if isinstance(resources, dict):
            merged.update(resources)
        if isinstance(stats, dict):
            merged.update(stats)
        return merged or None

    def counterexample_qubits(self) -> list[int]:
        """0-based indices of the qubits carrying an error in the counterexample.

        The direct encodings name error bits from qubit 0 (``ex_0``/``ez_0``/
        ``e_0``, :mod:`repro.verifier.encodings`); the program-logic route
        follows the paper's ``e_1``…``e_n`` (:mod:`repro.verifier.programs`).
        """
        if not self.counterexample:
            return []
        base = 1 if self.task.startswith(ProgramTask.kind) else 0
        qubits = set()
        for name, value in self.counterexample.items():
            if value and (name.startswith("ex_") or name.startswith("ez_") or name.startswith("e_")):
                qubits.add(int(name.rsplit("_", 1)[1]) - base)
        return sorted(qubits)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Result":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in payload.items() if key in known})

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str, sort_keys=False)

    @classmethod
    def from_json(cls, payload: str) -> "Result":
        return cls.from_dict(json.loads(payload))
