"""Veri-QEC reproduction: efficient formal verification of QEC programs.

The package layers, bottom to top:

* ``repro.utils``, ``repro.pauli``, ``repro.classical`` -- GF(2) linear
  algebra, Pauli/stabilizer machinery and the classical expression language;
* ``repro.smt`` -- the CDCL SAT solver and formula encoder standing in for
  Z3/CVC5;
* ``repro.codes``, ``repro.decoders`` -- the stabilizer-code suite of Table 3;
* ``repro.lang``, ``repro.logic``, ``repro.semantics`` -- the QEC programming
  language, the assertion logic, and the dense operational semantics;
* ``repro.hoare``, ``repro.vc`` -- the proof system of Fig. 3 and the
  verification-condition reduction of Section 5;
* ``repro.api`` -- the task-based verification engine: frozen task objects,
  the serial and parallel backends, one shared solver context per code
  (which also keeps each task's compile), batch execution
  (``Engine.run_many``) and the ``python -m repro`` CLI;
* ``repro.verifier`` -- the refutation encodings, error constraints and
  correctness-formula generators the engine compiles tasks with.

Every verification runs through ``repro.api``::

    from repro.api import CorrectionTask, Engine

    result = Engine().run(CorrectionTask(code="steane"))
"""

from repro.api import (
    ConstrainedTask,
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    Engine,
    FixedErrorTask,
    ParallelBackend,
    ProgramTask,
    Result,
    SerialBackend,
    registry_sweep_tasks,
)

__version__ = "1.1.0"

__all__ = [
    "Engine",
    "Result",
    "CorrectionTask",
    "DetectionTask",
    "DistanceTask",
    "ConstrainedTask",
    "FixedErrorTask",
    "ProgramTask",
    "SerialBackend",
    "ParallelBackend",
    "registry_sweep_tasks",
    "__version__",
]
