"""The task-based verification API.

Reify a request as a task, hand it to an :class:`Engine`, get a unified
:class:`Result` back::

    from repro.api import CorrectionTask, Engine

    result = Engine().run(CorrectionTask(code="steane"))
    assert result.verified

Batches run through :meth:`Engine.run_many`, optionally across a process
pool; a task is decided by one of two backends, :class:`SerialBackend` (one
SAT query) or :class:`ParallelBackend` (the paper's enumeration split);
``python -m repro`` exposes the same engine on the command line.

The job-oriented surface layers on top: :meth:`Engine.submit` returns a
:class:`Job` handle (stream typed events, wait for the result, cancel,
bound by a deadline), :mod:`repro.service` serves those jobs over HTTP, and
:mod:`repro.api.events` defines the versioned event schema the streams
speak::

    job = Engine().submit(DistanceTask(code="surface-5"), deadline=30.0)
    for event in job.events():
        ...
    result = job.result()
"""

from repro.api.backends import Backend, ParallelBackend, SerialBackend, coerce_backend
from repro.api.engine import CompiledTask, Engine, registry_sweep_tasks
from repro.api.events import (
    SCHEMA_VERSION,
    DistanceProbe,
    Event,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobSubmitted,
    SolverStats,
    SubtaskStarted,
    TaskCompiled,
)
from repro.api.jobs import Job, JobCancelledError, JobStatus
from repro.api.resources import (
    CodeContext,
    ContextView,
    ResourceManager,
)
from repro.api.result import Result
from repro.api.tasks import (
    ConstrainedTask,
    CorrectionTask,
    DetectionTask,
    DistanceTask,
    FixedErrorTask,
    ProgramTask,
    Task,
    TASK_KINDS,
    resolve_code,
    task_from_dict,
)

__all__ = [
    "Backend",
    "SerialBackend",
    "ParallelBackend",
    "coerce_backend",
    "CompiledTask",
    "Engine",
    "registry_sweep_tasks",
    "Job",
    "JobCancelledError",
    "JobStatus",
    "SCHEMA_VERSION",
    "Event",
    "JobSubmitted",
    "TaskCompiled",
    "SubtaskStarted",
    "DistanceProbe",
    "SolverStats",
    "JobCompleted",
    "JobCancelled",
    "JobFailed",
    "CodeContext",
    "ContextView",
    "ResourceManager",
    "Result",
    "Task",
    "CorrectionTask",
    "DetectionTask",
    "DistanceTask",
    "ConstrainedTask",
    "FixedErrorTask",
    "ProgramTask",
    "TASK_KINDS",
    "resolve_code",
    "task_from_dict",
]
