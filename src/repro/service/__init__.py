"""The networked verification service: the job API on the wire.

:mod:`repro.service` layers a stdlib-only asyncio HTTP/1.1 server on top of
the :class:`~repro.api.engine.Engine` job API (:meth:`Engine.submit
<repro.api.engine.Engine.submit>` and :class:`~repro.api.jobs.Job`), turning
the in-process submit/stream/cancel job surface into a multi-tenant network
service::

    python -m repro serve --port 8080

    curl -d '{"task": {"kind": "correction", "code": "steane"}}' \
         http://localhost:8080/jobs
    curl http://localhost:8080/jobs/job-1/events     # chunked NDJSON stream

The NDJSON event stream is exactly the ``schema_version 1.0`` contract of
:mod:`repro.api.events` (replay-then-live, contiguous ``seq``, one terminal
event), so ``python -m repro validate-events`` validates what the wire
carries.  The server is production-shaped: per-client token-bucket admission
control and in-flight quotas (:mod:`repro.service.admission`), priority
lanes mapped onto the dispatcher's priorities, bounded submit queues with
429 + ``Retry-After`` backpressure, request timeouts, graceful drain on
SIGTERM (:mod:`repro.service.drain`), and structured NDJSON access logging.

:mod:`repro.service.client` is the stdlib blocking client the tests and the
``service-mixed`` benchmark workload use.
"""

from repro.service.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.service.client import ServiceClient, ServiceError
from repro.service.drain import DrainCoordinator
from repro.service.server import VerificationService

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "DrainCoordinator",
    "ServiceClient",
    "ServiceError",
    "VerificationService",
]
