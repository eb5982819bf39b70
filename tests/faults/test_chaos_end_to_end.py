"""The acceptance chaos test: a faulted sweep equals a fault-free sweep.

One seeded plan kills a lane mid-job, injects three store write failures
and resets one event-stream socket.  A retrying :class:`ServiceClient`
must still complete the full mixed-registry sweep with a verdict map
byte-identical to a clean run's, without double-running any job
(idempotency keys), and the store's circuit breaker must be observed to
open and re-close through ``GET /stats``.
"""

import json
import threading
import time

import pytest

from repro import faults
from repro.service import VerificationService
from repro.store import ClauseStore

#: A mixed-registry sweep: three code families, three task kinds.
SWEEP = [
    {"kind": "correction", "code": "steane"},
    {"kind": "correction", "code": "five-qubit"},
    {"kind": "correction", "code": "six-qubit"},
    {"kind": "detection", "code": "steane", "trial_distance": 3},
    {"kind": "distance", "code": "five-qubit"},
    {"kind": "correction", "code": "xzzx-3"},
]

#: Codes untouched by the sweep — fodder for fresh store reads while the
#: test waits for the breaker's recovery probe to close it again.
SPARE_CODES = ["shor", "surface-3", "repetition-5", "gottesman-8"]


class Harness:
    """A live service on an ephemeral port (same shape as the service tests)."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("drain_grace", 5.0)
        self.service = VerificationService(port=0, **service_kwargs)
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        async def main():
            await self.service.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.serve_forever(install_signal_handlers=False)

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "service failed to start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(60)
        assert not self._thread.is_alive(), "service failed to drain"

    def client(self, **kwargs):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.service.port, **kwargs)


def _verdict(result: dict) -> dict:
    view = {key: result.get(key) for key in ("task", "subject", "verified")}
    view["counterexample"] = result.get("counterexample")
    details = result.get("details") or {}
    if "distance" in details:
        view["distance"] = details["distance"]
    return view


def _run_sweep(client) -> dict:
    """Submit the sweep serially; resubmit (fresh job) on lane crashes."""
    verdicts = {}
    for spec in SWEEP:
        key = json.dumps(spec, sort_keys=True)
        for _attempt in range(3):
            job = client.submit(dict(spec))
            terminal = list(client.events(job["id"]))[-1]
            if (
                terminal["event"] == "JobFailed"
                and terminal.get("reason") == "lane_crash"
            ):
                continue  # infrastructure died under the job: run it again
            assert terminal["event"] == "JobCompleted", terminal
            break
        else:
            pytest.fail(f"{key} failed on every attempt")
        verdicts[key] = _verdict(client.job(job["id"])["result"])
    return verdicts


def test_faulted_sweep_is_byte_identical_to_clean_run(tmp_path):
    with Harness() as clean:
        clean_verdicts = _run_sweep(
            clean.client(api_key="clean", retries=3, backoff=0.01, backoff_cap=0.05)
        )

    log_path = tmp_path / "faults.ndjson"
    plan = faults.install(
        {
            "seed": 7,
            "log": str(log_path),
            "faults": [
                {"point": "lane.crash", "times": 1},
                {"point": "store.write", "times": 3},
                {"point": "socket.reset", "times": 1},
            ],
        }
    )
    # Constructed after arming, so the store's hook is live; threshold 1 +
    # a short cooldown makes the open → half-open → closed walk observable
    # within the test's budget.
    store = ClauseStore(
        str(tmp_path / "store"), breaker_threshold=1, breaker_cooldown=0.05
    )
    try:
        with Harness(clause_store=store) as chaotic:
            client = chaotic.client(
                api_key="chaos", retries=3, backoff=0.01, backoff_cap=0.05
            )
            fault_verdicts = _run_sweep(client)

            # The whole plan struck: the lane died, writes failed, one
            # stream was reset — and the sweep still finished.
            fired = {rule.point: rule.fired for rule in plan.rules}
            assert fired["lane.crash"] == 1
            assert fired["socket.reset"] == 1
            assert fired["store.write"] >= 1
            assert chaotic.service.engine._executor.lane_crashes == 1

            # Verdict maps are byte-identical despite the chaos.
            assert json.dumps(fault_verdicts, sort_keys=True) == json.dumps(
                clean_verdicts, sort_keys=True
            )

            # Idempotent resubmission: the same key returns the same job,
            # and the registry gains exactly one job for the two POSTs.
            before = sum(client.stats()["jobs"].values())
            first = client.submit(
                {"kind": "correction", "code": "steane"},
                idempotency_key="chaos-dup",
            )
            second = client.submit(
                {"kind": "correction", "code": "steane"},
                idempotency_key="chaos-dup",
            )
            assert second["id"] == first["id"]
            assert second["deduplicated"] is True
            list(client.events(first["id"]))
            assert sum(client.stats()["jobs"].values()) == before + 1

            # The breaker opened on the injected write failures and, once
            # they were exhausted, a successful recovery probe re-closed it
            # — both observed through GET /stats.
            spare = list(SPARE_CODES)
            deadline = time.monotonic() + 30
            while True:
                stats = client.stats()["resources"].get("store", {})
                if (
                    stats.get("breaker_opened", 0) >= 1
                    and stats.get("breaker_state") == "closed"
                ):
                    break
                if time.monotonic() > deadline:
                    pytest.fail(f"breaker never re-closed: {stats}")
                if spare:
                    # A fresh code forces a store read (its context's warm
                    # load) — a recovery probe for the half-open breaker.
                    job = client.submit({"kind": "correction", "code": spare.pop(0)})
                    list(client.events(job["id"]))
                time.sleep(0.05)

            # The audit trail recorded every firing.
            records = [
                json.loads(line) for line in log_path.read_text().splitlines()
            ]
            assert len(records) == len(plan.fired)
            assert {r["point"] for r in records} >= {"lane.crash", "socket.reset"}
    finally:
        faults.disarm()
