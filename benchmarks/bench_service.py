"""Service load benchmark: latency and throughput over real sockets.

Starts one :class:`repro.service.VerificationService` on an ephemeral port
(in-process, background event loop) and drives it with ``--clients`` (default
8) concurrent :class:`~repro.service.client.ServiceClient` threads, each
submitting ``--jobs-per-client`` jobs from a fixed mixed workload (correction
and detection on small registry codes) and streaming every job's NDJSON
events to its terminal line.  The report (``BENCH_service.json``) carries:

* **job latency** p50/p99 — POST issued → terminal event read off the wire
  (queueing + execution + streaming, the number a caller experiences);
* **submit latency** p50/p99 — the POST round-trip alone (HTTP + admission
  overhead, independent of solver time);
* **jobs/sec** — completed jobs over the busy window;
* stream validation — every line of every stream is held to the
  ``schema_version 1.0`` contract (the run *fails* on a violation);
* admission counters (the workload sizes its token buckets so 429s mean the
  harness is misconfigured — also a failure).

``--mixed-registry`` switches to the dispatcher sweep (``BENCH_dispatch.json``):
one task per registry code, run twice on identical single-client traffic —
once against the serial baseline (1 lane, the historical two-connection
submit-then-stream client) and once against the sharded dispatcher
(``--lanes`` worker lanes, keep-alive submit-and-stream).  The run *fails*
unless the verdict maps are identical and the sharded/serial jobs-per-second
ratio clears ``--min-speedup`` (default 1.5x); its baseline gate is
``--check-baseline benchmarks/baselines/dispatch.json``.

Regression gate (``--check-baseline benchmarks/baselines/service.json``):
compares calibration-normalized job-latency p50 and jobs/sec against the
committed baseline and fails on a > ``--tolerance`` (default 1.5x —
latency percentiles over a few dozen jobs are noisy even normalized, and
the gate is for catching step-change regressions, not jitter) regression,
same normalization scheme as ``bench_solver_hotpath.py``.  CI runs
``--quick``; the full run produces the committed ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import threading
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOAD = (
    {"kind": "correction", "code": "steane"},
    {"kind": "detection", "code": "steane", "trial_distance": 3},
    {"kind": "correction", "code": "five-qubit"},
    {"kind": "detection", "code": "five-qubit", "trial_distance": 3},
)
LANES = ("interactive", "normal", "batch")

#: the ``--mixed-registry`` sweep: one task per registry code family/key, so
#: every job routes to a shard determined by its code.
MIXED_REGISTRY = (
    {"kind": "correction", "code": "steane"},
    {"kind": "correction", "code": "five-qubit"},
    {"kind": "correction", "code": "six-qubit"},
    {"kind": "correction", "code": "surface-3"},
    {"kind": "correction", "code": "surface-5", "max_errors": 1},
    {"kind": "detection", "code": "color-832"},
    {"kind": "correction", "code": "gottesman-8"},
    {"kind": "detection", "code": "iceberg-6"},
)


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def calibrate() -> float:
    """Seconds for a fixed pure-python workload; the machine-speed yardstick."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_500_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class ServiceUnderTest:
    """The service on an ephemeral port, its loop on a daemon thread."""

    def __init__(self, **engine_kwargs):
        from repro.service import AdmissionController, VerificationService

        # Benchmark posture: admission generous enough that the measured
        # numbers are the engine's and the wire's, not the rate limiter's.
        self.service = VerificationService(
            port=0,
            admission=AdmissionController(
                max_pending=4096, max_inflight_per_key=1024, rate=1e6, burst=1e6
            ),
            drain_grace=30.0,
            **engine_kwargs,
        )
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

    def __enter__(self) -> "ServiceUnderTest":
        self._thread.start()
        if not self._ready.wait(15):
            raise RuntimeError("service failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(120)

    @property
    def port(self) -> int:
        return self.service.port


#: The ``--faults armed`` plan: one rule per injection point, each parked
#: behind an unreachable ``after`` threshold — every hook is live (the plan
#: lookup and hit accounting run on each call) but nothing ever fires.
IDLE_FAULT_PLAN = {
    "faults": [
        {"point": point, "after": 10**9}
        for point in (
            "store.read",
            "store.write",
            "lane.crash",
            "socket.reset",
            "loop.stall",
        )
    ]
}


def run_load(clients: int, jobs_per_client: int, fault_plan=None) -> dict:
    """One full load run; returns the measured section of the report."""
    from repro.api.events import validate_stream
    from repro.service.client import ServiceClient, ServiceError

    job_latencies: list[float] = []
    submit_latencies: list[float] = []
    all_lines: list[str] = []
    rejections = 0
    errors: list[str] = []
    lock = threading.Lock()

    with ServiceUnderTest(fault_plan=fault_plan) as under_test:
        port = under_test.port

        def client_thread(index: int) -> None:
            nonlocal rejections
            client = ServiceClient("127.0.0.1", port, api_key=f"bench-{index}")
            for jobnum in range(jobs_per_client):
                task = WORKLOAD[(index + jobnum) % len(WORKLOAD)]
                lane = LANES[(index + jobnum) % len(LANES)]
                begin = time.perf_counter()
                try:
                    descriptor = client.submit(task, lane=lane)
                    submitted = time.perf_counter()
                    lines = list(client.events(descriptor["id"], raw=True))
                    done = time.perf_counter()
                except ServiceError as error:
                    with lock:
                        if error.status == 429:
                            rejections += 1
                        errors.append(f"client {index} job {jobnum}: {error}")
                    continue
                with lock:
                    submit_latencies.append(submitted - begin)
                    job_latencies.append(done - begin)
                    all_lines.extend(lines)

        threads = [
            threading.Thread(target=client_thread, args=(index,))
            for index in range(clients)
        ]
        busy_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy = time.perf_counter() - busy_start
        stats = ServiceClient("127.0.0.1", port).stats()

    num_events, counts, stream_errors = validate_stream(all_lines)
    expected = clients * jobs_per_client
    completed = len(job_latencies)
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "jobs_expected": expected,
        "jobs_completed": completed,
        "busy_seconds": busy,
        "jobs_per_second": completed / busy if busy > 0 else 0.0,
        "job_latency_p50": _percentile(job_latencies, 0.50),
        "job_latency_p99": _percentile(job_latencies, 0.99),
        "submit_latency_p50": _percentile(submit_latencies, 0.50),
        "submit_latency_p99": _percentile(submit_latencies, 0.99),
        "events_streamed": num_events,
        "event_counts": counts,
        "stream_errors": stream_errors,
        "rejected_429": rejections,
        "client_errors": errors,
        "admission": stats["admission"],
        "engine": stats["engine"],
    }


def _spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _run_mixed_pass(client, specs, stream: bool, latencies=None) -> dict:
    """One pass over ``specs`` on one client; returns {spec_key: verified}."""
    verdicts: dict[str, bool] = {}
    for spec in specs:
        begin = time.perf_counter()
        if stream:
            _, events = client.submit_stream(spec)
            final = list(events)[-1]
        else:
            descriptor = client.submit(spec)
            final = list(client.events(descriptor["id"]))[-1]
        if latencies is not None:
            latencies.append(time.perf_counter() - begin)
        verdicts[_spec_key(spec)] = final.get("verified")
    return verdicts


def _mixed_side(
    *, lanes: int, stream: bool, per_spec: int, warmup_passes: int,
) -> dict:
    """One side of the mixed-registry comparison: serve, warm, measure."""
    from repro.service.client import ServiceClient

    with ServiceUnderTest(lanes=lanes) as under_test:
        client = ServiceClient(
            "127.0.0.1", under_test.port, api_key="mixed", keep_alive=stream
        )
        # Warmup amortizes compilation, so the timed window measures
        # dispatch + solving.
        verdicts: dict[str, bool] = {}
        for _ in range(warmup_passes):
            verdicts = _run_mixed_pass(client, MIXED_REGISTRY, stream)
        latencies: list[float] = []
        busy_start = time.perf_counter()
        for _ in range(per_spec):
            passed = _run_mixed_pass(client, MIXED_REGISTRY, stream, latencies)
            if passed != verdicts:
                raise RuntimeError(f"verdicts changed mid-run: {passed}")
        busy = time.perf_counter() - busy_start
        client.close()
        stats = ServiceClient("127.0.0.1", under_test.port).stats()

    completed = per_spec * len(MIXED_REGISTRY)
    return {
        "lanes": lanes,
        "keep_alive_stream": stream,
        "passes": per_spec,
        "jobs_completed": completed,
        "busy_seconds": busy,
        "jobs_per_second": completed / busy if busy > 0 else 0.0,
        "job_latency_p50": _percentile(latencies, 0.50),
        "job_latency_p99": _percentile(latencies, 0.99),
        "verdicts": verdicts,
        "lane_table": stats["resources"].get("lanes", []),
    }


def run_mixed_registry(per_spec: int, lanes: int) -> dict:
    """The sharded dispatcher vs the serial baseline on identical traffic.

    Serial side: 1 lane, the historical two-connection submit-then-stream
    client — the pre-dispatcher execution model.  Sharded side: ``lanes``
    worker lanes, submit-and-stream on one keep-alive connection.  Both sides run the same single-client job
    sequence, so the speedup is per-job cost, not client parallelism.
    """
    serial = _mixed_side(
        lanes=1, stream=False, per_spec=per_spec, warmup_passes=2,
    )
    sharded = _mixed_side(
        lanes=lanes, stream=True, per_spec=per_spec, warmup_passes=2,
    )
    speedup = (
        sharded["jobs_per_second"] / serial["jobs_per_second"]
        if serial["jobs_per_second"] > 0
        else 0.0
    )
    return {
        "workload": list(MIXED_REGISTRY),
        "serial": serial,
        "sharded": sharded,
        "verdicts_match": serial["verdicts"] == sharded["verdicts"],
        "speedup": speedup,
    }


def check_dispatch_baseline(
    report: dict, baseline_path: str, tolerance: float
) -> list[str]:
    """Mixed-registry gate: sharded throughput (calibration-normalized) and
    the serial-vs-sharded speedup ratio must not regress past tolerance."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    problems: list[str] = []
    base, here = baseline["mixed_registry"], report["mixed_registry"]
    base_jps = (
        base["sharded"]["jobs_per_second"] * baseline["calibration_seconds"]
    )
    here_jps = here["sharded"]["jobs_per_second"] * report["calibration_seconds"]
    if here_jps * tolerance < base_jps:
        problems.append(
            f"normalized sharded jobs/sec regression: {here_jps:.2f} * "
            f"{tolerance} < {base_jps:.2f} (baseline {baseline_path})"
        )
    if here["speedup"] * tolerance < base["speedup"]:
        problems.append(
            f"dispatch speedup regression: {here['speedup']:.2f} * {tolerance}"
            f" < baseline {base['speedup']:.2f} ({baseline_path})"
        )
    return problems


def fault_hook_column(report: dict, args) -> dict:
    """The ``--faults`` column: what do the injection hooks cost when idle?

    The default run above already measured the shipped configuration —
    hooks present but disarmed (every ``fire()`` site is a ``None`` check).
    Its overhead is reported against the committed pre-hook baseline,
    calibration-normalized.  ``--faults armed`` additionally re-runs the
    load under a live plan whose rules are parked behind an unreachable
    ``after`` threshold, pricing the hook accounting itself.
    """
    from repro import faults

    column: dict = {"mode": args.faults, "disarmed": {
        "jobs_per_second": report["load"]["jobs_per_second"],
        "job_latency_p50": report["load"]["job_latency_p50"],
    }}
    if args.faults == "armed":
        try:
            armed = run_load(
                report["load"]["clients"],
                report["load"]["jobs_per_client"],
                fault_plan=IDLE_FAULT_PLAN,
            )
        finally:
            faults.disarm()
        column["armed_idle"] = {
            "jobs_per_second": armed["jobs_per_second"],
            "job_latency_p50": armed["job_latency_p50"],
            "armed_overhead_percent": 100.0
            * (1.0 - armed["jobs_per_second"] / report["load"]["jobs_per_second"])
            if report["load"]["jobs_per_second"] > 0
            else 0.0,
        }
    baseline_path = args.check_baseline or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "baselines", "service.json"
    )
    if os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        # Normalized so a slower/faster machine cancels out: jobs/sec scales
        # inversely with machine slowness, so multiply by calibration time.
        base_jps = (
            baseline["load"]["jobs_per_second"] * baseline["calibration_seconds"]
        )
        here_jps = (
            report["load"]["jobs_per_second"] * report["calibration_seconds"]
        )
        column["baseline"] = {
            "path": baseline_path,
            "normalized_jobs_per_second": base_jps,
            "disarmed_normalized_jobs_per_second": here_jps,
            "disarmed_overhead_percent": 100.0 * (1.0 - here_jps / base_jps)
            if base_jps > 0
            else 0.0,
        }
    return column


def check_baseline(report: dict, baseline_path: str, tolerance: float) -> list[str]:
    """Calibration-normalized latency/throughput gate vs a committed run."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    problems: list[str] = []
    base, here = baseline["load"], report["load"]
    # Latencies scale with machine slowness, throughput inversely.
    base_p50 = base["job_latency_p50"] / baseline["calibration_seconds"]
    here_p50 = here["job_latency_p50"] / report["calibration_seconds"]
    if here_p50 > base_p50 * tolerance:
        problems.append(
            f"normalized job-latency p50 regression: {here_p50:.2f} > "
            f"{base_p50:.2f} * {tolerance} (baseline {baseline_path})"
        )
    base_jps = base["jobs_per_second"] * baseline["calibration_seconds"]
    here_jps = here["jobs_per_second"] * report["calibration_seconds"]
    if here_jps * tolerance < base_jps:
        problems.append(
            f"normalized jobs/sec regression: {here_jps:.2f} * {tolerance} < "
            f"{base_jps:.2f} (baseline {baseline_path})"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--jobs-per-client", type=int, default=6,
                        help="jobs each client submits (default 6)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: 8 clients x 4 jobs "
                             "(mixed-registry: 12 passes)")
    parser.add_argument("--mixed-registry", action="store_true",
                        help="run the sharded-dispatcher vs serial-baseline "
                             "sweep over one task per registry code instead "
                             "of the concurrent load test")
    parser.add_argument("--lanes", type=int, default=4,
                        help="dispatcher lanes for the sharded side of "
                             "--mixed-registry (default 4)")
    parser.add_argument("--per-spec", type=int, default=40,
                        help="timed passes over the mixed-registry workload "
                             "(default 40)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required sharded/serial jobs-per-second ratio "
                             "in --mixed-registry (default 1.5)")
    parser.add_argument("--faults", choices=["off", "armed"], default=None,
                        help="add the fault-hook overhead column: 'off' "
                             "measures the shipped disarmed-hook path and "
                             "reports its normalized jobs/sec overhead vs "
                             "the committed baseline; 'armed' additionally "
                             "serves under a live plan whose rules never "
                             "fire (hook accounting, no injections)")
    parser.add_argument("--output", default="BENCH_service.json",
                        help="where to write the JSON report")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail on latency/throughput regression vs this baseline")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed normalized ratio vs baseline")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and write the report without gating")
    args = parser.parse_args(argv)

    if args.mixed_registry:
        return main_mixed_registry(args)

    clients = args.clients
    jobs_per_client = 4 if args.quick else args.jobs_per_client

    report = {
        "schema": 1,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_seconds": calibrate(),
        "load": run_load(clients, jobs_per_client),
    }
    load = report["load"]
    if args.faults is not None:
        report["fault_hooks"] = fault_hook_column(report, args)
    print(
        f"{load['jobs_completed']}/{load['jobs_expected']} jobs in "
        f"{load['busy_seconds']:.2f}s  "
        f"{load['jobs_per_second']:.1f} jobs/s  "
        f"latency p50 {1e3 * load['job_latency_p50']:.1f}ms "
        f"p99 {1e3 * load['job_latency_p99']:.1f}ms  "
        f"submit p50 {1e3 * load['submit_latency_p50']:.2f}ms  "
        f"{load['events_streamed']} events, "
        f"{len(load['stream_errors'])} stream errors, "
        f"{load['rejected_429']} rejections"
    )
    if args.faults is not None:
        hooks = report["fault_hooks"]
        if "baseline" in hooks:
            print(
                f"fault hooks (disarmed) overhead vs baseline: "
                f"{hooks['baseline']['disarmed_overhead_percent']:+.1f}% jobs/s"
            )
        if "armed_idle" in hooks:
            print(
                f"fault hooks (armed, idle plan): "
                f"{hooks['armed_idle']['jobs_per_second']:.1f} jobs/s "
                f"({hooks['armed_idle']['armed_overhead_percent']:+.1f}%)"
            )

    problems: list[str] = []
    if load["stream_errors"]:
        problems.append(f"stream validation failed: {load['stream_errors'][:3]}")
    if load["client_errors"]:
        problems.append(f"client errors: {load['client_errors'][:3]}")
    if load["jobs_completed"] != load["jobs_expected"]:
        problems.append(
            f"only {load['jobs_completed']}/{load['jobs_expected']} jobs completed"
        )
    if args.check_baseline:
        if not os.path.exists(args.check_baseline):
            problems.append(f"missing baseline file: {args.check_baseline}")
        else:
            problems.extend(
                check_baseline(report, args.check_baseline, args.tolerance)
            )

    report["problems"] = problems
    report["passed"] = not problems
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    if problems and not args.no_assert:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


def main_mixed_registry(args) -> int:
    per_spec = 12 if args.quick else args.per_spec
    report = {
        "schema": 1,
        "mode": "mixed-registry",
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_seconds": calibrate(),
        "mixed_registry": run_mixed_registry(per_spec, args.lanes),
    }
    mixed = report["mixed_registry"]
    serial, sharded = mixed["serial"], mixed["sharded"]
    print(
        f"serial   (1 lane, 2-conn): "
        f"{serial['jobs_per_second']:.1f} jobs/s  "
        f"p50 {1e3 * serial['job_latency_p50']:.2f}ms"
    )
    print(
        f"sharded  ({sharded['lanes']} lanes, keep-alive): "
        f"{sharded['jobs_per_second']:.1f} jobs/s  "
        f"p50 {1e3 * sharded['job_latency_p50']:.2f}ms"
    )
    print(
        f"speedup {mixed['speedup']:.2f}x  "
        f"verdicts {'match' if mixed['verdicts_match'] else 'DIVERGE'}"
    )

    problems: list[str] = []
    if not mixed["verdicts_match"]:
        problems.append(
            f"sharded verdicts diverge from serial: "
            f"serial={serial['verdicts']} sharded={sharded['verdicts']}"
        )
    if mixed["speedup"] < args.min_speedup:
        problems.append(
            f"speedup {mixed['speedup']:.2f}x below required "
            f"{args.min_speedup}x"
        )
    if args.check_baseline:
        if not os.path.exists(args.check_baseline):
            problems.append(f"missing baseline file: {args.check_baseline}")
        else:
            problems.extend(
                check_dispatch_baseline(report, args.check_baseline, args.tolerance)
            )

    report["problems"] = problems
    report["passed"] = not problems
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    if problems and not args.no_assert:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
