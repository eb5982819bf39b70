#!/usr/bin/env python
"""CI smoke for the verification service — the full lifecycle, end to end.

1. start ``python -m repro serve`` on an ephemeral port (subprocess);
2. read the readiness line (``{"event": "listening", ...}``) off stdout;
3. concurrently submit a steane accurate-correction job and a surface-3
   distance-discovery job, streaming both NDJSON event streams to disk;
4. validate the captured streams with ``python -m repro validate-events``
   (the schema_version 1.0 wire contract);
5. submit the steane correction again: its ``TaskCompiled`` must report
   ``cached: true`` (the code context kept the compiled task) and
   ``GET /stats`` must count it in ``engine.hits``;
6. SIGTERM the server and require a graceful drain: exit code 0 and a
   ``drained`` line reporting no orphaned jobs.

With ``--fault-plan`` the script runs the chaos smoke instead: the same
sweep is driven twice — once clean, once against a server armed with a
seeded fault plan (a lane kill, three store write failures, one
event-stream socket reset) — through a retrying client.  The faulted run
must produce a verdict map byte-identical to the clean run, the server must
still drain to exit 0 with no orphans, and the fault log (``FAULT_LOG``,
default ``fault-log.ndjson``) must record every point striking.

Then the resume smoke: a server with ``--clause-store`` is SIGTERMed
mid-distance-walk (zero drain grace, so the in-flight job is cancelled,
leaving its checkpoint behind), a fresh server over the same store
directory replays the job, and the replay must report ``resumed_from``,
finish in strictly fewer probes than a cold walk, and land on the same
distance.  The cancel races the walk, so the kill is retried with a fresh
store until it lands mid-flight.

Exits non-zero on any deviation.  Run from the repository root:

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _start_server(*extra_args: str) -> tuple[subprocess.Popen, int]:
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
    )
    ready = json.loads(server.stdout.readline())
    assert ready["event"] == "listening", ready
    return server, ready["port"]


def _checkpoint_count(store_dir: str) -> int:
    import os
    import sqlite3

    path = os.path.join(store_dir, "clauses.sqlite")
    if not os.path.isfile(path):
        return 0
    with sqlite3.connect(path) as conn:
        (count,) = conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
    return count


def resume_smoke() -> int:
    """Kill a distance walk mid-flight, restart over the same store, and
    require the replay to resume instead of restarting."""
    from repro.api import DistanceTask, Engine
    from repro.service.client import ServiceClient

    task = {"kind": "distance", "code": "surface-5"}
    cold_engine = Engine()
    cold = cold_engine.run(DistanceTask(code="surface-5"))
    cold_engine.close()
    cold_probes = len(cold.details["trials"])
    cold_distance = cold.details["distance"]
    print(f"cold reference: {cold_probes} probes, distance {cold_distance}")

    store_dir = None
    for attempt in range(8):
        store_dir = tempfile.mkdtemp(prefix="smoke-clause-store-")
        server, port = _start_server("--clause-store", store_dir, "--drain-grace", "0.05")
        try:
            client = ServiceClient("127.0.0.1", port, api_key="ci-smoke")
            job = client.submit(task)
            # SIGTERM as soon as the walk reports its first probe: zero
            # drain grace cancels the in-flight job, whose checkpoint stays.
            try:
                for line in client.events(job["id"], raw=True):
                    if '"DistanceProbe"' in line:
                        server.send_signal(signal.SIGTERM)
            except Exception:  # noqa: BLE001 - the stream dies with the server
                pass
            server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
        if _checkpoint_count(store_dir) == 1:
            break  # the kill landed mid-walk
        print(f"resume-smoke attempt {attempt + 1}: walk finished before the kill; retrying")
    else:
        print("FAIL: could not interrupt a distance walk mid-flight", file=sys.stderr)
        return 1

    server, port = _start_server("--clause-store", store_dir)
    try:
        client = ServiceClient("127.0.0.1", port, api_key="ci-smoke")
        job = client.submit(task)
        stream = tempfile.mktemp(suffix=".ndjson")
        probes = 0
        completed = None
        with open(stream, "w", encoding="utf-8") as handle:
            for line in client.events(job["id"], raw=True):
                handle.write(line + "\n")
                if '"DistanceProbe"' in line:
                    probes += 1
                if '"JobCompleted"' in line:
                    completed = json.loads(line)
        final = client.job(job["id"])
        server.send_signal(signal.SIGTERM)
        server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()

    validate = subprocess.run(
        [sys.executable, "-m", "repro", "validate-events", stream],
        cwd=REPO,
        env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
    )
    failures = []
    if validate.returncode != 0:
        failures.append("resumed event stream failed schema validation")
    if final["status"] != "succeeded":
        failures.append(f"resumed job ended {final['status']}")
    if not completed or not completed.get("resumed_from"):
        failures.append(f"resumed JobCompleted lacks resumed_from: {completed}")
    if probes >= cold_probes:
        failures.append(f"resumed walk used {probes} probes, cold used {cold_probes}")
    distance = final.get("result", {}).get("details", {}).get("distance")
    if distance != cold_distance:
        failures.append(f"resumed distance {distance} != cold {cold_distance}")
    if failures:
        print("FAIL:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print(
        f"resume smoke passed: killed mid-walk, resumed in {probes} probes "
        f"(cold {cold_probes}), distance {distance}"
    )
    return 0


#: The chaos sweep: three task kinds, two code families — small enough for
#: CI, wide enough to exercise store writes (the distance walk checkpoints)
#: and multi-event streams.
CHAOS_SWEEP = [
    {"kind": "correction", "code": "steane"},
    {"kind": "correction", "code": "five-qubit"},
    {"kind": "distance", "code": "surface-3"},
    {"kind": "detection", "code": "steane", "trial_distance": 3},
]

#: The seeded plan the chaos server is armed with.
CHAOS_FAULTS = [
    {"point": "lane.crash", "times": 1},
    {"point": "store.write", "times": 3},
    {"point": "socket.reset", "times": 1},
]


def _verdict(result: dict) -> dict:
    view = {key: result.get(key) for key in ("task", "subject", "verified")}
    view["counterexample"] = result.get("counterexample")
    details = result.get("details") or {}
    if "distance" in details:
        view["distance"] = details["distance"]
    return view


def _chaos_sweep(client) -> dict:
    """Run the sweep serially; resubmit (fresh job) on lane crashes."""
    verdicts = {}
    for spec in CHAOS_SWEEP:
        key = json.dumps(spec, sort_keys=True)
        for _attempt in range(3):
            job = client.submit(dict(spec))
            terminal = None
            for event in client.events(job["id"]):
                terminal = event
            if (
                terminal["event"] == "JobFailed"
                and terminal.get("reason") == "lane_crash"
            ):
                continue  # infrastructure died under the job: run it again
            assert terminal["event"] == "JobCompleted", terminal
            break
        else:
            raise AssertionError(f"{key} failed on every attempt")
        verdicts[key] = _verdict(client.job(job["id"])["result"])
    return verdicts


def _drain(server: subprocess.Popen) -> tuple[int, dict | None]:
    """SIGTERM the server; return (exit code, last drained line)."""
    server.send_signal(signal.SIGTERM)
    out, _err = server.communicate(timeout=60)
    drained = [
        json.loads(line)
        for line in out.splitlines()
        if line.startswith("{") and '"drained"' in line
    ]
    return server.returncode, (drained[-1] if drained else None)


def chaos_smoke() -> int:
    """A faulted sweep must equal a clean one, and the drain must stay clean."""
    import os

    from repro.service.client import ServiceClient

    log_path = pathlib.Path(os.environ.get("FAULT_LOG", "fault-log.ndjson"))
    log_path.unlink(missing_ok=True)

    server, port = _start_server()
    try:
        clean_verdicts = _chaos_sweep(
            ServiceClient("127.0.0.1", port, api_key="ci-chaos", retries=3)
        )
        code, drained = _drain(server)
        if code != 0 or not drained or drained.get("orphaned"):
            print(f"FAIL: clean server drain: exit {code}, {drained}", file=sys.stderr)
            return 1
    finally:
        if server.poll() is None:
            server.kill()
    print(f"clean sweep done: {len(clean_verdicts)} verdicts")

    plan_path = tempfile.mktemp(suffix=".json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({"seed": 11, "log": str(log_path), "faults": CHAOS_FAULTS}, handle)
    store_dir = tempfile.mkdtemp(prefix="smoke-chaos-store-")
    server, port = _start_server(
        "--fault-plan", plan_path, "--clause-store", store_dir
    )
    try:
        fault_verdicts = _chaos_sweep(
            ServiceClient("127.0.0.1", port, api_key="ci-chaos", retries=3)
        )
        code, drained = _drain(server)
    finally:
        if server.poll() is None:
            server.kill()

    failures = []
    if code != 0:
        failures.append(f"chaos server exited {code}")
    if not drained or drained.get("orphaned"):
        failures.append(f"chaos drain left orphans: {drained}")
    if json.dumps(fault_verdicts, sort_keys=True) != json.dumps(
        clean_verdicts, sort_keys=True
    ):
        failures.append(
            "verdict maps diverged:\n"
            f"  clean: {json.dumps(clean_verdicts, sort_keys=True)}\n"
            f"  chaos: {json.dumps(fault_verdicts, sort_keys=True)}"
        )
    if not log_path.is_file():
        failures.append(f"no fault log at {log_path}")
    else:
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        struck = {record["point"] for record in records}
        expected = {fault["point"] for fault in CHAOS_FAULTS}
        if struck != expected:
            failures.append(f"fault points struck {struck}, expected {expected}")
    if failures:
        print("FAIL:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print(
        f"chaos smoke passed: {len(records)} faults struck "
        f"({', '.join(sorted(struck))}), verdicts identical, drain clean"
    )
    return 0


def main() -> int:
    from repro.service.client import ServiceClient

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--access-log"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
    )
    try:
        ready = json.loads(server.stdout.readline())
        assert ready["event"] == "listening", ready
        port = ready["port"]
        print(f"server listening on {port}")

        workload = [
            {"kind": "correction", "code": "steane"},
            {"kind": "distance", "code": "surface-3"},
        ]
        streams = [tempfile.mktemp(suffix=".ndjson") for _ in workload]
        failures: list[str] = []

        def drive(task: dict, path: str) -> None:
            try:
                client = ServiceClient("127.0.0.1", port, api_key="ci-smoke")
                job = client.submit(task)
                with open(path, "w", encoding="utf-8") as handle:
                    for line in client.events(job["id"], raw=True):
                        handle.write(line + "\n")
                final = client.job(job["id"])
                if final["status"] != "succeeded":
                    failures.append(f"{task}: ended {final['status']}")
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"{task}: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=drive, args=(task, path))
            for task, path in zip(workload, streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        if failures:
            print("FAIL:", *failures, sep="\n  ", file=sys.stderr)
            return 1

        validate = subprocess.run(
            [sys.executable, "-m", "repro", "validate-events", *streams],
            cwd=REPO,
            env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
        )
        if validate.returncode != 0:
            print("FAIL: event-stream validation", file=sys.stderr)
            return 1

        client = ServiceClient("127.0.0.1", port, api_key="ci-smoke")
        repeat = client.submit(dict(workload[0]))
        compiled = [
            event for event in client.events(repeat["id"])
            if event.get("event") == "TaskCompiled"
        ]
        engine_stats = client.stats().get("engine", {})
        if [event.get("cached") for event in compiled] != [True]:
            print(f"FAIL: repeated steane correction not cached: {compiled}", file=sys.stderr)
            return 1
        if engine_stats.get("hits", 0) < 1:
            print(f"FAIL: GET /stats engine counts no hit: {engine_stats}", file=sys.stderr)
            return 1

        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=60)
        print(out.strip())
        drained = [
            json.loads(line)
            for line in out.splitlines()
            if line.startswith("{") and '"drained"' in line
        ]
        if server.returncode != 0:
            print(f"FAIL: server exited {server.returncode}\n{err}", file=sys.stderr)
            return 1
        if not drained or drained[-1].get("orphaned"):
            print(f"FAIL: drain left orphaned jobs: {drained}", file=sys.stderr)
            return 1
        print("service smoke passed: streams valid, drain clean, exit 0")
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    if "--fault-plan" in sys.argv[1:]:
        raise SystemExit(chaos_smoke())
    rc = main()
    raise SystemExit(rc if rc else resume_smoke())
