"""The repository benchmark: cold and warm registry sweeps plus a mixed
short/long service workload, measured end to end and, in a separate traced
run, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Workloads: ``sweep-cold``, ``sweep-warm`` (see ``sweep.py``) and
``service-mixed`` (see ``service.py``).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics.  Human-readable detail goes to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every verdict and distance is checked against
``expected.json``; a wrong answer or failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEPS = ("sweep-cold", "sweep-warm")
WORKLOADS = SWEEPS + ("service-mixed",)
CHILD_TIMEOUT = 170.0
SETUPS = 3


def _spawn_sweep(root: str, workdir: str, args, setup_only: bool) -> tuple[float, dict | None]:
    """Run one ``sweep.py`` child; returns (set-up seconds, result line)."""
    os.makedirs(workdir, exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "sweep.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if setup_only:
        command.append("--setup-only")
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            message = json.loads(line) if line.startswith('{"event"') else None
            if message is None:
                print(line, end="", flush=True)
            elif message["event"] == "setup_done":
                setup_s = time.perf_counter() - start
            elif message["event"] == "result":
                result = message
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"sweep child exited with {proc.returncode}")
    return setup_s, result


def run_sweep(root: str, workdir: str, args) -> dict:
    setups = []
    if not args.trace:
        for index in range(SETUPS - 1):
            setup_s, _ = _spawn_sweep(root, os.path.join(workdir, f"setup-{index}"), args, True)
            setups.append(setup_s)
    setup_s, result = _spawn_sweep(root, os.path.join(workdir, "main"), args, False)
    setups.append(setup_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    return {"metrics": metrics, "attempted": result["attempted"], "errors": result["errors"]}


def run_service(root: str, workdir: str, args) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    import service  # this script's directory is already on sys.path

    outcome = service.run(root, workdir, args.seed, args.seconds, bool(args.trace))
    ops = outcome["ops"]
    return {
        "metrics": outcome["metrics"],
        "attempted": len(ops),
        "errors": [f"{op.lane}: {op.error}" for op in ops if op.error],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload in SWEEPS:
            outcome = run_sweep(root, workdir, args)
        else:
            outcome = run_service(root, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still owns a sibling directory

    measured = outcome["metrics"]
    print("# samples: " + json.dumps(measured.pop("samples", {})), flush=True)
    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            value = measured[entry["name"]]
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise KeyError(f"workload did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for error in outcome["errors"][:20]:
        print(f"# FAILED: {error}", flush=True)
    failed = len(outcome["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
