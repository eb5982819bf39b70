"""Clause-store benchmark: cold-vs-warm registry sweeps and kill-resume
distance walks — the permanent perf trajectory for the durable store.

Two workloads through the public :class:`repro.api.Engine`:

* **Registry sweep, cold vs warm.**  The full registry target sweep runs
  twice over one fresh store directory: the cold pass populates the sqlite
  clause store, the warm pass (a brand-new engine, as a restarted process
  would be) replays it.  The gate demands the warm sweep be >=
  ``--min-speedup`` (default 1.3x) faster with a byte-identical verdict
  map — the store buys speed and only speed.

* **Kill-resume distance walk.**  A surface-5 distance job is cancelled
  mid-walk; a fresh engine over the same store resumes it from the
  persisted checkpoint.  The gate demands the resumed walk finish in
  strictly fewer solver probes than a cold walk, at the identical
  distance.

A committed full run is the baseline (``--check-baseline
benchmarks/baselines/store.json``): CI replays the quick workload and
fails on a calibration-normalized wall-clock regression or on any gate
violation.  Shared CI runners are noisy, so the quick gate is typically
invoked with a relaxed ``--min-speedup``; the committed full run
documents the real margin.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

QUICK_CODES = ("steane", "five-qubit", "surface-3", "repetition-5", "shor")
RESUME_CODE = "surface-5"

#: Result fields whose values depend on wall-clock measurement or runtime
#: statistics.  The warm pass legitimately differs there (fewer conflicts,
#: store counters); everything left — verdicts, counterexamples, distances —
#: must be byte-identical between the cold and warm sweeps.  Per-trial solver
#: counters ("trials") and aggregate conflict counts are run-dependent too:
#: a warm walk probes fewer bounds by design.
TIMING_KEYS = frozenset({
    "elapsed_seconds", "compile_seconds", "session", "resources",
    "trials", "conflicts", "decisions", "propagations", "restarts",
    "resumed_from",
})


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


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


def _sweep_keys(quick: bool):
    from repro.codes.registry import CODE_REGISTRY

    if not quick:
        return None  # the whole registry
    return [key for key in QUICK_CODES if key in CODE_REGISTRY] or None


def _store_engine(directory: str):
    from repro.api import Engine

    engine = Engine()
    engine.resources.enable_clause_store(directory)
    return engine


def _run_sweep(directory: str, keys) -> dict:
    from repro.api.engine import registry_sweep_tasks

    engine = _store_engine(directory)
    tasks = registry_sweep_tasks(keys)
    start = time.perf_counter()
    results = engine.run_many(tasks)
    wall = time.perf_counter() - start
    engine.resources.save_warm()
    engine.close()
    return {
        "wall_seconds": wall,
        "num_tasks": len(results),
        "num_verified": sum(result.verified for result in results),
        "conflicts": sum(result.conflicts for result in results),
        "verdicts": {
            result.subject: _strip_timing(result.to_dict()) for result in results
        },
    }


def run_sweep_workload(keys, repeats: int) -> dict:
    """Cold-populate then warm-replay the sweep; best-of-N on both sides."""
    colds, warms = [], []
    verdicts_equal = True
    for _ in range(max(1, repeats)):
        directory = tempfile.mkdtemp(prefix="bench-clause-store-")
        try:
            cold = _run_sweep(directory, keys)
            warm = _run_sweep(directory, keys)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        verdicts_equal = verdicts_equal and cold["verdicts"] == warm["verdicts"]
        colds.append(cold)
        warms.append(warm)
    best_cold = min(colds, key=lambda row: row["wall_seconds"])
    best_warm = min(warms, key=lambda row: row["wall_seconds"])
    report = {
        "num_tasks": best_cold["num_tasks"],
        "num_verified": best_cold["num_verified"],
        "cold_wall_seconds": best_cold["wall_seconds"],
        "warm_wall_seconds": best_warm["wall_seconds"],
        "cold_conflicts": best_cold["conflicts"],
        "warm_conflicts": best_warm["conflicts"],
        "warm_speedup": (
            best_cold["wall_seconds"] / best_warm["wall_seconds"]
            if best_warm["wall_seconds"] > 0
            else 0.0
        ),
        "verdicts_identical": verdicts_equal,
    }
    return report


def run_resume_workload(attempts: int = 5) -> dict:
    """Kill a surface-5 distance walk mid-flight, resume it, count probes."""
    from repro.api import DistanceTask, Engine
    from repro.api.events import DistanceProbe

    task = DistanceTask(code=RESUME_CODE)
    cold_engine = Engine()
    start = time.perf_counter()
    cold = cold_engine.run(task)
    cold_wall = time.perf_counter() - start
    cold_engine.close()
    cold_probes = len(cold.details["trials"])

    report = {
        "code": RESUME_CODE,
        "cold_probes": cold_probes,
        "cold_wall_seconds": cold_wall,
        "distance": cold.details["distance"],
    }
    # The cancel races the walk; retry with an earlier cut if the walk
    # finishes before the cancellation lands.
    for attempt in range(attempts):
        cancel_after = max(1, 2 - attempt)
        directory = tempfile.mkdtemp(prefix="bench-clause-store-resume-")
        try:
            engine = _store_engine(directory)
            job = engine.submit(task)
            seen = 0
            for event in job.events():
                if isinstance(event, DistanceProbe):
                    seen += 1
                    if seen == cancel_after:
                        job.cancel()
            engine.close()
            if seen >= cold_probes:
                continue  # finished anyway; try cancelling earlier

            resumed_engine = _store_engine(directory)
            start = time.perf_counter()
            resumed = resumed_engine.run(task)
            resumed_wall = time.perf_counter() - start
            resumed_engine.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        report.update({
            "killed_after_probes": seen,
            "resumed_probes": len(resumed.details["trials"]),
            "resumed_wall_seconds": resumed_wall,
            "resumed_distance": resumed.details["distance"],
            "resumed_from": resumed.details.get("resumed_from"),
            "probes_saved": cold_probes - len(resumed.details["trials"]),
            "attempts": attempt + 1,
        })
        return report
    report["error"] = "walk finished before any cancel landed"
    return report


def check_baseline(report: dict, baseline_path: str, tolerance: float) -> list[str]:
    """Calibration-normalized wall-clock gate against a committed baseline."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    problems: list[str] = []
    base_sweep = baseline.get("sweep")
    here_sweep = report.get("sweep")
    if not base_sweep or not here_sweep:
        return [f"baseline {baseline_path} or this run lacks a sweep section"]
    for side in ("cold", "warm"):
        base_norm = base_sweep[f"{side}_wall_seconds"] / baseline["calibration_seconds"]
        here_norm = here_sweep[f"{side}_wall_seconds"] / report["calibration_seconds"]
        # The committed baseline is a full-registry run; a quick run covers
        # fewer tasks, so normalize per task before comparing.
        base_norm /= max(1, base_sweep["num_tasks"])
        here_norm /= max(1, here_sweep["num_tasks"])
        if here_norm > base_norm * tolerance:
            problems.append(
                f"{side} sweep normalized wall-clock regression: "
                f"{here_norm:.4f} > {base_norm:.4f} * {tolerance} "
                f"(baseline {baseline_path})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep (5 codes) instead of the registry")
    parser.add_argument("--output", default="BENCH_store.json",
                        help="where to write the JSON report")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail on wall-clock regression vs this baseline")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed normalized wall-clock ratio vs baseline")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="required warm-over-cold sweep speedup")
    parser.add_argument("--repeats", type=int, default=3,
                        help="sweep repeats; each side keeps its fastest run")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and write the report without gating")
    args = parser.parse_args(argv)

    keys = _sweep_keys(args.quick)
    report: dict = {
        "schema": 1,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_seconds": calibrate(),
    }

    print(f"== registry sweep cold vs warm ({'quick' if args.quick else 'full'}) ==",
          flush=True)
    sweep = run_sweep_workload(keys, args.repeats)
    report["sweep"] = sweep
    print(
        f"  {sweep['num_tasks']} tasks: cold {sweep['cold_wall_seconds']:.3f}s"
        f" ({sweep['cold_conflicts']} conflicts) -> warm"
        f" {sweep['warm_wall_seconds']:.3f}s ({sweep['warm_conflicts']} conflicts),"
        f" {sweep['warm_speedup']:.2f}x, verdicts identical:"
        f" {sweep['verdicts_identical']}"
    )

    print("== kill-resume distance walk ==", flush=True)
    resume = run_resume_workload()
    report["resume"] = resume
    if "error" not in resume:
        print(
            f"  {resume['code']}: cold {resume['cold_probes']} probes"
            f" -> killed after {resume['killed_after_probes']},"
            f" resumed in {resume['resumed_probes']} probes"
            f" (saved {resume['probes_saved']}),"
            f" distance {resume['resumed_distance']}"
        )

    problems: list[str] = []
    if not args.no_assert:
        if not sweep["verdicts_identical"]:
            problems.append("warm sweep verdicts differ from the cold sweep")
        if sweep["warm_speedup"] < args.min_speedup:
            problems.append(
                f"warm sweep speedup {sweep['warm_speedup']:.2f}x < "
                f"required {args.min_speedup}x"
            )
        if "error" in resume:
            problems.append(resume["error"])
        else:
            if resume["resumed_probes"] >= resume["cold_probes"]:
                problems.append(
                    f"resumed walk used {resume['resumed_probes']} probes, "
                    f"not fewer than the cold walk's {resume['cold_probes']}"
                )
            if resume["resumed_distance"] != resume["distance"]:
                problems.append(
                    f"resumed distance {resume['resumed_distance']} != "
                    f"cold distance {resume['distance']}"
                )
            if not resume.get("resumed_from"):
                problems.append("resumed walk did not report resumed_from")
    if args.check_baseline:
        if os.path.exists(args.check_baseline):
            problems.extend(check_baseline(report, args.check_baseline, args.tolerance))
        else:
            # A requested-but-missing baseline must fail loudly: a silent
            # skip would leave the CI regression gate green while checking
            # nothing.
            problems.append(f"baseline file not found: {args.check_baseline}")

    report["passed"] = not problems
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
