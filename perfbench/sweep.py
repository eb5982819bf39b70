"""The two registry-sweep workloads, run in a child process of ``run.py``.

A pass builds a fresh ``Engine`` and calls ``Engine.run_many`` on 30 tasks:
the 15 Table 3 targets of ``registry_sweep_tasks()`` plus one
``DistanceTask`` per registry code, in an order permuted by the seed.

* ``sweep-cold``: no clause store.  Set-up is one untimed warm-up pass.
* ``sweep-warm``: set-up populates a clause store with one pass; every timed
  pass runs over its own copy of that populated store (so each pass sees the
  same store state) and writes back through ``Engine.close``.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/sweep.py --workload sweep-cold --seed 1 --seconds 10 \
        --trace 0 --workdir .perfbench-work/x [--setup-only]

Prints ``{"event": "setup_done"}`` once set-up is over (the parent times
set-up up to that line), then one ``{"event": "result", ...}`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

from tracer import Tracer, format_task_rows, hit_ratio, layer_metrics, tail_mean, task_rows

HERE = os.path.dirname(os.path.abspath(__file__))
LONG_CODES = ("surface-5", "hgp-hamming")
WORK_COUNTS = (
    "solve.conflicts", "solve.decisions", "solve.propagations",
    "absorb.probes", "encode.clauses", "store.reads",
)


def _say(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


class Sweep:
    def __init__(self, workload: str, seed: int, workdir: str):
        from repro.api.engine import Engine, registry_sweep_tasks
        from repro.api.tasks import DistanceTask
        from repro.codes.registry import CODE_REGISTRY

        self.Engine = Engine
        with open(os.path.join(HERE, "expected.json")) as handle:
            self.expected = json.load(handle)
        tasks = registry_sweep_tasks() + [DistanceTask(code=key) for key in sorted(CODE_REGISTRY)]
        random.Random(seed).shuffle(tasks)
        # Within a code family the slots keep ascending size (smaller sibling
        # first, as a sweep over growing codes runs them), so family
        # absorption happens on every seed and the work barely depends on it.
        slots: dict[str, list[int]] = {}
        for index, task in enumerate(tasks):
            family = CODE_REGISTRY[task.code].family
            if family:
                slots.setdefault(family, []).append(index)
        for indices in slots.values():
            members = sorted((tasks[index] for index in indices),
                             key=lambda task: (CODE_REGISTRY[task.code].family_rank, task.kind))
            for index, task in zip(indices, members):
                tasks[index] = task
        self.tasks = tasks
        self.warm = workload == "sweep-warm"
        self.seed_store = os.path.join(workdir, "seed-store")
        self.pass_store = os.path.join(workdir, "pass-store")
        self.attempted = 0
        self.errors: list[str] = []

    def setup(self) -> None:
        """Warm-up pass (cold) or store populate (warm)."""
        self.run_pass(self.seed_store if self.warm else None)

    def run_pass(self, store: str | None) -> dict:
        engine = self.Engine(clause_store=store)
        start = time.perf_counter()
        results = engine.run_many(self.tasks)
        resources = engine.resources.stats()
        cache = engine.cache_info()
        engine.close()
        wall = time.perf_counter() - start
        if engine.resources.clause_store is not None:
            engine.resources.clause_store.close()
        self._check(results)
        return {"wall": wall, "results": results, "resources": resources, "cache": cache}

    def timed_pass(self) -> dict:
        if not self.warm:
            return self.run_pass(None)
        shutil.rmtree(self.pass_store, ignore_errors=True)
        shutil.copytree(self.seed_store, self.pass_store)
        return self.run_pass(self.pass_store)

    def _check(self, results) -> None:
        for task, result in zip(self.tasks, results):
            self.attempted += 1
            if task.kind == "find-distance":
                want = self.expected["distance"][task.code]
                got = result.details.get("distance")
            else:
                want = self.expected["targets"][task.code]
                got = result.verified
            if got != want:
                self.errors.append(f"{task.kind} {task.code}: got {got!r}, expected {want!r}")

    def run_for(self, seconds: float) -> list[dict]:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.timed_pass())
        return passes

    def end_to_end(self, passes: list[dict]) -> dict:
        task_ms = []
        long_ms = []
        for record in passes:
            for task, result in zip(self.tasks, record["results"]):
                task_ms.append(1e3 * result.elapsed_seconds)
                if task.code in LONG_CODES:
                    long_ms.append(1e3 * result.elapsed_seconds)
        walls = [record["wall"] for record in passes]
        return {
            # The mean: over ten seeds the median of a run's 9-15 passes
            # spread 0.13-0.17 of its value, their mean 0.06-0.11.
            "pass_s": statistics.fmean(walls),
            # A pass is 30 tasks of distinct cost, so any percentile is the
            # median of one task's ~10 times in the run and jumps with host
            # speed; the mean of the slowest 5% pools ~15 of them.
            "tail5_ms": tail_mean(task_ms, 0.05),
            "long_ms": statistics.fmean(long_ms),
            "ops_per_s": len(task_ms) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "samples": {"passes": len(passes), "tasks": len(task_ms)},
        }


def per_layer(record: dict, spans: list) -> dict:
    """Per-layer metrics of one traced pass."""
    resources = record["resources"]
    metrics = layer_metrics(spans, 1, record["wall"])
    metrics["compile.cache_hit_ratio"] = hit_ratio(record["cache"]["hits"],
                                                   record["cache"]["misses"])
    metrics["store.hit_ratio"] = hit_ratio(resources.get("warm_hits", 0),
                                           resources.get("warm_misses", 0))
    metrics["store.clauses_absorbed"] = (resources.get("warm_absorbed", 0)
                                         + resources.get("store_absorbed", 0))
    return metrics


def traced(sweep: Sweep, seconds: float) -> dict:
    untraced = sweep.run_for(seconds / 2)
    tracer = Tracer().install()
    rows_spans: list = []
    rows_roots: list = []
    layers = []
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds / 2:
        record = sweep.timed_pass()
        spans, roots = tracer.take()
        layers.append(per_layer(record, spans))
        walls.append(record["wall"])
        # Re-base root ids so the per-task rows can pool every pass.
        offset = len(rows_roots)
        rows_spans.extend(
            (s[0], s[1], s[2], s[3], None if s[4] is None else s[4] + offset, s[5]) for s in spans
        )
        rows_roots.extend(roots)
    tracer.uninstall()
    print(format_task_rows(task_rows(rows_spans, rows_roots), len(walls),
                           f"per-task rows over {len(walls)} traced passes"), flush=True)
    counts = [tuple(layer[name] for name in WORK_COUNTS) for layer in layers]
    stable = all(row == counts[0] for row in counts)
    print("# work counts per pass " + json.dumps(dict(zip(WORK_COUNTS, counts[0])))
          + f"; identical across {len(counts)} traced passes: {'yes' if stable else 'NO'}",
          flush=True)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead"] = statistics.median(walls) / statistics.median(
        record["wall"] for record in untraced
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep-cold", "sweep-warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sweep = Sweep(args.workload, args.seed, args.workdir)
    sweep.setup()
    _say({"event": "setup_done"})
    if args.setup_only:
        return 0
    if args.trace:
        metrics = traced(sweep, args.seconds)
    else:
        metrics = sweep.end_to_end(sweep.run_for(args.seconds))
    _say({"event": "result", "metrics": metrics, "attempted": sweep.attempted,
          "errors": sweep.errors})
    return 0


if __name__ == "__main__":
    sys.exit(main())
