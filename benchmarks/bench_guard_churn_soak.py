"""Guard-churn soak: 200 fresh-seed locality jobs on one engine.

The paper's constrained partial verification (Fig. 7) reaches a long-lived
engine as a stream of ``ConstrainedTask(locality=True)`` jobs, each with a
seed it has never seen, so every job adds a new selector-guarded formula to
the code's one shared session and the context's guard cap decides what is
retired (``CodeContext.task_view``).  This soak runs 200 such jobs on
hgp-hamming through ``Engine.submit``, with the locality seeds drawn from a
fixed seed, and prints:

* per-job wall time: median, maximum and tail (mean of the slowest 5%);
* at jobs 64 and 200: live Python memory (``tracemalloc``), the solver's
  problem and learnt clauses, and the context's live task guards.

The job stream runs twice, each time on a fresh engine: once untraced for
the timings, once under ``tracemalloc`` for the live memory (tracing every
allocation slows the solver several times over).  The solver is
deterministic, so both passes must reach the same clause counts.  The soak
asserts every job verified and that the live task guards never exceed
``max_task_guards``; it makes no wall-clock assertion (the timings are
printed for comparison between commits on one machine).

Run it with ``PYTHONPATH=src python benchmarks/bench_guard_churn_soak.py``
or ``PYTHONPATH=src python -m pytest -s benchmarks/bench_guard_churn_soak.py``.
"""

import random
import statistics
import time
import tracemalloc

from repro.api import ConstrainedTask, Engine

CODE = "hgp-hamming"
JOBS = 200
SEED = 2024
CHECKPOINTS = (64, 200)


def soak(traced: bool, jobs: int = JOBS, seed: int = SEED) -> dict:
    """Run the job stream once; returns the per-job seconds and the
    checkpoint rows (with ``live_mb`` when ``traced``)."""
    seeds = random.Random(seed).sample(range(2**31), jobs)
    seconds = []
    rows = {}
    max_live_guards = 0
    engine = Engine()
    if traced:
        tracemalloc.start()
    try:
        for index, locality_seed in enumerate(seeds, start=1):
            task = ConstrainedTask(code=CODE, locality=True, seed=locality_seed)
            started = time.perf_counter()
            result = engine.submit(task).result(timeout=600)
            seconds.append(time.perf_counter() - started)
            assert result.verified, (index, locality_seed)
            context = engine.resources.context_for(CODE)
            live_guards = len(context._task_guards)
            assert live_guards <= context.max_task_guards, (index, live_guards)
            max_live_guards = max(max_live_guards, live_guards)
            if index in CHECKPOINTS:
                solver = context.session._solver
                rows[index] = {
                    "problem_clauses": solver.num_problem_clauses,
                    "learnt_clauses": solver.num_learnt,
                    "live_guards": live_guards,
                    "retired_guards": context.retired,
                }
                if traced:
                    rows[index]["live_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        if traced:
            tracemalloc.stop()
        engine.close()
    return {"seconds": seconds, "rows": rows, "max_live_guards": max_live_guards}


def run() -> tuple[dict, dict]:
    """The timed pass and the traced pass, checked against each other."""
    timed = soak(traced=False)
    traced = soak(traced=True)
    for index, row in traced["rows"].items():
        counts = {key: value for key, value in row.items() if key != "live_mb"}
        assert counts == timed["rows"][index], (index, counts, timed["rows"][index])
    return timed, traced


def report(timed: dict, traced: dict) -> str:
    seconds = sorted(timed["seconds"])
    tail = seconds[-max(1, len(seconds) // 20):]
    lines = [
        f"[guard-churn-soak] {CODE}, {len(seconds)} jobs, seed {SEED}: "
        f"total {sum(seconds):.2f}s, p50 {1000 * statistics.median(seconds):.1f}ms, "
        f"max {1000 * seconds[-1]:.1f}ms, tail5 {1000 * statistics.fmean(tail):.1f}ms, "
        f"max live guards {timed['max_live_guards']}"
    ]
    for index, row in sorted(traced["rows"].items()):
        lines.append(
            f"  job {index:3d}: live {row['live_mb']:.2f} MB, "
            f"problem clauses {row['problem_clauses']}, learnt {row['learnt_clauses']}, "
            f"live guards {row['live_guards']}, retired {row['retired_guards']}"
        )
    return "\n".join(lines)


def test_guard_churn_soak():
    timed, traced = run()
    print("\n" + report(timed, traced))
    assert len(timed["seconds"]) == len(traced["seconds"]) == JOBS
    assert sorted(traced["rows"]) == list(CHECKPOINTS)


if __name__ == "__main__":
    print(report(*run()))
