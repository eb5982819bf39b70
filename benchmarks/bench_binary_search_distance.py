"""Binary-search distance discovery vs the linear trial-distance walk.

Both walks run on ONE incremental session over the trial-independent
detection base (the PR-2 machinery); the only difference is the search
policy.  The linear walk activates ``weight <= t - 1`` for t = 2, 3, ...
until the first satisfiable probe, so it issues ``d`` solver calls for a
distance-``d`` code — and every one of the UNSAT calls below the distance is
expensive.  The engine's walk brackets the minimum undetectable-error weight
with guarded ``lo <= weight <= mid`` windows (bounds 1, 2, 4, ... until the
first SAT probe, then bisection), clamping the upper end to the witness's
actual weight on SAT, so it issues O(log d) calls.

This benchmark asserts, on a distance >= 5 code (the d=5 rotated surface
code), that the binary search issues STRICTLY FEWER solver calls and takes
less wall-clock than the linear walk — the acceptance criterion of the
resource-layer rework.  Solver-call counts are deterministic, so they are
compared exactly; wall-clock is compared best-of-N with slack on CI runners.
"""

import os
import time

import pytest

from repro.api import DistanceTask, Engine
from repro.codes.registry import build_code
from repro.smt.interface import SolveSession
from repro.verifier.encodings import ErrorModel, precise_detection_base

REPEATS = 5


def linear_session_walk(code, max_trial):
    """The PR-2 strategy: one incremental session, trial distances walked
    linearly through selector-guarded upper weight bounds."""
    base, weight = precise_detection_base(code, ErrorModel("any"))
    session = SolveSession(base)
    distance = max_trial
    calls = 0
    conflicts = 0
    for trial in range(2, max_trial + 1):
        selector = session.add_weight_guard(f"trial_{trial}", weight, trial - 1)
        check = session.check(select=(selector,))
        calls += 1
        conflicts += check.conflicts
        if check.is_sat:
            distance = trial - 1
            break
    return distance, calls, conflicts


def best_of(repeats, run):
    best = None
    payload = None
    for _ in range(repeats):
        start = time.perf_counter()
        payload = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, payload


@pytest.mark.parametrize("key,max_trial,expected_distance", [("surface-5", 6, 5)])
def test_binary_search_beats_linear_walk(key, max_trial, expected_distance):
    code = build_code(key)
    assert (code.distance or 0) >= 5, "the acceptance criterion wants a d>=5 code"

    linear_seconds, (linear_distance, linear_calls, linear_conflicts) = best_of(
        REPEATS, lambda: linear_session_walk(code, max_trial)
    )
    binary_seconds, result = best_of(
        REPEATS, lambda: Engine().run(DistanceTask(code=key, max_trial=max_trial))
    )
    binary_calls = len(result.details["trials"])

    print(
        f"\n[binary-search-distance] {key}: distance={result.details['distance']} "
        f"linear={linear_seconds:.3f}s/{linear_calls} calls/{linear_conflicts} conflicts "
        f"binary={binary_seconds:.3f}s/{binary_calls} calls/{result.conflicts} conflicts"
    )

    assert result.details["distance"] == linear_distance == expected_distance
    # Strictly fewer solver calls — the point of the binary search.
    assert binary_calls < linear_calls
    # On shared CI runners a scheduling burst can distort a sub-100ms
    # measurement, so the strict wall-clock comparison is local-only; CI
    # still fails on a gross (>1.5x) slowdown.
    slack = 1.5 if os.environ.get("CI") else 1.0
    assert binary_seconds < linear_seconds * slack
