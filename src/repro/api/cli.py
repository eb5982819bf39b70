"""``python -m repro`` — the command-line front end of the verification engine.

Subcommands:

* ``list-codes`` — the registered benchmark codes (Table 3 rows);
* ``verify``     — one correction/detection task on one code;
* ``distance``   — discover a code's distance via repeated detection;
* ``sweep``      — batch-verify many registry codes through ``Engine.run_many``;
* ``validate-events`` — schema-check an NDJSON event stream;
* ``analyze``    — the project's static analyzer (:mod:`repro.analysis`);
* ``serve``      — the HTTP verification service (:mod:`repro.service`).

Every subcommand takes ``--json`` for machine-readable output; the verifying
subcommands additionally take ``--stream`` (NDJSON job events on stdout, one
:mod:`repro.api.events` object per line — pipe through
``python -m repro.api.events`` to schema-validate) and ``--deadline SECONDS``
(a per-job wall-clock bound enforced inside the solver).  Exit status: 0 when
everything verified, 1 when a counterexample was found, 2 on usage errors
(argparse's convention), 3 when a job was cancelled by its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.api.backends import ParallelBackend, SerialBackend
from repro.api.engine import Engine, registry_sweep_tasks
from repro.api.jobs import Job, JobCancelledError, JobStatus
from repro.api.result import Result
from repro.api.tasks import ConstrainedTask, CorrectionTask, DetectionTask, DistanceTask
from repro.codes.registry import CODE_REGISTRY, build_code

__all__ = ["main", "build_parser"]

EXIT_CANCELLED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Veri-QEC reproduction: formal verification of QEC programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codes = sub.add_parser("list-codes", help="list the registered benchmark codes")
    codes.add_argument("--json", action="store_true", help="emit JSON")
    codes.set_defaults(func=_cmd_list_codes)

    verify = sub.add_parser("verify", help="verify one property of one code")
    verify.add_argument("--code", required=True, help="registry key (see list-codes)")
    verify.add_argument(
        "--task",
        choices=["correction", "detection"],
        default=None,
        help="property to verify (default: the code's registry target)",
    )
    verify.add_argument("--max-errors", type=int, default=None, help="correctable weight bound")
    verify.add_argument("--trial-distance", type=int, default=None, help="detection trial distance")
    verify.add_argument(
        "--error-model", choices=["any", "X", "Y", "Z"], default="any", help="per-qubit error model"
    )
    verify.add_argument("--locality", action="store_true", help="restrict errors to a qubit subset")
    verify.add_argument(
        "--discreteness", action="store_true", help="at most one error per qubit segment"
    )
    verify.add_argument("--seed", type=int, default=None, help="seed for the locality subset")
    verify.add_argument(
        "--workers", type=int, default=1, help="worker count (>1 selects the parallel backend)"
    )
    _add_store_arguments(verify)
    _add_job_arguments(verify)
    verify.add_argument("--json", action="store_true", help="emit the result as JSON")
    verify.set_defaults(func=_cmd_verify)

    distance = sub.add_parser("distance", help="discover a code's distance")
    distance.add_argument("--code", required=True, help="registry key (see list-codes)")
    distance.add_argument("--max-trial", type=int, default=None, help="largest trial distance")
    _add_store_arguments(distance)
    _add_job_arguments(distance)
    distance.add_argument("--json", action="store_true", help="emit the result as JSON")
    distance.set_defaults(func=_cmd_distance)

    sweep = sub.add_parser("sweep", help="batch-verify registry codes against their targets")
    sweep.add_argument(
        "--codes",
        default=None,
        help="comma-separated registry keys (default: the whole registry)",
    )
    sweep.add_argument(
        "--backend", choices=["serial", "parallel"], default="serial", help="solver backend"
    )
    sweep.add_argument(
        "--workers", type=int, default=2, help="split workers for the parallel backend"
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, help="process pool size across tasks (run_many)"
    )
    _add_store_arguments(sweep)
    _add_job_arguments(sweep)
    sweep.add_argument("--json", action="store_true", help="emit results as JSON")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate-events",
        help="schema-validate an NDJSON event stream (stdin, or files)",
    )
    validate.add_argument("files", nargs="*", help="NDJSON files (default: stdin)")
    validate.set_defaults(func=_cmd_validate_events)

    analyze = sub.add_parser(
        "analyze",
        help="project static analysis (lock/affinity/async/stats contracts)",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument("--json", action="store_true", help="emit findings as JSON")
    analyze.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP verification service (see repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="server-wide cap on non-terminal jobs (backpressure, 429 past it)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=16,
        help="per-API-key cap on live jobs",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="per-API-key submissions per second (token-bucket refill)",
    )
    serve.add_argument(
        "--burst", type=float, default=25.0,
        help="per-API-key burst allowance (token-bucket capacity)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=10.0,
        help="seconds to read one request before answering 408",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds for in-flight jobs to finish on SIGTERM before cancellation",
    )
    serve.add_argument(
        "--access-log", action="store_true",
        help="emit structured JSON access logs on stderr",
    )
    serve.add_argument(
        "--lanes", type=int, default=4,
        help="worker threads; jobs on one code run one at a time "
        "(1 = the serial dispatcher)",
    )
    serve.add_argument(
        "--clause-store",
        metavar="DIR",
        default=None,
        help="durable clause-store directory shared across restarts (and "
        "replicas); enables warm-started sessions and resumable distance walks",
    )
    serve.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="arm deterministic fault injection: inline JSON or a path to a "
        "plan file (see repro.faults; REPRO_FAULT_PLAN works too)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from repro.service import AdmissionController, VerificationService

    if args.access_log:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        access = logging.getLogger("repro.service.access")
        access.addHandler(handler)
        access.setLevel(logging.INFO)

    async def run() -> int:
        service = VerificationService(
            host=args.host,
            port=args.port,
            admission=AdmissionController(
                max_pending=args.max_pending,
                max_inflight_per_key=args.max_inflight,
                rate=args.rate,
                burst=args.burst,
            ),
            request_timeout=args.request_timeout,
            drain_grace=args.drain_grace,
            lanes=args.lanes,
            clause_store=args.clause_store,
            fault_plan=args.fault_plan,
        )
        await service.start()
        # The "listening" line is the readiness protocol: supervisors (and
        # the CI smoke job) parse it to learn the bound port.
        print(
            json.dumps(
                {"event": "listening", "host": service.host, "port": service.port}
            ),
            flush=True,
        )
        summary = await service.serve_forever()
        print(json.dumps({"event": "drained", **summary}), flush=True)
        return 0 if not summary.get("orphaned") else 1

    return asyncio.run(run())


def _cmd_validate_events(args: argparse.Namespace) -> int:
    from repro.api.events import main as validate_main

    return validate_main(args.files)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import main as analyze_main

    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.list_rules:
        argv.append("--list-rules")
    return analyze_main(argv)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clause-store",
        metavar="DIR",
        default=None,
        help="durable clause-store directory; repeated invocations "
        "warm-start, distance walks resume after a kill",
    )


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream",
        action="store_true",
        help="run through the job API and emit NDJSON events on stdout",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-job wall-clock bound; an expired job exits with status 3",
    )


def _stream_job(job: Job) -> None:
    """Print the job's full event stream as NDJSON, one event per line."""
    for event in job.events():
        print(event.to_json(), flush=True)


def _run_as_job(engine: Engine, task, args: argparse.Namespace, print_result) -> int:
    """The shared ``--stream``/``--deadline`` lifecycle of one CLI task.

    Submit, stream or wait, flush the clause store, then map the terminal
    state: cancelled → stderr notice (non-stream) + exit 3; failed →
    re-raise (``main`` renders ValueError/KeyError as exit 2); succeeded →
    ``print_result(result)`` unless streaming, exit by verdict.
    """
    job = engine.submit(task, deadline=args.deadline)
    if args.stream:
        _stream_job(job)
    else:
        job.wait()
    _finish_engine(engine, args)
    if job.status is JobStatus.CANCELLED:
        if not args.stream:
            print(f"cancelled: {job.id} ({job.cancel_reason})", file=sys.stderr)
        return EXIT_CANCELLED
    result = job.result(timeout=0)  # re-raises a failed job's exception
    if not args.stream:
        print_result(result)
    return 0 if result.verified else 1


def _make_engine(backend, args: argparse.Namespace) -> Engine:
    return Engine(backend=backend, clause_store=args.clause_store or None)


def _finish_engine(engine: Engine, args: argparse.Namespace) -> None:
    if args.clause_store:
        engine.resources.save_warm()


# ----------------------------------------------------------------------
def _cmd_list_codes(args: argparse.Namespace) -> int:
    rows = []
    for key in sorted(CODE_REGISTRY):
        entry = CODE_REGISTRY[key]
        code = build_code(key)
        n, k, d = code.parameters
        rows.append(
            {
                "key": key,
                "parameters": [n, k, d],
                "target": entry.target,
                "paper_name": entry.paper_name,
                "note": entry.note,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        n, k, d = row["parameters"]
        d_text = "?" if d is None else d
        note = f"  ({row['note']})" if row["note"] else ""
        print(f"{row['key']:16s} [[{n},{k},{d_text}]]  {row['target']:10s} {row['paper_name']}{note}")
    return 0


def _require_code(key: str) -> None:
    if key not in CODE_REGISTRY:
        raise SystemExit(f"error: unknown code {key!r}; try `python -m repro list-codes`")


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_code(args.code)
    task_name = args.task or CODE_REGISTRY[args.code].target
    if task_name == "detection":
        for flag, given in (
            ("--locality", args.locality),
            ("--discreteness", args.discreteness),
            ("--max-errors", args.max_errors is not None),
            ("--seed", args.seed is not None),
        ):
            if given:
                raise SystemExit(f"error: {flag} does not apply to a detection task")
        task = DetectionTask(
            code=args.code, trial_distance=args.trial_distance, error_model=args.error_model
        )
    elif args.trial_distance is not None:
        raise SystemExit("error: --trial-distance only applies to a detection task")
    elif args.locality or args.discreteness:
        task = ConstrainedTask(
            code=args.code,
            locality=args.locality,
            discreteness=args.discreteness,
            max_errors=args.max_errors,
            error_model=args.error_model,
            seed=args.seed,
        )
    else:
        task = CorrectionTask(
            code=args.code, max_errors=args.max_errors, error_model=args.error_model
        )
    backend = ParallelBackend(num_workers=args.workers) if args.workers > 1 else SerialBackend()
    engine = _make_engine(backend, args)
    if args.stream or args.deadline is not None:
        return _run_as_job(engine, task, args, lambda result: _emit(result, args.json))
    result = engine.run(task)
    _finish_engine(engine, args)
    return _emit(result, args.json)


def _cmd_distance(args: argparse.Namespace) -> int:
    _require_code(args.code)
    engine = _make_engine(SerialBackend(), args)
    task = DistanceTask(code=args.code, max_trial=args.max_trial)
    if args.stream or args.deadline is not None:
        return _run_as_job(
            engine, task, args, lambda result: _print_distance(result, args.json)
        )
    result = engine.run(task)
    _finish_engine(engine, args)
    _print_distance(result, args.json)
    return 0


def _print_distance(result: Result, as_json: bool) -> None:
    if as_json:
        print(result.to_json(indent=2))
    else:
        print(f"{result.subject}: distance {result.details['distance']} "
              f"({len(result.details['trials'])} probes, "
              f"{result.elapsed_seconds:.3f}s, "
              f"{result.conflicts} conflicts, {result.decisions} decisions, "
              f"{result.propagations} propagations, backend={result.backend})")


def _cmd_sweep(args: argparse.Namespace) -> int:
    keys = None
    if args.codes is not None:
        keys = [key.strip() for key in args.codes.split(",") if key.strip()]
        if not keys:
            raise SystemExit("error: --codes given but no code keys parsed")
        for key in keys:
            _require_code(key)
    tasks = registry_sweep_tasks(keys)
    backend = (
        ParallelBackend(num_workers=args.workers) if args.backend == "parallel" else SerialBackend()
    )
    engine = _make_engine(backend, args)
    if args.stream or args.deadline is not None:
        return _sweep_jobs(engine, tasks, args)
    start = time.perf_counter()
    results = engine.run_many(tasks, processes=args.jobs)
    total = time.perf_counter() - start
    _finish_engine(engine, args)
    stats = engine.resources.stats()
    if args.json:
        payload = {
            "backend": backend.name,
            "jobs": args.jobs,
            "total_seconds": total,
            "num_tasks": len(results),
            "num_verified": sum(result.verified for result in results),
            "resources": stats,
            "results": [result.to_dict() for result in results],
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        for result in results:
            print(result.summary())
        verified = sum(result.verified for result in results)
        print(f"sweep: {verified}/{len(results)} verified in {total:.3f}s "
              f"(backend={backend.name}, jobs={args.jobs})")
        print(_resource_table(stats))
    return 0 if all(result.verified for result in results) else 1


def _sweep_jobs(engine: Engine, tasks, args: argparse.Namespace) -> int:
    """The job-API sweep: one job per task, streamed/awaited in order.

    ``--jobs`` (the run_many process pool) does not apply here — jobs
    serialize on the engine's dispatcher, which is what lets them share the
    per-code sessions.  A job's deadline clock starts at submission, so each
    task is submitted only after the previous one finished: ``--deadline``
    bounds each job's own runtime, not its place in the queue.
    """
    total = 0
    cancelled = 0
    unverified = 0
    for task in tasks:
        job = engine.submit(task, deadline=args.deadline)
        total += 1
        if args.stream:
            _stream_job(job)
        else:
            job.wait()
        if job.status is JobStatus.CANCELLED:
            cancelled += 1
            if not args.stream:
                print(f"cancelled: {job.id} ({job.cancel_reason})", file=sys.stderr)
            continue
        try:
            result = job.result(timeout=0)
        except JobCancelledError:  # pragma: no cover - raced above
            cancelled += 1
            continue
        if not result.verified:
            unverified += 1
        if not args.stream:
            print(result.summary())
    _finish_engine(engine, args)
    if not args.stream:
        done = total - cancelled
        print(f"sweep: {done - unverified}/{total} verified, "
              f"{cancelled} cancelled (job API, deadline={args.deadline})")
    if cancelled:
        return EXIT_CANCELLED
    return 1 if unverified else 0


def _resource_table(stats: dict) -> str:
    """Summary table of the engine's solver-resource counters."""
    lines = ["resource      count   detail"]
    lines.append(f"{'contexts':12s} {stats.get('contexts', 0):6d}   "
                 f"hits {stats.get('context_hits', 0)}, misses {stats.get('context_misses', 0)}")
    lines.append(f"{'learnt':12s} {stats.get('learnt_kept', 0):6d}   "
                 f"kept {stats.get('learnt_kept', 0)}, deleted {stats.get('learnt_deleted', 0)}")
    if "warm_hits" in stats:
        lines.append(f"{'warm-start':12s} {stats.get('warm_absorbed', 0):6d}   "
                     f"hits {stats.get('warm_hits', 0)}, misses {stats.get('warm_misses', 0)}")
    if "store" in stats:
        store = stats["store"]
        lines.append(f"{'store':12s} {store.get('stored', 0):6d}   "
                     f"hits {store.get('hits', 0)}, misses {store.get('misses', 0)}, "
                     f"evicted {store.get('evictions', 0)}")
    return "\n".join(lines)


def _emit(result: Result, as_json: bool) -> int:
    if as_json:
        print(result.to_json(indent=2))
    else:
        print(result.summary())
        if not result.verified:
            print(f"  counterexample qubits: {result.counterexample_qubits()}")
    return 0 if result.verified else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
