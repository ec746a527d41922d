"""Command-line interface: regenerate any figure/table of the paper.

Examples::

    repro-usep list
    repro-usep run fig2-v --scale small
    repro-usep run fig4-real --algorithms DeDPO,DeGreedy --no-memory
    repro-usep run-all --scale tiny --csv out/
    repro-usep example

``run`` prints the same rows/series the corresponding paper panel
plots; ``--csv DIR`` additionally writes the raw rows for plotting.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .algorithms.registry import available_solvers
from .experiments.figures import SCALES, get_spec, list_specs
from .experiments.harness import run_sweep
from .experiments.reporting import format_panels, rows_to_csv
from .service.checkpoint import JournalLockedError, JournalMismatchError
from .service.worker import (
    add_server_options,
    install_drain_handlers,
    serve_until_signalled,
    server_config,
    server_option_argv,
)


def _cmd_list(_args) -> int:
    print(f"{'key':15s} {'experiment':9s} {'axis':15s} paper artifact")
    print("-" * 78)
    for spec in list_specs():
        print(
            f"{spec.key:15s} {spec.experiment_id:9s} {spec.axis:15s} "
            f"{spec.paper_artifact}"
        )
    print(f"\nscales: {', '.join(SCALES)}   solvers: {', '.join(available_solvers())}")
    return 0


def _journal_path(args, spec) -> Optional[str]:
    """The journal path for one spec (per-spec suffix under run-all)."""
    if not getattr(args, "journal", None):
        return None
    if getattr(args, "_per_spec_journal", False):
        root, ext = os.path.splitext(args.journal)
        return f"{root}-{spec.key}-{args.scale}{ext or '.jsonl'}"
    return args.journal


def _run_one(key: str, args) -> int:
    spec = get_spec(key)
    algorithms: List[str] = (
        args.algorithms.split(",") if args.algorithms else list(spec.algorithms)
    )
    if args.resume and not args.journal:
        print("--resume requires --journal FILE", file=sys.stderr)
        return 2
    print(f"# {spec.experiment_id}: {spec.paper_artifact}")
    print(f"# {spec.description}  [scale={args.scale}]")
    if getattr(args, "seeds", 1) > 1:
        if args.journal:
            print(
                "--journal is not supported with --seeds > 1 (one ledger "
                "cannot fingerprint several seeded sweeps)",
                file=sys.stderr,
            )
            return 2
        return _run_replicated(spec, algorithms, args)
    journal = _journal_path(args, spec)
    try:
        result = run_sweep(
            axis=spec.axis,
            points=spec.points(args.scale),
            algorithms=algorithms,
            measure_memory=not args.no_memory,
            validate=args.validate,
            verify=args.verify,
            progress=not args.quiet,
            jobs=args.jobs,
            timeout=args.timeout,
            ladder=args.ladder,
            max_retries=args.max_retries,
            journal=journal,
            resume=args.resume,
            profile=args.profile,
        )
    except (JournalMismatchError, JournalLockedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the journal's disk failed (or is missing)
        if journal is None:
            raise
        print(f"error: journal {journal!r}: {exc}", file=sys.stderr)
        return 2
    print(format_panels(result))
    status = _report_verification(result.rows) if args.verify else 0
    status |= _report_service(result.rows)
    if args.profile:
        _report_profile(result.rows)
    if args.chart:
        from .experiments.charts import render_result_charts

        print(render_result_charts(result))
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, f"{spec.key}-{args.scale}.csv")
        with open(path, "w") as handle:
            handle.write(rows_to_csv(result.rows))
        print(f"\n(raw rows written to {path})")
    return status


def _run_replicated(spec, algorithms, args) -> int:
    """Run a spec under several seeds; print mean±std utility rows."""
    from .experiments.aggregate import AggregateResult
    from .experiments.reporting import format_table

    base_seed = 1000
    aggregate = AggregateResult(axis=spec.axis, seeds=[])
    status = 0
    for rep in range(args.seeds):
        seed = base_seed + rep
        aggregate.seeds.append(seed)
        result = run_sweep(
            axis=spec.axis,
            points=spec.points(args.scale, seed=seed),
            algorithms=algorithms,
            measure_memory=not args.no_memory,
            validate=args.validate,
            verify=args.verify,
            progress=not args.quiet,
            jobs=args.jobs,
            timeout=args.timeout,
            ladder=args.ladder,
            max_retries=args.max_retries,
            profile=args.profile,
        )
        if args.verify:
            status |= _report_verification(result.rows)
        status |= _report_service(result.rows)
        if args.profile:
            _report_profile(result.rows)
        aggregate.record(result)
    for metric, heading in (("utility", "Total utility score"),
                            ("time_s", "Running time (s)")):
        rows = aggregate.rows(metric)
        if rows:
            print(f"\n== {heading} (mean over {args.seeds} seeds) ==")
            print(format_table(rows))
    return status


def _report_verification(rows) -> int:
    """Summarise oracle verdicts of a verified sweep; 1 if any cell failed."""
    bad = [row for row in rows if not row.get("verified", False)]
    total = len(rows)
    if not bad:
        print(f"\noracle: all {total} solver cells verified")
        return 0
    print(f"\noracle: {total - len(bad)}/{total} cells verified; FAILURES:")
    for row in bad:
        print(
            f"  [{row['axis']}={row['axis_value']}] {row['solver']}: "
            f"{row.get('oracle_summary', 'verification missing')}"
        )
    return 1


def _report_service(rows) -> int:
    """Summarise non-ok cells of a fault-tolerant sweep; 1 on errors.

    Quiet when every cell is plain ``ok`` (the common, healthy case) so
    ordinary sweeps print exactly what they always did.
    """
    degraded = [r for r in rows if r.get("status") == "degraded"]
    failed = [r for r in rows if r.get("status") in ("error", "skipped")]
    resumed = sum(1 for r in rows if r.get("resumed"))
    if not degraded and not failed and not resumed:
        return 0
    print(
        f"\nservice: {len(rows)} cells — "
        f"{len(rows) - len(degraded) - len(failed)} ok, "
        f"{len(degraded)} degraded, {len(failed)} failed/skipped, "
        f"{resumed} replayed from journal"
    )
    for row in degraded:
        print(
            f"  [{row['axis']}={row['axis_value']}] {row['solver']} -> "
            f"{row['degraded_to']} (rung {row['rung']}, "
            f"guarantee: {row['guarantee']}, after {row.get('failures', '?')})"
        )
    for row in failed:
        reason = str(row.get("failures") or row.get("error", "")).strip()
        reason = reason.splitlines()[-1] if reason else "unknown"
        print(
            f"  [{row['axis']}={row['axis_value']}] {row['solver']}: "
            f"{row['status'].upper()} — {reason}"
        )
    return 1 if failed else 0


def _report_profile(rows) -> None:
    """Aggregate the incremental engine's diagnostic counters per solver.

    Sums every :func:`repro.core.instrument.is_profile_key` field over
    the sweep's rows (see ``docs/performance.md`` for how to read
    them).  Parallel sweeps count what the workers reported back in
    rows.
    """
    from .core import instrument

    per_solver: dict = {}
    for row in rows:
        bucket = per_solver.setdefault(str(row.get("solver")), {})
        for key, value in row.items():
            if instrument.is_profile_key(key) and isinstance(value, (int, float)):
                bucket[key] = bucket.get(key, 0) + value
    print("\nprofile (incremental engine counters, summed over cells):")
    for solver in sorted(per_solver):
        counters = per_solver[solver]
        if not counters:
            continue
        body = "  ".join(f"{k}={counters[k]}" for k in sorted(counters))
        print(f"  {solver}: {body}")


def _cmd_run(args) -> int:
    return _run_one(args.experiment, args)


def _cmd_run_all(args) -> int:
    status = 0
    args._per_spec_journal = True
    for spec in list_specs():
        status |= _run_one(spec.key, args)
        print()
    return status


def _cmd_example(_args) -> int:
    """Solve the paper's 4-event / 5-user running example (Table 1)."""
    from .paper_example import EXPECTED_UTILITY, build_example_instance
    from .algorithms.registry import make_solver

    instance = build_example_instance()
    print("Paper Example 1 (Table 1 / Figure 1): 4 events, 5 users")
    for name in ("RatioGreedy", "DeDP", "DeGreedy"):
        planning = make_solver(name).solve(instance)
        schedules = {
            f"u{u + 1}": [f"v{v + 1}" for v in evs]
            for u, evs in sorted(planning.as_dict().items())
        }
        expected = EXPECTED_UTILITY[name]
        print(
            f"{name:12s} Omega = {planning.total_utility():.1f} "
            f"(paper: {expected})  {schedules}"
        )
    return 0


def _cmd_generate(args) -> int:
    """Generate a synthetic or city instance and write it to JSON."""
    from .datagen.synthetic import SyntheticConfig, generate_instance
    from .ebsn.cities import CITY_PRESETS, build_city_instance
    from .io import save_instance

    if args.city:
        if args.city not in CITY_PRESETS:
            print(
                f"unknown city {args.city!r}; presets: {sorted(CITY_PRESETS)}",
                file=sys.stderr,
            )
            return 2
        instance = build_city_instance(
            args.city, budget_factor=args.budget_factor, seed=args.seed
        )
    else:
        config = SyntheticConfig(
            num_events=args.events,
            num_users=args.users,
            mean_capacity=args.capacity,
            conflict_ratio=args.conflict_ratio,
            budget_factor=args.budget_factor,
            utility_distribution=args.utilities,
            seed=args.seed,
        )
        instance = generate_instance(config)
    save_instance(instance, args.out)
    print(
        f"wrote {instance.name}: |V|={instance.num_events}, "
        f"|U|={instance.num_users} -> {args.out}"
    )
    return 0


def _cmd_solve_partitioned(args, instance) -> int:
    """Grid-partitioned solve with a monolithic fallback.

    Mirrors the service scatter path's contract (docs/partitioning.md):
    the cut may be refused (``PartitionError``) and the merged plan must
    pass the independent oracle — on either failure the command solves
    monolithically and says so, it never errors out of the partition
    path.
    """
    import time

    from .algorithms.partitioned import solve_partitioned
    from .algorithms.registry import make_solver
    from .core.partition import PartitionError
    from .io import save_planning
    from .verify.oracle import verify_planning

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    fallback_reason = None
    result = None
    start = time.perf_counter()
    try:
        try:
            result = solve_partitioned(
                instance, algorithm=args.algorithm, cells=args.cells
            )
        except PartitionError as exc:
            fallback_reason = str(exc)
        if result is not None:
            report = verify_planning(instance, result.planning)
            if not report.ok:
                fallback_reason = (
                    f"merged plan failed the oracle: {report.summary()}"
                )
                result = None
        if result is None:
            planning = make_solver(args.algorithm).solve(instance)
        else:
            planning = result.planning
        wall = time.perf_counter() - start
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
    if profiler is not None:
        print(f"cProfile stats written to {args.profile}")
    if fallback_reason is not None:
        print(f"partitioned path declined ({fallback_reason}); "
              "solved monolithically")
    print(f"instance:      {instance.name or args.instance}")
    print(f"algorithm:     {args.algorithm} (partition=grid, cells={args.cells})")
    print(f"total utility: {planning.total_utility():.4f}")
    print(f"pairs planned: {planning.total_arranged_pairs()}")
    print(f"wall time:     {wall:.3f} s")
    if result is not None:
        summary = result.describe()
        body = "  ".join(
            f"{key}={summary[key]}" for key in sorted(summary)
            if key != "algorithm"
        )
        print(f"partition:     {body}")
    if args.report:
        from .analysis import analyze_planning
        from .experiments.reporting import format_table

        print("\nplanning diagnostics:")
        print(format_table(analyze_planning(planning).summary_rows()))
    if args.out:
        save_planning(planning, args.out)
        print(f"planning written to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    """Solve a saved instance and report (optionally record) the planning."""
    from .algorithms.registry import make_solver
    from .io import load_instance, save_planning

    instance = load_instance(args.instance)
    if args.partition:
        return _cmd_solve_partitioned(args, instance)
    solver = make_solver(args.algorithm)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = solver.run(
                instance, measure_memory=not args.no_memory, validate=True
            )
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
        print(f"cProfile stats written to {args.profile}")
    else:
        result = solver.run(instance, measure_memory=not args.no_memory, validate=True)
    print(f"instance:      {instance.name or args.instance}")
    print(f"algorithm:     {result.solver}")
    print(f"total utility: {result.utility:.4f}")
    print(f"pairs planned: {result.planning.total_arranged_pairs()}")
    print(f"wall time:     {result.wall_time_s:.3f} s")
    if result.peak_memory_bytes is not None:
        print(f"peak memory:   {result.peak_memory_bytes // 1024} KB")
    if args.report:
        from .analysis import analyze_planning
        from .experiments.reporting import format_table

        print("\nplanning diagnostics:")
        print(format_table(analyze_planning(result.planning).summary_rows()))
    if args.out:
        save_planning(result.planning, args.out)
        print(f"planning written to {args.out}")
    return 0


def _cmd_mutate(args) -> int:
    """Replay a churn trace against a saved instance with delta re-solves.

    Loads the instance, warms a first solve (builds the candidate index
    and schedule memo), then applies the ``--churn-trace`` JSONL
    mutation stream in order through :mod:`repro.core.deltas`,
    re-solving incrementally every ``--solve-every`` mutations and once
    at the end.  ``--compare-cold`` re-solves the final content from a
    fresh decode and bit-compares the canonical planning bytes (exit 1
    on mismatch); ``--out`` writes the mutated instance.
    """
    import time

    from .algorithms.registry import make_solver
    from .core.deltas import apply_mutation
    from .core.exceptions import InvalidInstanceError
    from .io import (
        canonical_planning_bytes,
        instance_from_dict,
        instance_to_dict,
        load_instance,
        load_mutation_stream,
        save_instance,
    )

    try:
        instance = load_instance(args.instance)
        mutations = load_mutation_stream(args.churn_trace)
    except InvalidInstanceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    solver = make_solver(args.algorithm)

    start = time.perf_counter()
    solver.solve(instance)
    warm_s = time.perf_counter() - start

    applied = 0
    delta_solves = 0
    delta_s = 0.0
    planning = None
    try:
        for i, mutation in enumerate(mutations, 1):
            apply_mutation(instance, mutation)
            applied += 1
            if args.solve_every and i % args.solve_every == 0:
                start = time.perf_counter()
                planning = solver.solve(instance)
                delta_s += time.perf_counter() - start
                delta_solves += 1
    except InvalidInstanceError as exc:
        print(
            f"mutation {applied + 1}/{len(mutations)} invalid: {exc}",
            file=sys.stderr,
        )
        return 2
    if planning is None or (args.solve_every and applied % args.solve_every):
        start = time.perf_counter()
        planning = solver.solve(instance)
        delta_s += time.perf_counter() - start
        delta_solves += 1

    print(f"instance:       {instance.name or args.instance}")
    print(f"mutations:      {applied} applied (version {instance.version})")
    print(f"algorithm:      {args.algorithm}")
    print(f"warm solve:     {warm_s:.3f} s")
    print(
        f"delta solves:   {delta_solves} in {delta_s:.3f} s "
        f"({delta_s / delta_solves:.4f} s each)"
    )
    print(f"final utility:  {planning.total_utility():.4f}")

    status = 0
    if args.compare_cold:
        cold = instance_from_dict(instance_to_dict(instance))
        cold_planning = make_solver(args.algorithm).solve(cold)
        identical = canonical_planning_bytes(planning) == canonical_planning_bytes(
            cold_planning
        )
        print(f"cold compare:   {'bit-identical' if identical else 'MISMATCH'}")
        if not identical:
            status = 1
    if args.out:
        save_instance(instance, args.out)
        print(f"mutated instance written to {args.out}")
    return status


def _cmd_serve(args) -> int:
    """Run the online planning daemon (see docs/serving.md).

    ``--workers 0`` (the default) serves single-process; ``--workers N``
    boots a front-end router plus N supervised worker processes
    (owner and least-loaded routing, crash failover, journal-replayed
    recovery).  Either way SIGTERM/SIGINT drains: readiness flips off,
    in-flight solves finish, then the process exits 0.
    """
    if args.workers > 0:
        return _serve_multiworker(args)
    from .service.server import make_server

    try:
        config = server_config(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    admission = config.admission
    server = make_server(args.host, args.port, config)
    # Before the announce line: a SIGTERM racing the startup must
    # already find the drain path installed.
    install_drain_handlers(server)
    recovered = server.recover_instances()
    for failure in server.recovery_failures:
        print(f"journal replay failed: {failure}", file=sys.stderr)
    host, port = server.server_address[:2]
    # The exact line tools/serve_smoke.py greps for the ephemeral port.
    print(f"serving on http://{host}:{port}", flush=True)
    print(
        f"  admission: max_inflight={admission.max_inflight} "
        f"queue_depth={admission.queue_depth} "
        f"deadline_cap={admission.deadline_cap_s}s "
        f"ladder={'->'.join(admission.ladder)}",
        flush=True,
    )
    if recovered:
        print(f"  recovered {len(recovered)} instances from journals",
              flush=True)
    return serve_until_signalled(server, handlers_installed=True)


def _serve_multiworker(args) -> int:
    """Router + N supervised workers; SIGTERM = rolling drain, exit 0."""
    import signal
    import threading

    from .service.router import PlanningRouter, RouterConfig
    from .service.supervisor import Supervisor, SupervisorConfig

    supervisor = Supervisor(
        SupervisorConfig(
            num_workers=args.workers,
            journal_root=args.journal_dir,
            worker_args=tuple(server_option_argv(args)),
        )
    )
    supervisor.start()
    router = PlanningRouter(
        (args.host, args.port),
        supervisor,
        RouterConfig(
            proxy_timeout_s=max(120.0, 4 * args.deadline_cap),
            max_body_bytes=args.max_body_bytes,
            log_requests=args.verbose,
        ),
    )
    stop = threading.Event()

    def _handle(_signum, _frame):
        if stop.is_set():
            raise SystemExit(1)
        stop.set()
        # Drain order: router readiness off first (new work answered
        # 503 draining), then workers one at a time, then the router's
        # own accept loop.
        router.drain()
        threading.Thread(target=router.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
    except ValueError:  # not the main thread (embedded in tests)
        pass
    host, port = router.server_address[:2]
    # Same line the smoke tooling greps; the topology rides behind it.
    print(f"serving on http://{host}:{port}", flush=True)
    print(
        f"  router: {args.workers} workers, journal_root="
        f"{args.journal_dir or '(none: instances are not durable)'}",
        flush=True,
    )
    try:
        router.serve_forever(poll_interval=0.1)
    finally:
        print("draining workers...", file=sys.stderr)
        supervisor.drain_rolling()
        router.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro-usep` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro-usep",
        description="Regenerate the figures/tables of the USEP paper (SIGMOD'15).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments").set_defaults(func=_cmd_list)

    def add_run_options(p):
        p.add_argument("--scale", choices=SCALES, default="small")
        p.add_argument(
            "--algorithms",
            help="comma-separated solver names (default: the spec's set)",
        )
        p.add_argument(
            "--no-memory", action="store_true", help="skip tracemalloc measurement"
        )
        p.add_argument(
            "--validate", action="store_true", help="re-verify all USEP constraints"
        )
        p.add_argument(
            "--verify",
            action="store_true",
            help="oracle-check every solver cell with the independent "
            "repro.verify oracle and report per-cell verdicts (adds one "
            "constraint recomputation per cell; default off, intended "
            "for tiny/small scales)",
        )
        p.add_argument("--csv", metavar="DIR", help="also write raw rows as CSV")
        p.add_argument(
            "--chart", action="store_true", help="render ASCII charts of the panels"
        )
        p.add_argument(
            "--seeds",
            type=int,
            default=1,
            help="replicate the sweep over N seeds and report mean/std",
        )
        p.add_argument("--quiet", action="store_true", help="no progress lines")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="run (point x algorithm) cells over N worker processes",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock deadline per solver attempt; runs each cell "
            "in a supervised subprocess and walks the degradation ladder "
            "on expiry or crash (see docs/robustness.md)",
        )
        p.add_argument(
            "--ladder",
            default=None,
            metavar="SPEC",
            help="degradation ladder, e.g. 'dedpo+rg->degreedy->ratio-greedy' "
            "(also enables the fault-tolerant layer; default ladder: "
            "DeDPO+RG -> DeGreedy)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="retries per rung for transient solver exceptions "
            "(exponential backoff with full jitter; also enables the "
            "fault-tolerant layer)",
        )
        p.add_argument(
            "--journal",
            metavar="FILE",
            help="checkpoint each completed cell row to this JSONL ledger "
            "as it finishes (run-all derives one file per experiment)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="replay the --journal ledger and run only missing cells",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="collect the incremental engine's diagnostic counters "
            "(DP states, candidates pruned, schedule-memo hits) into "
            "every row and print a per-solver summary "
            "(see docs/performance.md)",
        )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment key (see `list`)")
    add_run_options(run)
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run every experiment")
    add_run_options(run_all)
    run_all.set_defaults(func=_cmd_run_all)

    sub.add_parser(
        "example", help="solve the paper's running example (Examples 1-4)"
    ).set_defaults(func=_cmd_example)

    gen = sub.add_parser("generate", help="generate an instance to a JSON file")
    gen.add_argument("out", help="output JSON path")
    gen.add_argument("--city", help="build a Table 6 city instead of synthetic")
    gen.add_argument("--events", type=int, default=100)
    gen.add_argument("--users", type=int, default=5000)
    gen.add_argument("--capacity", type=float, default=50)
    gen.add_argument("--conflict-ratio", type=float, default=0.25)
    gen.add_argument("--budget-factor", type=float, default=2.0)
    gen.add_argument(
        "--utilities", default="uniform", help="uniform | normal | power:a"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve a saved instance")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--algorithm", default="DeDPO+RG")
    solve.add_argument("--out", help="write the planning to this JSON path")
    solve.add_argument("--no-memory", action="store_true")
    solve.add_argument(
        "--report", action="store_true", help="print planning diagnostics"
    )
    solve.add_argument(
        "--profile",
        metavar="FILE",
        help="dump cProfile stats of the solver run to FILE "
        "(inspect with `python -m pstats FILE`)",
    )
    solve.add_argument(
        "--partition",
        choices=["grid"],
        default=None,
        help="cut the instance into spatial grid cells and solve "
        "cell-by-cell, reconciling at the boundaries — near-monolithic "
        "utility, not byte-identical (docs/partitioning.md); a refused "
        "cut or oracle-failed merge falls back to a monolithic solve",
    )
    solve.add_argument(
        "--cells",
        type=int,
        default=4,
        metavar="N",
        help="target grid cell count with --partition grid (default 4)",
    )
    solve.set_defaults(func=_cmd_solve)

    mutate = sub.add_parser(
        "mutate",
        help="replay a JSONL churn trace against a saved instance with "
        "incremental re-solves (see docs/dynamic.md)",
    )
    mutate.add_argument("instance", help="instance JSON path")
    mutate.add_argument(
        "--churn-trace",
        required=True,
        metavar="FILE",
        help="JSONL mutation stream (one op-tagged mutation per line)",
    )
    mutate.add_argument("--algorithm", default="DeDPO")
    mutate.add_argument(
        "--solve-every",
        type=int,
        default=0,
        metavar="N",
        help="delta re-solve every N mutations (0 = only at the end)",
    )
    mutate.add_argument(
        "--compare-cold",
        action="store_true",
        help="bit-compare the final delta planning against a cold solve "
        "of the mutated content (exit 1 on mismatch)",
    )
    mutate.add_argument(
        "--out", help="write the mutated instance to this JSON path"
    )
    mutate.set_defaults(func=_cmd_mutate)

    serve = sub.add_parser(
        "serve",
        help="run the online planning daemon (JSON-over-HTTP; "
        "see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321, help="0 picks an ephemeral port"
    )
    add_server_options(serve)
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="run a front-end router plus N supervised worker "
        "processes (0 = single-process daemon)",
    )
    serve.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="journal registered instances + mutations under DIR so a "
        "restarted server (or crashed worker) replays them and resumes "
        "the same instance ids (see docs/serving.md)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
