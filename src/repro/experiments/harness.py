"""Sweep runner: instances x algorithms -> result rows.

The harness materialises each sweep point's instance lazily (one at a
time — scalability sweeps would not fit in memory otherwise), runs the
requested solvers through :meth:`Solver.run`, and emits flat dict rows
that the reporting module renders as the paper's per-panel series.

With ``jobs > 1`` the (point x algorithm) grid fans out over a
``multiprocessing`` fork pool: every cell runs in its own process, so
``tracemalloc`` peaks stay attributable to a single solver, and each
worker rebuilds its point's instance from the spec (instance generation
is seeded, so rebuilds are deterministic).  Rows come back through
``imap`` in task order, which is exactly the sequential nesting (points
outer, algorithms inner) — parallel and sequential sweeps produce the
same rows in the same order, timing fields aside.  ``SweepPoint.build``
closures are generally not picklable, so the task payload is a pair of
indices and the worker resolves them against module state inherited
through the fork; platforms without the fork start method fall back to
the sequential path (with a one-line stderr warning, and the actual
parallelism recorded as ``jobs_effective`` in every row).

Failure semantics: unknown algorithm names fail fast (before any cell
runs), but a cell whose *solve* raises no longer aborts the sweep —
the exception is downgraded to a structured ``status="error"`` row
carrying the traceback, identically on the sequential and parallel
paths, so one broken cell cannot discard its neighbours' finished
work.

Two optional layers harden long sweeps further (see
``docs/robustness.md``):

* ``journal=``/``resume=`` — checkpoint each completed cell row to a
  JSONL ledger as it finishes; a killed sweep resumes by replaying the
  journal and running only the missing cells.
* ``service=`` (or the ``timeout``/``ladder``/``max_retries``
  shortcuts) — run every cell through the fault-tolerant
  :class:`~repro.service.runner.ResilientRunner`: supervised
  subprocess with a wall-clock deadline, retry with backoff for
  transient faults, a per-algorithm circuit breaker, and a degradation
  ladder whose accepted plans must pass the independent
  :mod:`repro.verify` oracle.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms.registry import available_solvers, make_solver
from ..core import build_cache
from ..core.instance import USEPInstance
from ..service.checkpoint import SweepJournal
from ..service.ladder import parse_ladder
from ..service.runner import ResilientRunner, ServiceConfig
from ..verify.oracle import verify_planning


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis position of a figure panel.

    Attributes:
        axis_value: The swept parameter's value (plotted on the x axis).
        build: Zero-argument factory producing the instance; called once
            and the instance is shared by all algorithms at this point,
            then released.
        label: Optional display label (defaults to ``axis_value``).
    """

    axis_value: object
    build: Callable[[], USEPInstance]
    label: Optional[str] = None

    @property
    def display(self) -> str:
        """Label shown in progress lines and panel headers."""
        return self.label if self.label is not None else str(self.axis_value)


@dataclass
class SweepResult:
    """All rows of one sweep plus bookkeeping."""

    axis: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def series(self, metric: str) -> Dict[str, List[object]]:
        """Per-algorithm series of one metric, in axis order.

        Returns ``{algorithm: [value per axis point]}`` — exactly one
        line of the paper's plots.
        """
        out: Dict[str, List[object]] = {}
        for row in self.rows:
            out.setdefault(str(row["solver"]), []).append(row.get(metric))
        return out

    def axis_values(self) -> List[object]:
        """Distinct axis values in first-seen order."""
        seen: List[object] = []
        for row in self.rows:
            if row["axis_value"] not in seen:
                seen.append(row["axis_value"])
        return seen


def _base_row(
    axis: str, point: SweepPoint, instance: Optional[USEPInstance], build_time: float
) -> Dict[str, object]:
    """The per-cell fields known before any solver runs."""
    row: Dict[str, object] = {
        "axis": axis,
        "axis_value": point.axis_value,
        "instance": (instance.name if instance is not None else None)
        or point.display,
        "build_time_s": round(build_time, 4),
    }
    if instance is not None:
        row["num_events"] = instance.num_events
        row["num_users"] = instance.num_users
    return row


def _cell_row(
    axis: str,
    point: SweepPoint,
    point_index: int,
    instance: USEPInstance,
    build_time: float,
    name: str,
    measure_memory: bool,
    validate: bool,
    verify: bool = False,
    runner: Optional[ResilientRunner] = None,
    profile: bool = False,
) -> Dict[str, object]:
    """Run one (point, algorithm) cell and build its result row.

    Exceptions out of the solver are downgraded to ``status="error"``
    rows with the traceback; only programming errors in the harness
    itself can escape.
    """
    row = _base_row(axis, point, instance, build_time)
    if runner is not None:
        row.update(
            runner.run_cell(
                instance,
                name,
                point_index,
                measure_memory=measure_memory,
                profile=profile,
            )
        )
        return row
    try:
        # Start every cell cold, as a supervised (forked) one does:
        # arrays and candidate index built before the clock starts, and
        # no memo or replay left by the solvers run before this one.
        build_cache.prepare_build(instance)
        instance.arrays().engine().forget_solves()
        solver = make_solver(name)
        run = solver.run(
            instance,
            measure_memory=measure_memory,
            validate=validate,
            profile=profile,
        )
    except Exception:
        row.update(
            {"solver": name, "status": "error", "utility": None,
             "error": traceback.format_exc()}
        )
        return row
    row.update(run.summary_row())
    row["status"] = "ok"
    if verify:
        report = verify_planning(instance, run.planning)
        row["verified"] = report.ok
        row["oracle_violations"] = len(report.violations)
        if not report.ok:
            row["oracle_summary"] = report.summary()
    return row


def _error_rows_for_point(
    axis: str,
    point: SweepPoint,
    algorithms: Sequence[str],
    build_time: float,
    error: str,
) -> List[Dict[str, object]]:
    """One ``status="error"`` row per algorithm when the build fails."""
    rows = []
    for name in algorithms:
        row = _base_row(axis, point, None, build_time)
        row.update(
            {"solver": name, "status": "error", "utility": None, "error": error}
        )
        rows.append(row)
    return rows


def _emit_progress(row: Dict[str, object], point: SweepPoint, measure_memory, stream):
    """One progress line per cell, identical for both execution paths."""
    status = row.get("status", "ok")
    if status in ("error", "skipped"):
        reason = str(row.get("error", "")).strip().splitlines()
        print(
            f"[{row['axis']}={point.display}] {row['solver']}: {status.upper()}"
            f"{' — ' + reason[-1] if reason else ''}",
            file=stream,
            flush=True,
        )
        return
    mem = f" mem={row.get('peak_mem_kb', '-')}KB" if measure_memory else ""
    degraded = (
        f" degraded->{row['degraded_to']}" if row.get("degraded_to") else ""
    )
    print(
        f"[{row['axis']}={point.display}] {row['solver']}: utility="
        f"{float(row['utility']):.2f} time={float(row['time_s']):.3f}s"
        f"{mem}{degraded}",
        file=stream,
        flush=True,
    )


#: Sweep parameters a fork-pool worker resolves its (point, algorithm)
#: indices against.  SweepPoint.build closures are not picklable in
#: general, so they travel to the workers via fork inheritance of this
#: module global, never through the task queue.
_PARALLEL_STATE: Dict[str, object] = {}


def _run_parallel_cell(task: Tuple[int, int]) -> Dict[str, object]:
    """Worker: build the point's instance and run one algorithm on it.

    Every cell rebuilds its instance from the (seeded, deterministic)
    spec so the process holds exactly one instance and its tracemalloc
    peak is attributable to the one solver it runs.  Any exception —
    including a failing ``build`` — comes back as a structured error
    row, never as a sweep-fatal worker crash.
    """
    point_idx, algo_idx = task
    state = _PARALLEL_STATE
    point: SweepPoint = state["points"][point_idx]
    name: str = state["algorithms"][algo_idx]
    build_start = time.perf_counter()
    try:
        instance = point.build()
    except Exception:
        return _error_rows_for_point(
            state["axis"],
            point,
            [name],
            time.perf_counter() - build_start,
            traceback.format_exc(),
        )[0]
    build_time = time.perf_counter() - build_start
    return _cell_row(
        state["axis"],
        point,
        point_idx,
        instance,
        build_time,
        name,
        state["measure_memory"],
        state["validate"],
        state.get("verify", False),
        runner=state.get("runner"),
        profile=bool(state.get("profile", False)),
    )


def _resolve_service(
    service: Optional[ServiceConfig],
    timeout: Optional[float],
    ladder: Optional[object],
    max_retries: Optional[int],
) -> Optional[ServiceConfig]:
    """Combine the explicit config with the shortcut kwargs."""
    if service is None and timeout is None and ladder is None and max_retries is None:
        return None
    config = service if service is not None else ServiceConfig()
    updates: Dict[str, object] = {}
    if timeout is not None:
        updates["timeout"] = timeout
    if ladder is not None:
        rungs = parse_ladder(ladder) if isinstance(ladder, str) else list(ladder)
        updates["ladder"] = tuple(rungs)
    if max_retries is not None:
        updates["max_retries"] = max_retries
    return replace(config, **updates) if updates else config


def run_sweep(
    axis: str,
    points: Sequence[SweepPoint],
    algorithms: Iterable[str],
    measure_memory: bool = True,
    validate: bool = False,
    verify: bool = False,
    progress: bool = False,
    progress_stream=None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    ladder: Optional[object] = None,
    max_retries: Optional[int] = None,
    service: Optional[ServiceConfig] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    profile: bool = False,
) -> SweepResult:
    """Run every algorithm at every sweep point.

    Args:
        axis: Name of the swept parameter (for reporting).
        points: The sweep points, in x-axis order.
        algorithms: Registry names to run (unknown names raise
            ``KeyError`` before any cell runs).
        measure_memory: Track each solver's peak allocations.
        validate: Re-check all USEP constraints on every planning
            (raises on the first violation).
        verify: Oracle-check every solver output with the independent
            :mod:`repro.verify` oracle and record the verdict in the
            row (``verified`` / ``oracle_violations``); unlike
            ``validate`` this never raises, so a sweep reports every
            bad cell.  Off by default — it costs one full constraint
            recomputation per cell, which large-scale sweeps skip.
            (Implied by the fault-tolerant layer, which oracle-gates
            every accepted plan.)
        progress: Emit one line per (point, algorithm) to
            ``progress_stream`` (default stderr).
        jobs: Fan the (point x algorithm) cells out over this many
            worker processes.  ``None``/``0``/``1`` runs sequentially.
            Rows come back in the sequential order regardless; only the
            timing fields can differ between the two paths.  The
            parallelism actually used is recorded as ``jobs_effective``
            in every fresh row; requesting ``jobs > 1`` where the fork
            start method is unavailable warns on stderr and degrades to
            sequential.
        timeout / ladder / max_retries: Shortcuts that enable the
            fault-tolerant execution layer (see ``service``); ``ladder``
            is a spec string (``"dedpo+rg->degreedy"``) or a sequence
            of registry names.
        service: Full :class:`~repro.service.runner.ServiceConfig`;
            when set (or any shortcut is), every cell runs through a
            :class:`~repro.service.runner.ResilientRunner` — supervised
            deadline-bounded subprocess, retry + circuit breaker,
            degradation ladder, independent-oracle acceptance gate.
        journal: Path of a JSONL checkpoint journal; every completed
            cell row is appended (durably) as it finishes.
        resume: Replay an existing journal at ``journal`` and run only
            the cells it is missing; replayed rows are marked
            ``resumed=True`` in the returned result.
        profile: Collect the incremental engine's diagnostic counters
            (memo hits, candidates pruned — see
            :mod:`repro.core.instrument`) into every fresh row.  Off by
            default because the counters depend on memo warmth and
            execution path, which would break the parallel/sequential
            row-identity and journal byte-identity guarantees.
    """
    algorithms = list(algorithms)
    known = set(available_solvers())
    for name in algorithms:
        if name not in known:
            raise KeyError(
                f"unknown solver {name!r}; available: {sorted(known)}"
            )
    stream = progress_stream if progress_stream is not None else sys.stderr
    result = SweepResult(axis=axis)
    points = list(points)

    config = _resolve_service(service, timeout, ladder, max_retries)
    runner = ResilientRunner(config) if config is not None else None

    ledger: Optional[SweepJournal] = None
    if journal is not None:
        ledger = SweepJournal.open(
            journal, axis, algorithms, len(points), resume=resume
        )

    parallel_ok = bool(jobs and jobs > 1 and points and algorithms)
    if parallel_ok and not _fork_available():
        print(
            f"warning: jobs={jobs} requested but the 'fork' start method is "
            "unavailable on this platform; running sequentially "
            "(jobs_effective=1)",
            file=stream,
            flush=True,
        )
        parallel_ok = False

    try:
        if parallel_ok:
            _run_parallel(
                result, points, algorithms, axis, measure_memory, validate,
                verify, jobs, runner, ledger, progress, stream, profile,
            )
        else:
            _run_sequential(
                result, points, algorithms, axis, measure_memory, validate,
                verify, runner, ledger, progress, stream, profile,
            )
    finally:
        if ledger is not None:
            ledger.close()
    return result


def _finalise_fresh(
    row: Dict[str, object],
    key: Tuple[int, str],
    jobs_effective: int,
    ledger: Optional[SweepJournal],
) -> Dict[str, object]:
    """Stamp bookkeeping fields on a freshly computed row + journal it."""
    row["jobs_effective"] = jobs_effective
    if ledger is not None:
        row["resumed"] = False
        ledger.record(key, row)
    return row


def _replayed(ledger: SweepJournal, key: Tuple[int, str]) -> Dict[str, object]:
    """A journalled row, marked as replayed-from-checkpoint."""
    row = dict(ledger.row_for(key))
    row["resumed"] = True
    return row


def _run_sequential(
    result, points, algorithms, axis, measure_memory, validate, verify,
    runner, ledger, progress, stream, profile=False,
) -> None:
    for point_idx, point in enumerate(points):
        missing = [
            name
            for name in algorithms
            if ledger is None or not ledger.has((point_idx, name))
        ]
        instance = None
        build_time = 0.0
        build_error: Optional[str] = None
        if missing:  # fully-journalled points skip the (costly) build
            build_start = time.perf_counter()
            try:
                instance = point.build()
            except Exception:
                build_error = traceback.format_exc()
            build_time = time.perf_counter() - build_start
        for name in algorithms:
            key = (point_idx, name)
            if ledger is not None and ledger.has(key):
                row = _replayed(ledger, key)
            elif build_error is not None:
                row = _error_rows_for_point(
                    axis, point, [name], build_time, build_error
                )[0]
                row = _finalise_fresh(row, key, 1, ledger)
            else:
                row = _cell_row(
                    axis, point, point_idx, instance, build_time, name,
                    measure_memory, validate, verify, runner=runner,
                    profile=profile,
                )
                row = _finalise_fresh(row, key, 1, ledger)
            result.rows.append(row)
            if progress:
                _emit_progress(row, point, measure_memory, stream)
        del instance  # release before building the next point


def _run_parallel(
    result, points, algorithms, axis, measure_memory, validate, verify,
    jobs, runner, ledger, progress, stream, profile=False,
) -> None:
    tasks = [
        (p, a)
        for p in range(len(points))
        for a in range(len(algorithms))
        if ledger is None or not ledger.has((p, algorithms[a]))
    ]
    completed: Dict[Tuple[int, str], Dict[str, object]] = {}
    if tasks:
        jobs_effective = min(jobs, len(tasks))
        state = {
            "axis": axis,
            "points": points,
            "algorithms": algorithms,
            "measure_memory": measure_memory,
            "validate": validate,
            "verify": verify,
            "runner": runner,
            "profile": profile,
        }
        ctx = multiprocessing.get_context("fork")
        _PARALLEL_STATE.update(state)
        try:
            with ctx.Pool(processes=jobs_effective) as pool:
                for task, row in zip(
                    tasks, pool.imap(_run_parallel_cell, tasks, chunksize=1)
                ):
                    key = (task[0], algorithms[task[1]])
                    row = _finalise_fresh(row, key, jobs_effective, ledger)
                    completed[key] = row
                    if progress:
                        _emit_progress(row, points[task[0]], measure_memory, stream)
        finally:
            _PARALLEL_STATE.clear()
    for point_idx in range(len(points)):
        for name in algorithms:
            key = (point_idx, name)
            if key in completed:
                result.rows.append(completed[key])
            elif ledger is not None and ledger.has(key):
                result.rows.append(_replayed(ledger, key))


def _fork_available() -> bool:
    """Whether the fork start method exists (it does not on Windows)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False
