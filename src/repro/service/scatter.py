"""Fleet scatter/gather: one huge instance solved across the workers.

``POST /solve?partition=grid&cells=N`` turns the router from a proxy
into an aggregator.  The instance is cut by
:func:`repro.core.partition.partition_instance` into per-cell
sub-instances; each is serialised back to the wire format and fanned to
a worker's ``POST /subsolve``, placed like every request that no
worker owns: on the least-loaded healthy worker, ties taken in turn.
The partial plans come back in local cell ids, are mapped to global
ids and merged by :func:`repro.core.partition.reconcile`, and the
merged plan must pass the independent oracle
(:func:`repro.verify.oracle.verify_schedules`) before the router
returns a 200.

Partial-failure policy (the PR 10 hardening):

* **Fair deadline shares.**  Each subsolve body carries
  ``deadline_s = remaining budget / dispatch waves`` instead of the
  client's full deadline, and the proxy socket timeout is capped just
  above that share — a hung worker costs one share, not the whole
  request budget.
* **Per-cell retry.**  A cell whose dispatch dies (transport error,
  non-200, unreadable reply) is retried once on an *alternate* healthy
  worker (the least-loaded one it has not tried) instead of discarding
  the whole partition.  Only when a cell's retries are exhausted does
  the request degrade to the monolithic fallback.
* **Hedging.**  Once enough sibling cells have returned, a cell still
  outstanding past the p-quantile of their latencies gets a duplicate
  dispatch on another worker; the first valid response wins and the
  loser is dropped (per-cell done flag — no double-merge).

Retries and hedges are visible as the router's ``partition_retries`` /
``partition_hedges`` counters and in the response's ``partition`` block.

Failure semantics are otherwise the partition layer's contract: a
problem this policy cannot absorb — an instance the partitioner
rejects, a cost model that does not survive sub-instance
serialisation, a cell that failed on every allowed attempt, an
oracle-rejected merge — raises :class:`ScatterError`, and the router
degrades to an ordinary monolithic ``/solve`` proxy.  The client sees
a slower answer, never a 500.

The 200 body mirrors the worker ``/solve`` response (``status``,
``rung``, ``degraded_to``, ``guarantee``, ``utility``, ``schedules``,
``verified``, ``wall_time_s``) plus a ``partition`` block carrying the
cut's shape and the reconciliation counters, so clients and benchmarks
can see what the scatter actually did.  Quality follows
``docs/partitioning.md``: the merged plan is Definition-2 feasible but
only *near* the monolithic utility — callers who need bit-identity must
not ask for partitioning.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Set, Tuple

from ..core.exceptions import InvalidInstanceError
from ..core.partition import (
    DEFAULT_REPAIR_PASSES,
    PartitionError,
    SubInstance,
    partition_instance,
    reconcile,
)
from ..io import instance_from_dict, instance_to_dict
from ..verify.oracle import verify_schedules

#: Cap on concurrent sub-solve round-trips per scatter request; cells
#: beyond it queue.  Bounded so one huge request cannot monopolise the
#: router's handler threads.
MAX_SCATTER_CONCURRENCY = 16

#: Re-dispatches a failed cell is allowed before the whole scatter
#: gives up (the ISSUE contract: retry a *single* lost cell, monolithic
#: fallback only when retries are exhausted).
MAX_CELL_RETRIES = 1

#: Scatter budget when the client named no ``deadline_s`` — matches the
#: worker's default deadline cap so shares stay meaningful.
DEFAULT_SCATTER_BUDGET_S = 30.0

#: Floor on any one subsolve's deadline share; below it the budget is
#: effectively exhausted and the cell fails instead of spawning a
#: doomed solve.
MIN_SUBSOLVE_BUDGET_S = 0.05

#: Socket slack over the deadline share: the worker needs the share for
#: solving plus a little for queueing and the HTTP round-trip.  A hung
#: worker is cut off at ``share + slack``, not the generic proxy timeout.
RPC_SLACK_S = 2.0

#: Hedge a still-outstanding cell once it exceeds this quantile of the
#: latencies of its already-returned siblings…
HEDGE_QUANTILE = 0.9
#: …but only with at least this many siblings back (one sample says
#: nothing about stragglers)…
HEDGE_MIN_SIBLINGS = 2
#: …and never before this much wall clock (quantiles of sub-millisecond
#: siblings would hedge everything).
HEDGE_MIN_WAIT_S = 0.05


class ScatterError(Exception):
    """The scatter path could not produce a verified merged plan.

    Deliberately one exception for every cause — unpartitionable
    instance, unserialisable cost model, a cell that failed every
    allowed attempt, oracle-rejected merge: the router's reaction is
    the same in all cases (degrade to a monolithic solve), and the
    cause only matters for the message.
    """


class _CellFailure(Exception):
    """One dispatch of one cell did not produce a plan (retryable)."""

    def __init__(self, detail: str, worker_id: str):
        super().__init__(detail)
        self.worker_id = worker_id


class _CellTask:
    """Scheduler state of one populated cell."""

    __slots__ = (
        "sub", "body", "tried", "failures", "inflight",
        "done", "plan", "started", "hedged",
    )

    def __init__(self, sub: SubInstance, body: Dict[str, object]):
        self.sub = sub
        self.body = body
        self.tried: Set[str] = set()
        self.failures = 0
        self.inflight = 0
        self.done = False
        self.plan: Optional[Dict[int, List[int]]] = None
        self.started: Optional[float] = None
        self.hedged = False


def _prepare_cell(sub: SubInstance, payload: Dict[str, object]) -> _CellTask:
    """Serialise one cell into its ``/subsolve`` body (once per cell)."""
    try:
        sub_dict = instance_to_dict(sub.instance)
    except Exception as exc:
        raise ScatterError(
            f"cell {sub.cell} does not serialise "
            f"({type(exc).__name__}); cost model cannot travel"
        )
    body: Dict[str, object] = {"instance": sub_dict}
    if payload.get("algorithm") is not None:
        body["algorithm"] = payload["algorithm"]
    return _CellTask(sub, body)


def _send_cell(
    router, task: _CellTask, worker_id: str, share_s: float
) -> Dict[int, List[int]]:
    """One subsolve round-trip with a fair deadline share (pool thread)."""
    body = dict(task.body)
    body["deadline_s"] = round(share_s, 6)
    raw = json.dumps(body).encode()
    try:
        status, data = router.proxy(
            worker_id, "POST", "/subsolve", raw,
            timeout_s=share_s + RPC_SLACK_S,
        )
    except (OSError, http.client.HTTPException) as exc:
        # Distrust the health flag so the next pick avoids the corpse.
        router.supervisor.mark_unhealthy(worker_id)
        raise _CellFailure(
            f"transport {type(exc).__name__}: {exc}", worker_id
        )
    if status != 200:
        raise _CellFailure(f"HTTP {status}", worker_id)
    try:
        schedules = json.loads(data).get("schedules", {})
        return {
            int(uid): [int(v) for v in events]
            for uid, events in schedules.items()
        }
    except (json.JSONDecodeError, TypeError, ValueError, AttributeError) as exc:
        raise _CellFailure(f"unreadable plan: {exc}", worker_id)


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _budget_of(payload: Dict[str, object]) -> float:
    deadline = payload.get("deadline_s")
    if deadline is None:
        return DEFAULT_SCATTER_BUDGET_S
    if (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not math.isfinite(float(deadline))
        or float(deadline) <= 0
    ):
        # Let the monolithic path produce the canonical 400.
        raise ScatterError(f"deadline_s is not a positive number: {deadline!r}")
    return float(deadline)


def _gather(
    router, tasks: List[_CellTask], budget_end: float, base_share: float
) -> Tuple[int, int]:
    """Run every cell to completion; returns ``(retries, hedges)``.

    The scheduler loop: dispatch all cells, then collect as they
    finish.  A failed dispatch re-dispatches on an alternate worker
    (bounded by :data:`MAX_CELL_RETRIES`); a straggler past the
    sibling-latency quantile gets one hedge twin; the first valid
    response marks the cell done and later twins are dropped.
    """
    retries = 0
    hedges = 0
    pool = ThreadPoolExecutor(
        max_workers=min(len(tasks), MAX_SCATTER_CONCURRENCY)
    )
    pending: Dict[object, _CellTask] = {}
    latencies: List[float] = []

    def dispatch(task: _CellTask) -> bool:
        # The least-loaded healthy worker this cell has not been sent
        # to.  Never blocks: a cell that cannot be placed right now
        # fails rather than stalling the gather loop — the monolithic
        # fallback owns the patient waiting.
        worker_id = router.pick_least_loaded(exclude=tuple(task.tried))
        if worker_id is None:
            return False
        now = time.monotonic()
        share = min(base_share, budget_end - now)
        if share < MIN_SUBSOLVE_BUDGET_S:
            return False
        if task.started is None:
            task.started = now
        task.tried.add(worker_id)
        task.inflight += 1
        future = pool.submit(_send_cell, router, task, worker_id, share)
        pending[future] = task
        return True

    try:
        for task in tasks:
            if not dispatch(task):
                raise ScatterError(
                    f"no healthy worker for cell {task.sub.cell}"
                )
        completed = 0
        while completed < len(tasks):
            if time.monotonic() > budget_end + RPC_SLACK_S:
                raise ScatterError("scatter exceeded the request budget")
            done, _ = wait(
                list(pending), timeout=0.02, return_when=FIRST_COMPLETED
            )
            for future in done:
                task = pending.pop(future)
                task.inflight -= 1
                if task.done:
                    continue  # a hedge twin already won; drop the loser
                try:
                    plan = future.result()
                except _CellFailure as exc:
                    task.failures += 1
                    if task.failures <= MAX_CELL_RETRIES and dispatch(task):
                        retries += 1
                        router.count("partition_retries")
                        continue
                    if task.inflight > 0:
                        continue  # its twin may still answer
                    raise ScatterError(
                        f"cell {task.sub.cell} failed after "
                        f"{task.failures} attempt(s): {exc}"
                    )
                task.done = True
                task.plan = plan
                completed += 1
                latencies.append(time.monotonic() - task.started)
            if len(latencies) >= HEDGE_MIN_SIBLINGS:
                threshold = max(
                    _quantile(latencies, HEDGE_QUANTILE), HEDGE_MIN_WAIT_S
                )
                now = time.monotonic()
                for task in tasks:
                    if task.done or task.hedged or task.failures:
                        continue
                    if now - task.started > threshold and dispatch(task):
                        task.hedged = True
                        hedges += 1
                        router.count("partition_hedges")
    finally:
        # Abandoned twins (a hedge's slow loser, a straggler past the
        # budget) run out their socket timeout in the background; never
        # block the response on them.
        pool.shutdown(wait=False)
    return retries, hedges


def scatter_solve(
    router,
    payload: Dict[str, object],
    cells: int = 4,
    repair_passes: int = DEFAULT_REPAIR_PASSES,
) -> Tuple[int, Dict[str, object]]:
    """Partition, fan out, gather, reconcile, oracle-gate.

    Args:
        router: The :class:`~repro.service.router.PlanningRouter`; it
            provides least-loaded placement, the per-call-timeout proxy and
            the ``partition_*`` counters.
        payload: The parsed client request.  Must carry an inline
            ``instance`` — an ``instance_id`` names state living on one
            shard and cannot be cut here.
        cells: Target grid cell count (sized to the fleet).
        repair_passes: Bound on the boundary repair sweeps of the merge.

    Returns:
        ``(200, body)`` with the oracle-verified merged plan.

    Raises:
        ScatterError: On any failure; the caller falls back to the
            monolithic proxy path.
    """
    started = time.monotonic()
    budget = _budget_of(payload)
    budget_end = started + budget
    instance_dict = payload.get("instance")
    if not isinstance(instance_dict, dict):
        raise ScatterError("partitioned solve requires an inline instance")
    try:
        instance = instance_from_dict(instance_dict)
    except InvalidInstanceError as exc:
        raise ScatterError(f"instance does not decode: {exc}")
    try:
        partition = partition_instance(instance, cells=cells)
    except PartitionError as exc:
        raise ScatterError(f"instance cannot be partitioned: {exc}")

    populated = [sub for sub in partition.cells if len(sub.user_ids)]
    retries = 0
    hedges = 0
    if populated:
        tasks = [_prepare_cell(sub, payload) for sub in populated]
        # Fair share of the *remaining* budget: cells dispatch in waves
        # of at most MAX_SCATTER_CONCURRENCY, and every wave must fit.
        waves = max(1, math.ceil(len(tasks) / MAX_SCATTER_CONCURRENCY))
        remaining = budget_end - time.monotonic()
        if remaining < MIN_SUBSOLVE_BUDGET_S:
            raise ScatterError("request budget exhausted before dispatch")
        base_share = max(MIN_SUBSOLVE_BUDGET_S, remaining / waves)
        try:
            retries, hedges = _gather(router, tasks, budget_end, base_share)
        except ScatterError:
            raise
        except Exception as exc:  # transport surprises, pool teardown
            raise ScatterError(f"scatter failed: {type(exc).__name__}: {exc}")
        plans_by_index = {task.sub.index: task.plan for task in tasks}
    else:
        plans_by_index = {}

    cell_plans = [
        sub.to_global_plan(plans_by_index.get(sub.index) or {})
        for sub in partition.cells
    ]
    planning, stats = reconcile(
        instance,
        cell_plans,
        [sub.user_ids for sub in partition.cells],
        repair_passes=repair_passes,
    )
    merged = planning.as_dict()
    utility = planning.total_utility()
    report = verify_schedules(instance, merged, reported_utility=utility)
    if not report.ok:
        raise ScatterError(f"merged plan fails the oracle: {report.summary()}")
    body: Dict[str, object] = {
        "status": "ok",
        # A merged plan carries no approximation bound, whatever
        # algorithm solved the cells.
        "rung": 0,
        "degraded_to": None,
        "guarantee": "heuristic",
        "utility": round(float(utility), 6),
        "schedules": {
            str(uid): events for uid, events in sorted(merged.items())
        },
        "verified": True,
        "partition": {
            **partition.describe(),
            **stats,
            "retries": retries,
            "hedges": hedges,
        },
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    if payload.get("algorithm") is not None:
        body["algorithm"] = payload["algorithm"]
    return 200, body
