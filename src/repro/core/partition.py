"""Spatial grid partitioning of huge instances, and the merge that
reassembles per-cell plans into one feasible planning.

The paper's decomposition is embarrassingly parallel across *users*,
but one huge instance still lands on one worker because every solver
touches the full ``|V| x |U|`` problem.  Utilities decay with distance
in real EBSN workloads, so far-apart event clusters barely interact —
the natural cut is spatial:

1. :func:`partition_instance` buckets **events** by location into a
   ``gx x gy`` grid over the event bounding box (about ``cells`` nonempty
   cells) and attaches each **user** to every cell holding at least one
   of their *positive-utility Lemma-1 candidates* (``mu(v, u) > 0`` and
   round-trip within budget).  A user near a cell boundary may appear
   in several cells; a user with no candidates appears in none (no
   solver could ever schedule them).  Each cell becomes a standalone
   renumbered :class:`~repro.core.instance.USEPInstance`.
2. Each sub-instance is solved independently (locally via
   :func:`repro.algorithms.partitioned.solve_partitioned`, or across
   the worker fleet via :mod:`repro.service.scatter`).
3. :func:`reconcile` merges the per-cell plans: single-cell users adopt
   their schedule verbatim, boundary users are resolved greedily by
   utility margin, and a bounded +RG-style repair pass restricted to
   boundary users recovers utility the cut destroyed.

**Contract.**  This is the first layer allowed to return a *different*
answer than the sequential solver: the merged plan must be
Definition-2 feasible (callers gate it with
:func:`repro.verify.oracle.verify_schedules`) and is expected to reach
a configured fraction of the monolithic utility (the fuzz harness and
bench guard enforce ``>= 0.95`` on clustered geographies) — **not**
byte-equality.  The floor is kept honest by a refusal guard: a cut
that would replicate more than :data:`MAX_REPLICATION_RATIO` of its
users across cells (relaxed to :data:`MAX_REPLICATION_RATIO_LARGE`
above :data:`REPLICATION_STRICT_BELOW_USERS` attached users, where
per-user coordination losses average out) raises
:class:`PartitionError` instead of producing a low-quality merge, and
the caller solves monolithically.  The single degenerate exception: a one-cell partition
contains every event under the identity id mapping and every user with
a candidate, so its merge *is* byte-identical to the monolithic solve
(regression-tested).

Why sub-plans stay feasible globally: a cell's events/users keep their
exact locations, intervals, capacities and budgets (ids are renumbered
densely, costs are sliced or delegated), so any schedule feasible in
the cell is feasible verbatim on the full instance.  Capacity cannot
be oversubscribed by the honest scatter path — each event lives in
exactly one cell — but :func:`reconcile` is defensive anyway and
resolves oversubscription by utility margin, since it also accepts
partial plans from untrusted workers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace as entity_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import instrument
from .costs import CostModel, GridCostModel, MatrixCostModel
from .entities import Event, User
from .exceptions import ReproError
from .instance import USEPInstance
from .planning import Planning

#: Reconciliation defaults: passes of the bounded boundary repair and
#: the per-user candidate cap each pass scans (mu-descending).
DEFAULT_REPAIR_PASSES = 2
DEFAULT_REPAIR_CANDIDATES = 32

#: Refusal threshold of :func:`partition_instance`: a multi-cell cut
#: replicating more than this fraction of its attached users is not a
#: spatial decomposition, it is the same problem copied k times — no
#: speedup, and enough cross-cell coupling that merge quality degrades
#: (measured: every utility-ratio dip below 0.95 across a 120-draw
#: seeded sweep had replication >= 0.58; everything under 0.50 stayed
#: >= 0.98).  Refusing keeps the quality floor honest over the whole
#: input space, because callers degrade to the monolithic path.
MAX_REPLICATION_RATIO = 0.5

#: The strict bound above is calibrated on *small* instances (the fuzz
#: distribution tops out under 500 users), where one mis-coordinated
#: boundary user carries a visible share of the objective.  At fleet
#: scale the loss averages out: the 50k-user bench instance measures a
#: 0.998 utility ratio at 66% replication.  So the strict bound applies
#: below this attached-user count, and only the looser
#: :data:`MAX_REPLICATION_RATIO_LARGE` backstop above it.
REPLICATION_STRICT_BELOW_USERS = 1000
MAX_REPLICATION_RATIO_LARGE = 0.85


class PartitionError(ReproError):
    """The instance cannot be partitioned (callers fall back to the
    monolithic solve path)."""


# ----------------------------------------------------------------------
# Lemma-1 candidate mask (the user -> cell attachment rule)
# ----------------------------------------------------------------------
def candidate_mask(instance: USEPInstance) -> np.ndarray:
    """``(|V|, |U|)`` bool: ``mu(v, u) > 0`` and round-trip within budget.

    Exactly the positive-utility Lemma-1 filter of
    :class:`~repro.core.candidates.CandidateIndex`, but computed
    without forcing the monolithic array layer into existence — the
    partitioner's whole point is that only the (much smaller) per-cell
    layers get built.  An already-built
    :class:`~repro.core.arrays.InstanceArrays` round-trip matrix is
    reused verbatim; otherwise the cost model's bulk methods supply
    both legs, bit-identical to its scalar calls.
    """
    mu = instance.utility_matrix()
    num_events, num_users = instance.num_events, instance.num_users
    if not num_events or not num_users:
        return np.zeros((num_events, num_users), dtype=bool)
    budgets = np.array([u.budget for u in instance.users], dtype=float)

    arrays = instance._arrays  # noqa: SLF001 - reuse, never force-build
    if arrays is not None and arrays.round_trip is not None:
        round_trip = arrays.round_trip
    else:
        model = instance.cost_model
        round_trip = model.event_user_matrix(instance.events, instance.users)
        round_trip += model.user_event_matrix(instance.events, instance.users)
    # (|U|, |V|) -> (|V|, |U|)
    return (mu > 0.0) & (round_trip.T <= budgets[None, :])


# ----------------------------------------------------------------------
# sub-instances
# ----------------------------------------------------------------------
class _SubsetCostModel(CostModel):
    """Delegate costs of renumbered entities to the parent model.

    Needed only for cost models that index by entity *id* and are
    neither grid- nor matrix-based: local entity ``i`` is looked up as
    its global twin before the parent model is consulted.  Not
    JSON-serialisable — the HTTP scatter path is restricted to grid and
    matrix models (see :mod:`repro.io`), which never need this wrapper.
    """

    def __init__(
        self,
        base: CostModel,
        global_events: Sequence[Event],
        global_users: Sequence[User],
        event_ids: Sequence[int],
        user_ids: Sequence[int],
    ):
        self._base = base
        self._events = [global_events[g] for g in event_ids]
        self._users = [global_users[g] for g in user_ids]

    def event_to_event(self, first: Event, second: Event) -> float:
        return self._base.event_to_event(
            self._events[first.id], self._events[second.id]
        )

    def user_to_event(self, user: User, event: Event) -> float:
        return self._base.user_to_event(
            self._users[user.id], self._events[event.id]
        )

    def event_to_user(self, event: Event, user: User) -> float:
        return self._base.event_to_user(
            self._events[event.id], self._users[user.id]
        )


def _slice_cost_model(
    instance: USEPInstance, event_ids: Sequence[int], user_ids: Sequence[int]
) -> CostModel:
    """The sub-instance's cost model.

    Grid models are purely location-based and shared as-is (they are
    stateless); matrix models are sliced to the surviving id ranges;
    anything else is wrapped with a local->global delegate.
    """
    model = instance.cost_model
    if isinstance(model, GridCostModel):
        return model
    if isinstance(model, MatrixCostModel):
        ee = [[model._ee[a][b] for b in event_ids] for a in event_ids]  # noqa: SLF001
        ue = [[model._ue[u][v] for v in event_ids] for u in user_ids]  # noqa: SLF001
        eu = model._eu  # noqa: SLF001
        if eu is not None:
            eu = [[eu[v][u] for u in user_ids] for v in event_ids]
        return MatrixCostModel(
            ee, ue, eu, check_conflicts=model.check_conflicts
        )
    return _SubsetCostModel(
        model, instance.events, instance.users, event_ids, user_ids
    )


@dataclass
class SubInstance:
    """One grid cell as a standalone, densely renumbered instance.

    Attributes:
        index: Position in :attr:`GridPartition.cells`.
        cell: The ``(ix, iy)`` grid coordinates of the cell.
        instance: The renumbered per-cell :class:`USEPInstance`.
        event_ids: Ascending global event ids; local event ``i`` is the
            global event ``event_ids[i]``.
        user_ids: Ascending global user ids, same convention.
    """

    index: int
    cell: Tuple[int, int]
    instance: USEPInstance
    event_ids: List[int]
    user_ids: List[int]

    def to_global_plan(
        self, local_plan: Dict[int, List[int]]
    ) -> Dict[int, List[int]]:
        """Map a ``{local user: [local events]}`` plan to global ids."""
        return {
            self.user_ids[user]: [self.event_ids[v] for v in events]
            for user, events in local_plan.items()
        }


@dataclass
class GridPartition:
    """The result of cutting one instance into grid cells.

    Attributes:
        instance: The original (uncut) instance.
        cells: Nonempty cells in deterministic ``(iy, ix)`` scan order.
        grid: The ``(gx, gy)`` grid dimensions.
        requested_cells: What the caller asked for.
        empty_cells: Grid slots that held no event (dropped).
        attached_users: Users attached to at least one cell.
        replicated_users: Users attached to two or more cells (the
            boundary set resolved by :func:`reconcile`).
        user_cell_count: Per-user number of cells attached to.
    """

    instance: USEPInstance
    cells: List[SubInstance]
    grid: Tuple[int, int]
    requested_cells: int
    empty_cells: int
    attached_users: int
    replicated_users: int
    user_cell_count: np.ndarray

    def boundary_users(self) -> List[int]:
        """Ascending global ids of users attached to >= 2 cells."""
        return np.nonzero(self.user_cell_count >= 2)[0].tolist()

    def describe(self) -> Dict[str, object]:
        """Summary block for stats endpoints and ``--profile`` output."""
        return {
            "cells": len(self.cells),
            "grid": list(self.grid),
            "requested_cells": self.requested_cells,
            "empty_cells": self.empty_cells,
            "attached_users": self.attached_users,
            "replicated_users": self.replicated_users,
            "cell_sizes": [
                {"events": len(sub.event_ids), "users": len(sub.user_ids)}
                for sub in self.cells
            ],
        }


def _grid_dimensions(cells: int) -> Tuple[int, int]:
    """A near-square ``gx x gy`` grid with ``gx * gy >= cells``."""
    gx = max(1, int(math.isqrt(cells)))
    gy = (cells + gx - 1) // gx
    return gx, gy


def partition_instance(
    instance: USEPInstance,
    cells: int = 4,
    max_replication_ratio: Optional[float] = MAX_REPLICATION_RATIO,
) -> GridPartition:
    """Cut an instance into about ``cells`` grid-cell sub-instances.

    Events are bucketed by quantised location over their bounding box;
    empty grid slots are dropped.  Users are attached per the Lemma-1
    candidate rule (see :func:`candidate_mask`); a cell may end up with
    zero attached users (its plan is trivially empty).  ``cells`` is
    clamped to ``[1, |V|]``; a degenerate geometry (all events at one
    point) yields a single cell, which merges byte-identically to the
    monolithic solve.

    A multi-cell cut whose boundary set exceeds ``max_replication_ratio``
    of the attached users is *refused* (the geography does not support
    the cut — candidate sets straddle the cell borders, so the cut buys
    no work reduction and costs merge quality); above
    :data:`REPLICATION_STRICT_BELOW_USERS` attached users the bound
    relaxes to :data:`MAX_REPLICATION_RATIO_LARGE`.  Pass ``None`` to
    disable the guard (tests of the reconciler's defensive paths do).

    Raises:
        PartitionError: On an instance with no events or no users, or
            on a refused high-replication cut — callers degrade to the
            monolithic path.
    """
    started = time.perf_counter()
    if not instance.num_events or not instance.num_users:
        raise PartitionError(
            f"nothing to partition: |V| = {instance.num_events}, "
            f"|U| = {instance.num_users}"
        )
    requested = int(cells)
    if requested < 1:
        raise PartitionError(f"cells must be >= 1, got {cells}")
    target = min(requested, instance.num_events)
    gx, gy = _grid_dimensions(target)

    locations = np.array(
        [e.location for e in instance.events], dtype=float
    )  # (|V|, 2)
    low = locations.min(axis=0)
    span = locations.max(axis=0) - low
    span[span == 0.0] = 1.0  # flat axis: every event lands in slot 0
    ix = np.minimum((locations[:, 0] - low[0]) / span[0] * gx, gx - 1).astype(int)
    iy = np.minimum((locations[:, 1] - low[1]) / span[1] * gy, gy - 1).astype(int)

    buckets: Dict[Tuple[int, int], List[int]] = {}
    for event_id in range(instance.num_events):
        buckets.setdefault((int(ix[event_id]), int(iy[event_id])), []).append(
            event_id
        )
    ordered_cells = sorted(buckets, key=lambda c: (c[1], c[0]))

    mask = candidate_mask(instance)  # (|V|, |U|)
    user_cell_count = np.zeros(instance.num_users, dtype=int)
    members: List[np.ndarray] = []
    for cell in ordered_cells:
        cell_users = np.nonzero(mask[buckets[cell], :].any(axis=0))[0]
        user_cell_count[cell_users] += 1
        members.append(cell_users)

    attached = int((user_cell_count >= 1).sum())
    replicated = int((user_cell_count >= 2).sum())
    if max_replication_ratio is not None and len(ordered_cells) > 1:
        bound = max_replication_ratio
        if attached >= REPLICATION_STRICT_BELOW_USERS:
            bound = max(bound, MAX_REPLICATION_RATIO_LARGE)
        if replicated > bound * max(1, attached):
            raise PartitionError(
                f"cut refused: {replicated} of {attached} attached users "
                f"({replicated / max(1, attached):.0%}) would be replicated "
                f"across cells, above the {bound:.0%} bound — "
                f"the geography does not support {len(ordered_cells)} cells"
            )

    subs: List[SubInstance] = []
    for index, cell in enumerate(ordered_cells):
        event_ids = buckets[cell]  # ascending: built in id order
        user_ids = members[index].tolist()
        events = [
            entity_replace(instance.events[g], id=i)
            for i, g in enumerate(event_ids)
        ]
        users = [
            entity_replace(instance.users[g], id=j)
            for j, g in enumerate(user_ids)
        ]
        mu = np.ascontiguousarray(
            instance.utility_matrix()[np.ix_(event_ids, user_ids)]
        )
        sub = USEPInstance(
            events,
            users,
            _slice_cost_model(instance, event_ids, user_ids),
            mu,
            cache_user_costs=instance._cache_user_costs,  # noqa: SLF001
            name=f"{instance.name or 'instance'}[cell {cell[0]},{cell[1]}]",
        )
        subs.append(
            SubInstance(
                index=index,
                cell=cell,
                instance=sub,
                event_ids=list(event_ids),
                user_ids=user_ids,
            )
        )

    partition = GridPartition(
        instance=instance,
        cells=subs,
        grid=(gx, gy),
        requested_cells=requested,
        empty_cells=gx * gy - len(subs),
        attached_users=attached,
        replicated_users=replicated,
        user_cell_count=user_cell_count,
    )
    prof = instrument.active()
    if prof is not None:
        prof.add("partition_cells", len(subs))
        prof.add("partition_replicated_users", replicated)
        prof.add(
            "partition_build_ms",
            int(round(1e3 * (time.perf_counter() - started))),
        )
    return partition


# ----------------------------------------------------------------------
# boundary reconciliation
# ----------------------------------------------------------------------
def _repair_candidates(
    instance: USEPInstance, user_id: int, cap: int
) -> List[int]:
    """The user's Lemma-1 candidates, best utility first (capped).

    Exact scalar filtering — the boundary set is small, so a per-event
    loop is cheaper than any vectorised detour and matches the
    schedulers' own pruning bit for bit.
    """
    budget = instance.users[user_id].budget
    survivors = [
        (event_id, instance.utility(event_id, user_id))
        for event_id in range(instance.num_events)
        if instance.utility(event_id, user_id) > 0.0
        and instance.round_trip_cost(user_id, event_id) <= budget
    ]
    survivors.sort(key=lambda pair: (-pair[1], pair[0]))
    return [event_id for event_id, _ in survivors[:cap]]


def reconcile(
    instance: USEPInstance,
    cell_plans: Sequence[Dict[int, List[int]]],
    cell_user_ids: Sequence[Sequence[int]],
    repair_passes: int = DEFAULT_REPAIR_PASSES,
    repair_candidates: int = DEFAULT_REPAIR_CANDIDATES,
) -> Tuple[Planning, Dict[str, int]]:
    """Merge per-cell plans into one feasible global planning.

    Args:
        instance: The original uncut instance.
        cell_plans: One ``{global user id: [global event ids]}`` plan
            per cell (map local plans through
            :meth:`SubInstance.to_global_plan` first).
        cell_user_ids: The users *attached* to each cell — membership,
            not who got scheduled; it defines the boundary set.
        repair_passes: Upper bound on boundary repair sweeps.
        repair_candidates: Per-user candidate cap per repair sweep.

    Three deterministic stages:

    1. **Verbatim adoption** — a user attached to exactly one cell
       keeps that cell's schedule unchanged (this is what makes the
       single-cell partition byte-identical to the monolithic solve).
       If adopted pairs oversubscribe an event — impossible via the
       honest scatter path, but this function accepts arbitrary
       partial plans — the lowest-margin attendees are evicted into
       the boundary pool until capacity holds.
    2. **Greedy conflict resolution by utility margin** — every pair
       proposed for a boundary user (plus evictees) is attempted in
       descending ``mu(v, u)`` order through the planning's validity
       test (utility, capacity, temporal fit, budget).
    3. **Bounded +RG repair** — up to ``repair_passes`` sweeps over the
       boundary users the merge shortchanged (a proposed pair lost to
       a conflict or an eviction), scanning each one's top
       ``repair_candidates`` Lemma-1 candidates best-first for valid
       insertions the cut made invisible; stops early when a sweep
       inserts nothing.

    Returns:
        ``(planning, stats)``; callers gate the planning through
        :func:`repro.verify.oracle.verify_schedules` before serving it.
    """
    started = time.perf_counter()
    if len(cell_plans) != len(cell_user_ids):
        raise PartitionError(
            f"{len(cell_plans)} cell plans but {len(cell_user_ids)} "
            f"cell membership lists"
        )
    membership = np.zeros(instance.num_users, dtype=int)
    for user_ids in cell_user_ids:
        for user_id in user_ids:
            membership[user_id] += 1
    boundary = set(np.nonzero(membership >= 2)[0].tolist())

    planning = Planning(instance)
    pool: List[Tuple[int, int]] = []  # (event, user) pairs for stage 2
    adopted = 0
    for plan in cell_plans:
        for user_id, event_ids in plan.items():
            if not event_ids:
                continue
            if user_id in boundary:
                pool.extend((event_id, user_id) for event_id in event_ids)
                continue
            ordered = sorted(
                event_ids, key=lambda v: (instance.events[v].start, v)
            )
            planning.set_schedule(user_id, ordered)
            adopted += 1

    # Stage 1b: defensive eviction — restore the capacity invariant
    # before any validity-checked insertion runs.
    evictions = 0
    over_events = [
        event_id
        for event_id in range(instance.num_events)
        if planning.occupancy(event_id)
        > instance.events[event_id].capacity
    ]
    if over_events:
        attendees: Dict[int, List[int]] = {v: [] for v in over_events}
        for event_id, user_id in planning.iter_pairs():
            if event_id in attendees:
                attendees[event_id].append(user_id)
        for event_id in over_events:
            excess = planning.occupancy(event_id) - instance.events[
                event_id
            ].capacity
            # Keep the highest-margin attendees; ties keep smaller ids.
            by_margin = sorted(
                attendees[event_id],
                key=lambda u: (instance.utility(event_id, u), -u),
            )
            for user_id in by_margin[:excess]:
                planning.remove_pair(event_id, user_id)
                pool.append((event_id, user_id))
                evictions += 1

    # Stage 2: boundary pairs, best utility margin first.
    conflicts = 0
    applied = 0
    seen = set()
    unique_pool = []
    for pair in pool:
        if pair not in seen:
            seen.add(pair)
            unique_pool.append(pair)
    unique_pool.sort(
        key=lambda pair: (-instance.utility(pair[0], pair[1]), pair[0], pair[1])
    )
    losers = set()
    for event_id, user_id in unique_pool:
        if event_id in planning.schedule_of(user_id):
            continue
        insertion = planning.plan_valid_insertion(event_id, user_id)
        if insertion is None:
            conflicts += 1
            losers.add(user_id)
            continue
        planning.apply_insertion(user_id, insertion)
        applied += 1

    # Stage 3: bounded +RG repair restricted to the boundary users the
    # merge actually shortchanged — everyone who lost a proposed pair
    # to a conflict or an eviction.  Candidate lists are computed once
    # (they depend only on the instance); what changes between passes
    # is the planning state the validity test reads.
    repair_insertions = 0
    passes_run = 0
    repair_targets = sorted(losers)
    target_candidates = {
        user_id: _repair_candidates(instance, user_id, repair_candidates)
        for user_id in repair_targets
    }
    for _ in range(max(0, repair_passes)):
        if not repair_targets:
            break
        passes_run += 1
        inserted_this_pass = 0
        for user_id in repair_targets:
            for event_id in target_candidates[user_id]:
                if event_id in planning.schedule_of(user_id):
                    continue
                insertion = planning.plan_valid_insertion(event_id, user_id)
                if insertion is not None:
                    planning.apply_insertion(user_id, insertion)
                    inserted_this_pass += 1
        repair_insertions += inserted_this_pass
        if not inserted_this_pass:
            break

    reconcile_ms = int(round(1e3 * (time.perf_counter() - started)))
    stats = {
        "adopted_users": adopted,
        "boundary_users": len(boundary),
        "boundary_pairs": len(unique_pool),
        "boundary_applied": applied,
        "boundary_conflicts": conflicts,
        "evictions": evictions,
        "repair_passes": passes_run,
        "repair_insertions": repair_insertions,
        "reconcile_ms": reconcile_ms,
    }
    prof = instrument.active()
    if prof is not None:
        prof.add("partition_boundary_conflicts", conflicts + evictions)
        prof.add("partition_repair_passes", passes_run)
        prof.add("partition_reconcile_ms", reconcile_ms)
    return planning, stats
