"""Typed in-place instance mutations with minimal re-solve (dynamic USEP).

The paper solves *static* instances; the related dynamic-EBSN work
("Social Event Scheduling", arXiv 1801.09973; "Attendance Maximization",
arXiv 1811.11593) treats arrivals, departures and edits as first-class.
This module is the bridge: a closed set of typed mutations —
:class:`AddUser`, :class:`DropUser`, :class:`AddEvent`,
:class:`DropEvent`, :class:`CapacityChange`, :class:`BudgetChange`,
:class:`UtilityChange` — that edit a live :class:`USEPInstance` **in
place** while keeping every derived structure consistent:

* the instance's content (entity tuples, the ``mu`` matrix) and its
  lazily built cost caches (``_vv_cost``, the per-user cost rows) and
  end-time ordering;
* the :class:`~repro.core.arrays.InstanceArrays` compute layer,
  updated *incrementally* — a budget edit writes one array cell, a new
  user appends one cost row (``O(|V|)`` cost-model calls instead of
  the ``O(|U| |V|)`` a full rebuild pays), a new event appends one
  column;
* the :class:`~repro.core.candidates.CandidateIndex` (per-row refresh
  for user-level edits, vectorised rebuild for event-set changes) and
  :class:`~repro.core.candidates.ScheduleMemo` (exact eviction of the
  *dirty* users, id remapping for drops);
* the instance's memoised content fingerprint
  (:func:`repro.core.build_cache.instance_fingerprint`), reset so it
  always hashes the current content.

**Dirty users.**  Every mutation reports the exact set of users whose
next Step-1 scheduling can differ — the analytically-affected set, no
more and no less (``tests/test_deltas.py`` holds this per kind):

====================  ===================================================
mutation              dirty users
====================  ===================================================
``add_user``          the new user
``drop_user``         none (remaining views are id-shifts, not changes)
``add_event``         users for whom the new event survives Lemma 1
                      (positive utility, round trip within budget)
``drop_event``        users with the event in their candidate view
``capacity_change``   users with the event in their candidate view
                      (their Step-1 decomposed views depend on the
                      event's pseudo-copy pool)
``budget_change``     the touched user (the budget value itself feeds
                      the DP threshold, even when the candidate set is
                      unchanged)
``utility_change``    the touched user, iff the event is
                      budget-feasible for them and the utility is
                      positive before or after (otherwise the edit
                      cannot enter any candidate view)
====================  ===================================================

Dirty users' memo entries are evicted; everyone else memo-hits on the
next solve, so a delta re-solve re-runs Step 1 only for the dirty set.
Because the memo replays only bit-identical views and every derived
structure above is rebuilt with the same elementwise operations a
from-scratch build uses, a delta re-solve is **bit-identical** to a
cold solve of the mutated content (the churn differential fuzzer in
:mod:`repro.verify.fuzz` compares canonical planning bytes after every
mutation).

Value no-ops (setting a capacity/budget/utility to its current value)
apply nothing and invalidate nothing — the report says so via
:attr:`DeltaReport.noop`.

Each mutation validates *before* touching any state, so a rejected
mutation (bad id, out-of-range utility) leaves the instance unchanged;
a mutation *list* applies sequentially and stops at the first invalid
entry (callers see how many applied via the report list length).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .arrays import vv_columns
from .candidates import CandidateIndex
from .entities import Event, User
from .exceptions import InvalidInstanceError
from .instance import USEPInstance
from .timeutils import TimeInterval


# ----------------------------------------------------------------------
# the mutation types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AddUser:
    """Append a user (id ``|U|``) with their full utility column."""

    location: Tuple[float, float]
    budget: float
    utilities: Tuple[float, ...]  #: ``mu(v, new)`` per event id, length |V|
    name: Optional[str] = field(default=None, compare=False)

    kind = "add_user"


@dataclass(frozen=True)
class DropUser:
    """Remove a user; later user ids shift down by one."""

    user_id: int

    kind = "drop_user"


@dataclass(frozen=True)
class AddEvent:
    """Append an event (id ``|V|``) with its full utility row."""

    location: Tuple[float, float]
    capacity: int
    start: float
    end: float
    utilities: Tuple[float, ...]  #: ``mu(new, u)`` per user id, length |U|
    name: Optional[str] = field(default=None, compare=False)

    kind = "add_event"


@dataclass(frozen=True)
class DropEvent:
    """Remove an event; later event ids shift down by one."""

    event_id: int

    kind = "drop_event"


@dataclass(frozen=True)
class CapacityChange:
    """Set an event's capacity."""

    event_id: int
    capacity: int

    kind = "capacity_change"


@dataclass(frozen=True)
class BudgetChange:
    """Set a user's travel budget."""

    user_id: int
    budget: float

    kind = "budget_change"


@dataclass(frozen=True)
class UtilityChange:
    """Set one ``mu(v, u)`` cell."""

    event_id: int
    user_id: int
    utility: float

    kind = "utility_change"


Mutation = Union[
    AddUser,
    DropUser,
    AddEvent,
    DropEvent,
    CapacityChange,
    BudgetChange,
    UtilityChange,
]

#: kind string -> mutation class (the io codec walks this).
MUTATION_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        AddUser,
        DropUser,
        AddEvent,
        DropEvent,
        CapacityChange,
        BudgetChange,
        UtilityChange,
    )
}

MUTATION_KINDS: Tuple[str, ...] = tuple(MUTATION_TYPES)


@dataclass(frozen=True)
class DeltaReport:
    """What one applied mutation changed and invalidated.

    Attributes:
        kind: The mutation's kind string.
        dirty_users: Post-mutation ids of users whose next Step-1
            scheduling can differ (see the module table).  Exactly the
            analytically-affected set.
        version: ``instance.version`` after application (unchanged for
            a no-op).
        memo_evicted: Schedule-memo entries removed.
        index_rebuilt: True when the candidate index was rebuilt from
            scratch (event-set mutations) rather than row-refreshed.
        noop: True when the mutation set a value to itself and nothing
            was touched.
    """

    kind: str
    dirty_users: FrozenSet[int]
    version: int
    memo_evicted: int = 0
    index_rebuilt: bool = False
    noop: bool = False


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _check_event_id(instance: USEPInstance, event_id, path: str) -> int:
    if not isinstance(event_id, int) or isinstance(event_id, bool):
        raise InvalidInstanceError(f"{path}: event id must be an integer")
    if not 0 <= event_id < instance.num_events:
        raise InvalidInstanceError(
            f"{path}: event id {event_id} out of range "
            f"(instance has {instance.num_events} events)"
        )
    return event_id


def _check_user_id(instance: USEPInstance, user_id, path: str) -> int:
    if not isinstance(user_id, int) or isinstance(user_id, bool):
        raise InvalidInstanceError(f"{path}: user id must be an integer")
    if not 0 <= user_id < instance.num_users:
        raise InvalidInstanceError(
            f"{path}: user id {user_id} out of range "
            f"(instance has {instance.num_users} users)"
        )
    return user_id


def _check_utilities(values, expected: int, path: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(
            f"{path}: utilities must be an array of numbers ({exc})"
        ) from exc
    if arr.ndim != 1 or arr.shape[0] != expected:
        raise InvalidInstanceError(
            f"{path}: expected {expected} utilities, got shape {arr.shape}"
        )
    if arr.size and (
        np.isnan(arr).any() or float(arr.min()) < 0.0 or float(arr.max()) > 1.0
    ):
        raise InvalidInstanceError(f"{path}: utilities must lie in [0, 1]")
    return arr


def _check_utility(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInstanceError(f"{path}: utility must be a number")
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InvalidInstanceError(
            f"{path}: utility must lie in [0, 1], got {value}"
        )
    return value


def _layers(instance: USEPInstance):
    """``(arrays, engine, index)`` — only the parts already built.

    Mutations never *force* lazy layers into existence: an instance
    whose arrays/engine/index were never touched stays lazy and the
    next access derives everything from the mutated content.
    """
    arrays = instance._arrays  # noqa: SLF001 - deltas is core-internal
    engine = arrays._engine if arrays is not None else None  # noqa: SLF001
    index = None
    if engine is not None and engine._index_built:  # noqa: SLF001
        index = engine._index  # noqa: SLF001
    return arrays, engine, index


def _survivor_set(instance: USEPInstance, event_id: int) -> FrozenSet[int]:
    """Users for whom the event survives Lemma 1 + the positive filter.

    Exactly candidate-view membership: ``mu(v, u) > 0`` and round trip
    within budget — the same float comparisons the index build makes.
    """
    arrays = instance._arrays  # noqa: SLF001
    if arrays is not None and arrays.round_trip is not None:
        mask = (arrays.mu[event_id, :] > 0.0) & (
            arrays.round_trip[:, event_id] <= arrays.budgets
        )
        return frozenset(np.nonzero(mask)[0].tolist())
    users = instance.users
    return frozenset(
        u
        for u in range(instance.num_users)
        if instance.utility(event_id, u) > 0.0
        and instance.round_trip_cost(u, event_id) <= users[u].budget
    )


def _commit(instance: USEPInstance) -> None:
    """Post-mutation invalidation shared by every (non-noop) mutation."""
    instance._fingerprint_cache = None  # noqa: SLF001
    instance._version += 1  # noqa: SLF001


def _noop(instance: USEPInstance, kind: str) -> DeltaReport:
    return DeltaReport(
        kind=kind,
        dirty_users=frozenset(),
        version=instance.version,
        noop=True,
    )


def _rebuild_event_arrays(instance: USEPInstance, arrays) -> None:
    """Refresh the event-derived arrays and lists after an event-set change.

    The same constructions :class:`InstanceArrays.__init__` runs, fed
    from the (already updated) instance content and caches — so every
    refreshed field is bit-identical to a from-scratch build.
    """
    arrays.mu = instance.utility_matrix()
    arrays.vv_cols = vv_columns(instance)
    arrays.order = np.asarray(instance.sorted_event_ids, dtype=np.intp)
    arrays.pos_list = list(instance.sorted_position)


def _rebuild_index(instance: USEPInstance, engine) -> bool:
    """Vectorised full index rebuild (event-set mutations only)."""
    if engine is None or not engine._index_built:  # noqa: SLF001
        return False
    if engine._index is None:  # noqa: SLF001
        return False
    engine._index = CandidateIndex(instance)  # noqa: SLF001
    return True


# ----------------------------------------------------------------------
# per-kind application
# ----------------------------------------------------------------------


def _apply_utility_change(
    instance: USEPInstance, mutation: UtilityChange
) -> DeltaReport:
    path = "utility_change"
    v = _check_event_id(instance, mutation.event_id, path)
    u = _check_user_id(instance, mutation.user_id, path)
    value = _check_utility(mutation.utility, path)
    old = float(instance._mu[v, u])  # noqa: SLF001
    if value == old:
        return _noop(instance, path)
    # Dirty iff the edit can enter the user's candidate view: the event
    # must fit the budget, and the utility must be positive on at least
    # one side (0 -> 0.3 adds a candidate, 0.3 -> 0 removes one,
    # 0.3 -> 0.5 changes its utility; an infeasible event enters no
    # view at any utility).
    feasible = (
        instance.round_trip_cost(u, v) <= instance.users[u].budget
    )
    dirty = (
        frozenset((u,))
        if feasible and (old > 0.0 or value > 0.0)
        else frozenset()
    )
    instance._mu[v, u] = value  # noqa: SLF001
    arrays, engine, index = _layers(instance)
    if arrays is not None:
        # Re-point rather than trust arrays.mu to alias _mu: a deepcopy
        # or pickle round trip turns the view into a separate array.
        arrays.mu = instance.utility_matrix()
    if index is not None:
        # Refresh even when clean: the positive-pair diagnostics count
        # mu > 0 cells regardless of feasibility.
        index.refresh_user(arrays, u)
    memo_evicted = engine.memo.evict_users(dirty) if engine is not None else 0
    _commit(instance)
    return DeltaReport(path, dirty, instance.version, memo_evicted)


def _apply_budget_change(
    instance: USEPInstance, mutation: BudgetChange
) -> DeltaReport:
    path = "budget_change"
    u = _check_user_id(instance, mutation.user_id, path)
    old_user = instance.users[u]
    try:
        new_user = dataclasses.replace(old_user, budget=mutation.budget)
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"{path}: {exc}") from exc
    if new_user.budget == old_user.budget:
        return _noop(instance, path)
    users = list(instance.users)
    users[u] = new_user
    instance.users = tuple(users)
    arrays, engine, index = _layers(instance)
    if arrays is not None:
        arrays.budgets[u] = new_user.budget
    if index is not None:
        index.refresh_user(arrays, u)
    # Always dirty: the budget value itself is a DP input (the
    # threshold walk in dp_single), even when no candidate crosses the
    # feasibility boundary — a memo hit on an unchanged view would
    # replay a schedule computed under the old budget.
    dirty = frozenset((u,))
    memo_evicted = engine.memo.evict_users(dirty) if engine is not None else 0
    _commit(instance)
    return DeltaReport(path, dirty, instance.version, memo_evicted)


def _apply_capacity_change(
    instance: USEPInstance, mutation: CapacityChange
) -> DeltaReport:
    path = "capacity_change"
    v = _check_event_id(instance, mutation.event_id, path)
    old_event = instance.events[v]
    try:
        new_event = dataclasses.replace(old_event, capacity=mutation.capacity)
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"{path}: {exc}") from exc
    if new_event.capacity == old_event.capacity:
        return _noop(instance, path)
    # Dirty: every user with the event in their candidate view — their
    # Step-1 decomposed views depend on the event's pseudo-copy pool
    # (saturation point, steal values).  The candidate index itself is
    # capacity-independent, so no index work.
    dirty = _survivor_set(instance, v)
    events = list(instance.events)
    events[v] = new_event
    instance.events = tuple(events)
    _, engine, _ = _layers(instance)
    memo_evicted = engine.memo.evict_users(dirty) if engine is not None else 0
    _commit(instance)
    return DeltaReport(path, dirty, instance.version, memo_evicted)


def _apply_add_user(instance: USEPInstance, mutation: AddUser) -> DeltaReport:
    path = "add_user"
    new_id = instance.num_users
    try:
        user = User(
            id=new_id,
            location=(float(mutation.location[0]), float(mutation.location[1])),
            budget=mutation.budget,
            name=mutation.name,
        )
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidInstanceError(f"{path}: {exc}") from exc
    column = _check_utilities(
        mutation.utilities, instance.num_events, f"{path}.utilities"
    )
    instance.users = instance.users + (user,)
    instance._mu = np.concatenate(  # noqa: SLF001
        [instance._mu, column[:, None]], axis=1  # noqa: SLF001
    )
    arrays, _, index = _layers(instance)
    if arrays is not None:
        arrays.mu = instance.utility_matrix()
        arrays.budgets = np.append(arrays.budgets, float(user.budget))
        if arrays.to_events is not None:
            # O(|V|) cost-model calls for the one new user — the same
            # calls (and caching) a from-scratch arrays build makes.
            to_row = np.asarray(instance.costs_to_events(new_id), dtype=float)
            from_row = np.asarray(
                instance.costs_from_events(new_id), dtype=float
            )
            arrays.to_events = np.vstack([arrays.to_events, to_row[None, :]])
            arrays.from_events = np.vstack(
                [arrays.from_events, from_row[None, :]]
            )
            arrays.round_trip = np.vstack(
                [arrays.round_trip, (to_row + from_row)[None, :]]
            )
    if index is not None:
        index.append_user(arrays)
    dirty = frozenset((new_id,))
    _commit(instance)
    return DeltaReport(path, dirty, instance.version)


def _apply_drop_user(instance: USEPInstance, mutation: DropUser) -> DeltaReport:
    path = "drop_user"
    u = _check_user_id(instance, mutation.user_id, path)
    instance.users = tuple(
        old if old.id < u else dataclasses.replace(old, id=old.id - 1)
        for old in instance.users
        if old.id != u
    )
    instance._mu = np.delete(instance._mu, u, axis=1)  # noqa: SLF001
    for cache in (
        instance._to_event_cache,  # noqa: SLF001
        instance._from_event_cache,  # noqa: SLF001
    ):
        shifted = {
            (uid - 1 if uid > u else uid): row
            for uid, row in cache.items()
            if uid != u
        }
        cache.clear()
        cache.update(shifted)
    arrays, engine, index = _layers(instance)
    if arrays is not None:
        arrays.mu = instance.utility_matrix()
        arrays.budgets = np.delete(arrays.budgets, u)
        if arrays.to_events is not None:
            arrays.to_events = np.delete(arrays.to_events, u, axis=0)
            arrays.from_events = np.delete(arrays.from_events, u, axis=0)
            arrays.round_trip = np.delete(arrays.round_trip, u, axis=0)
    if index is not None:
        index.remove_user(u)
    memo_evicted = 0
    if engine is not None:
        memo_evicted = engine.memo.evict_users(frozenset((u,)))
        engine.memo.drop_user(u)
    _commit(instance)
    # Remaining users' candidate views are unchanged (their ids shift,
    # their content does not), so nobody re-solves.
    return DeltaReport(path, frozenset(), instance.version, memo_evicted)


def _apply_add_event(instance: USEPInstance, mutation: AddEvent) -> DeltaReport:
    path = "add_event"
    new_id = instance.num_events
    try:
        event = Event(
            id=new_id,
            location=(float(mutation.location[0]), float(mutation.location[1])),
            capacity=mutation.capacity,
            interval=TimeInterval(mutation.start, mutation.end),
            name=mutation.name,
        )
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidInstanceError(f"{path}: {exc}") from exc
    row = _check_utilities(
        mutation.utilities, instance.num_users, f"{path}.utilities"
    )
    instance.events = instance.events + (event,)
    instance._mu = np.vstack([instance._mu, row[None, :]])  # noqa: SLF001
    model = instance.cost_model
    if instance._vv_cost is not None:  # noqa: SLF001
        # In place on the instance's row lists (the arrays' column lists
        # are rebuilt from them below): append the new column to every
        # row, then the new row.
        for a_id, row_list in enumerate(instance._vv_cost):  # noqa: SLF001
            row_list.append(model.event_to_event(instance.events[a_id], event))
        instance._vv_cost.append(  # noqa: SLF001
            [model.event_to_event(event, b) for b in instance.events]
        )
    for uid, row_list in instance._to_event_cache.items():  # noqa: SLF001
        row_list.append(model.user_to_event(instance.users[uid], event))
    for uid, row_list in instance._from_event_cache.items():  # noqa: SLF001
        row_list.append(model.event_to_user(event, instance.users[uid]))
    instance._rebuild_event_order()  # noqa: SLF001
    arrays, engine, index = _layers(instance)
    if arrays is not None:
        _rebuild_event_arrays(instance, arrays)
        if arrays.to_events is not None:
            num_users = instance.num_users
            to_col = np.empty(num_users, dtype=float)
            from_col = np.empty(num_users, dtype=float)
            for uid in range(num_users):
                # Cached rows are complete whenever arrays exist (the
                # arrays build filled every user); [-1] is the new leg.
                to_col[uid] = instance.costs_to_events(uid)[-1]
                from_col[uid] = instance.costs_from_events(uid)[-1]
            arrays.to_events = np.concatenate(
                [arrays.to_events, to_col[:, None]], axis=1
            )
            arrays.from_events = np.concatenate(
                [arrays.from_events, from_col[:, None]], axis=1
            )
            arrays.round_trip = np.concatenate(
                [arrays.round_trip, (to_col + from_col)[:, None]], axis=1
            )
    index_rebuilt = _rebuild_index(instance, engine)
    dirty = _survivor_set(instance, new_id)
    memo_evicted = 0
    if engine is not None:
        memo_evicted = engine.memo.evict_users(dirty)
    _commit(instance)
    return DeltaReport(
        path, dirty, instance.version, memo_evicted, index_rebuilt
    )


def _apply_drop_event(
    instance: USEPInstance, mutation: DropEvent
) -> DeltaReport:
    path = "drop_event"
    v = _check_event_id(instance, mutation.event_id, path)
    # Dirty set from the *pre-drop* content: users who could see v.
    dirty = _survivor_set(instance, v)
    instance.events = tuple(
        old if old.id < v else dataclasses.replace(old, id=old.id - 1)
        for old in instance.events
        if old.id != v
    )
    instance._mu = np.delete(instance._mu, v, axis=0)  # noqa: SLF001
    if instance._vv_cost is not None:  # noqa: SLF001
        del instance._vv_cost[v]  # noqa: SLF001
        for row_list in instance._vv_cost:  # noqa: SLF001
            del row_list[v]
    for cache in (
        instance._to_event_cache,  # noqa: SLF001
        instance._from_event_cache,  # noqa: SLF001
    ):
        for row_list in cache.values():
            del row_list[v]
    instance._rebuild_event_order()  # noqa: SLF001
    arrays, engine, index = _layers(instance)
    if arrays is not None:
        _rebuild_event_arrays(instance, arrays)
        if arrays.to_events is not None:
            arrays.to_events = np.delete(arrays.to_events, v, axis=1)
            arrays.from_events = np.delete(arrays.from_events, v, axis=1)
            arrays.round_trip = np.delete(arrays.round_trip, v, axis=1)
    index_rebuilt = _rebuild_index(instance, engine)
    memo_evicted = 0
    if engine is not None:
        memo_evicted = engine.memo.evict_users(dirty)
        memo_evicted += engine.memo.remap_dropped_event(v)
    _commit(instance)
    return DeltaReport(
        path, dirty, instance.version, memo_evicted, index_rebuilt
    )


_APPLIERS = {
    UtilityChange: _apply_utility_change,
    BudgetChange: _apply_budget_change,
    CapacityChange: _apply_capacity_change,
    AddUser: _apply_add_user,
    DropUser: _apply_drop_user,
    AddEvent: _apply_add_event,
    DropEvent: _apply_drop_event,
}


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------


def apply_mutation(instance: USEPInstance, mutation: Mutation) -> DeltaReport:
    """Apply one typed mutation in place; returns its :class:`DeltaReport`.

    Raises :class:`InvalidInstanceError` (instance untouched) when the
    mutation is structurally invalid for the current content.
    """
    applier = _APPLIERS.get(type(mutation))
    if applier is None:
        raise InvalidInstanceError(
            f"unknown mutation type {type(mutation).__name__}"
        )
    return applier(instance, mutation)


def apply_mutations(
    instance: USEPInstance, mutations: Iterable[Mutation]
) -> List[DeltaReport]:
    """Apply a mutation stream in order; reports in application order.

    Stops at (and re-raises) the first invalid mutation — everything
    before it stays applied, mirroring the sequential semantics of a
    churn stream.  Callers needing atomicity should validate against a
    copy first.
    """
    reports: List[DeltaReport] = []
    for mutation in mutations:
        reports.append(apply_mutation(instance, mutation))
    return reports


def dirty_union(reports: Sequence[DeltaReport]) -> FrozenSet[int]:
    """Union of the dirty sets of a report list.

    Best-effort diagnostic only: user ids are *post-mutation* ids of
    their own step, so a stream that drops users renumbers later ids
    and the union is not meaningful across such a stream.
    """
    out: FrozenSet[int] = frozenset()
    for report in reports:
        out = out | report.dirty_users
    return out
