"""RatioGreedy — Algorithm 1 of the paper.

The heuristic repeatedly adds the unarranged ``(event, user)`` pair with
the largest utility-cost ratio (Equation 2) whose addition keeps the
planning feasible.  The paper maintains a heap ``H`` holding, for every
event, its best valid user, and for every user, its best valid event;
after each addition the entries whose ``inc_cost`` changed (exactly the
pairs incident to the updated user) are recomputed (lines 12-20).

This implementation realises the same invariant with generation-stamped
heap entries and lazy invalidation:

* one ``'E'`` entry per event (its current best valid user) and one
  ``'U'`` entry per user (its current best valid event);
* a watcher index ``events_watching_user`` records which events' best
  entries reference which user, so that when ``S_u`` changes we refresh
  precisely the entries the paper's lines 15-18 refresh;
* every pop is re-validated against the live planning, so stale entries
  (event filled up, budget consumed) are replaced rather than applied.

The engine can be *seeded* with an existing planning and restricted to a
subset of events — that is how Section 4.3.2's ``+RG`` augmentation runs
RatioGreedy over the not-yet-full events of a DeDPO/DeGreedy planning.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core import deadline
from ..core.instance import USEPInstance
from ..core.planning import Planning
from .base import Solver, ratio_sort_key

_Key = Tuple[float, float, float, int, int]


class _RatioGreedyEngine:
    """One run of the greedy loop over a (possibly pre-filled) planning."""

    def __init__(
        self,
        instance: USEPInstance,
        planning: Planning,
        allowed_events: Optional[Iterable[int]] = None,
    ):
        self.instance = instance
        self.planning = planning
        if allowed_events is None:
            self.allowed: Set[int] = set(range(instance.num_events))
        else:
            self.allowed = set(allowed_events)
        self.heap: list = []
        self.event_gen = [0] * instance.num_events
        self.user_gen = [0] * instance.num_users
        self.events_watching_user: Dict[int, Set[int]] = {}
        self.event_watches: Dict[int, int] = {}  # event -> user it references
        self.counters = {"pairs_added": 0, "heap_pushes": 0, "stale_pops": 0}

    # ------------------------------------------------------------------
    # best-pair searches
    # ------------------------------------------------------------------
    def _pair_key(self, event_id: int, user_id: int) -> Optional[_Key]:
        insertion = self.planning.plan_valid_insertion(event_id, user_id)
        if insertion is None:
            return None
        mu = self.instance.utility(event_id, user_id)
        return ratio_sort_key(mu, insertion.inc_cost, event_id, user_id)

    def _best_user_for_event(self, event_id: int) -> Optional[Tuple[int, _Key]]:
        if event_id not in self.allowed or self.planning.is_full(event_id):
            return None
        utilities = self.instance.utilities_for_event(event_id)
        best: Optional[Tuple[int, _Key]] = None
        for user_id, mu in enumerate(utilities):
            if mu <= 0.0:
                continue
            key = self._pair_key(event_id, user_id)
            if key is not None and (best is None or key < best[1]):
                best = (user_id, key)
        return best

    def _best_event_for_user(self, user_id: int) -> Optional[Tuple[int, _Key]]:
        utilities = self.instance.utilities_for_user(user_id)
        best: Optional[Tuple[int, _Key]] = None
        for event_id in self.allowed:
            if utilities[event_id] <= 0.0 or self.planning.is_full(event_id):
                continue
            key = self._pair_key(event_id, user_id)
            if key is not None and (best is None or key < best[1]):
                best = (event_id, key)
        return best

    # ------------------------------------------------------------------
    # heap maintenance
    # ------------------------------------------------------------------
    def _unwatch(self, event_id: int) -> None:
        watched = self.event_watches.pop(event_id, None)
        if watched is not None:
            self.events_watching_user.get(watched, set()).discard(event_id)

    def _push_event_entry(self, event_id: int) -> None:
        self.event_gen[event_id] += 1
        self._unwatch(event_id)
        best = self._best_user_for_event(event_id)
        if best is None:
            return
        user_id, key = best
        self.event_watches[event_id] = user_id
        self.events_watching_user.setdefault(user_id, set()).add(event_id)
        heapq.heappush(
            self.heap, (key, "E", event_id, user_id, self.event_gen[event_id])
        )
        self.counters["heap_pushes"] += 1

    def _push_user_entry(self, user_id: int) -> None:
        self.user_gen[user_id] += 1
        best = self._best_event_for_user(user_id)
        if best is None:
            return
        event_id, key = best
        heapq.heappush(
            self.heap, (key, "U", user_id, event_id, self.user_gen[user_id])
        )
        self.counters["heap_pushes"] += 1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Planning:
        for event_id in sorted(self.allowed):
            self._push_event_entry(event_id)
        for user_id in range(self.instance.num_users):
            deadline.check()
            self._push_user_entry(user_id)

        while self.heap:
            deadline.check()
            key, kind, owner, partner, gen = heapq.heappop(self.heap)
            current_gen = (
                self.event_gen[owner] if kind == "E" else self.user_gen[owner]
            )
            if gen != current_gen:
                self.counters["stale_pops"] += 1
                continue
            event_id, user_id = (owner, partner) if kind == "E" else (partner, owner)

            live_key = self._pair_key(event_id, user_id)
            if live_key is None:
                # The referenced pair died (capacity/budget consumed
                # elsewhere); recompute the owner's best and move on.
                self.counters["stale_pops"] += 1
                if kind == "E":
                    self._push_event_entry(owner)
                else:
                    self._push_user_entry(owner)
                continue
            if live_key != key:
                # inc_cost drifted; re-queue at the correct priority.
                entry_gen = self.event_gen[owner] if kind == "E" else gen
                heapq.heappush(self.heap, (live_key, kind, owner, partner, entry_gen))
                self.counters["heap_pushes"] += 1
                continue

            insertion = self.planning.plan_valid_insertion(event_id, user_id)
            assert insertion is not None  # live_key proved validity just above
            self.planning.apply_insertion(user_id, insertion)
            self.counters["pairs_added"] += 1

            # Lines 12-14: next best user for the event (if seats remain).
            self._push_event_entry(event_id)
            # Lines 15-18: refresh every heap entry incident to this user,
            # whose inc_cost may have changed with the new schedule.
            for watcher in list(self.events_watching_user.get(user_id, ())):
                if watcher != event_id:
                    self._push_event_entry(watcher)
            # Lines 19-20: next best event for the user.
            self._push_user_entry(user_id)
        return self.planning


class RatioGreedy(Solver):
    """The stand-alone RatioGreedy heuristic (Algorithm 1)."""

    name = "RatioGreedy"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def solve(self, instance: USEPInstance) -> Planning:
        engine = _RatioGreedyEngine(instance, Planning(instance))
        planning = engine.run()
        self.counters = engine.counters
        return planning


def greedy_augment(
    planning: Planning, allowed_events: Optional[Iterable[int]] = None
) -> Dict[str, int]:
    """Run the RatioGreedy loop on top of an existing planning (in place).

    This is the ``+RG`` post-pass of Section 4.3.2: ``allowed_events``
    defaults to the events that still have spare capacity; incremental
    costs are computed against the already-arranged schedules.  Returns
    the engine counters (``pairs_added`` etc.).
    """
    instance = planning.instance
    if allowed_events is None:
        allowed_events = [
            v for v in range(instance.num_events) if not planning.is_full(v)
        ]
    engine = _RatioGreedyEngine(instance, planning, allowed_events)
    engine.run()
    return engine.counters
