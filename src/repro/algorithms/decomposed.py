"""The space-optimised two-step framework shared by DeDPO and DeGreedy.

Lemma 2 shows the decomposed utility of a pseudo-event only ever depends
on its *last* owner: ``mu^r(v_{i,k}, u) = mu(v_i, u) - mu(v_i, u_last)``
(or plain ``mu(v_i, u)`` while unselected).  Algorithm 4 therefore
replaces DeDP's ``O(|V| |U| max c_v)`` tensor with a ``select(v_i, k)``
array recording the current owner of each pseudo-copy; step 2 collapses
to "give ``v_i`` to ``select(v_i, k)``".

Per event the framework must pick, each iteration, the pseudo-copy with
the largest decomposed utility (Algorithm 4 line 5).  Because utilities
are non-negative, an *unselected* copy (value ``mu(v_i, u_r)``) always
weakly dominates stealing a selected one (value ``mu(v_i, u_r) -
mu(v_i, owner)``), and among selected copies the best steal minimises
``mu(v_i, owner)``.  We track a monotone "next free copy" pointer and a
lazy min-heap of ``(mu(v_i, owner), k)`` per event, so the per-iteration
pick costs O(log c_v) amortised instead of O(c_v).

The single-user scheduler is pluggable: DPSingle yields **DeDPO**
(identical plannings to DeDP — same tie-breaking throughout), and
GreedySingle yields **DeGreedy** (Section 4.4).

Step 1 runs through the incremental scheduling engine
(:mod:`repro.core.candidates`, ``docs/performance.md``): the per-user
candidate scan walks the precomputed Lemma 1 candidate index (events
with positive utility whose round trip fits the budget, already in
end-time order), so the scheduler receives pre-pruned candidate arrays;
and each scheduler call is dirty-checked against the user's last
candidate view, so a re-solve on the same instance reschedules only
users whose decomposed utilities actually changed.  Both layers are
planning-neutral: pruned candidates could never be scheduled, and the
memo only replays answers for bit-identical views.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import deadline, instrument
from ..core.instance import USEPInstance
from ..core.planning import Planning
from .base import Solver
from .dp_single import dp_single
from .greedy_single import greedy_single

#: Signature shared by dp_single / greedy_single.
SingleScheduler = Callable[
    [USEPInstance, int, Sequence[int], Dict[int, float]], List[int]
]


class _PseudoEventPool:
    """Ownership state of one event's pseudo-copies (the ``select`` row)."""

    __slots__ = ("capacity", "owners", "next_free", "steal_heap")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.owners: List[Optional[int]] = [None] * capacity
        self.next_free = 0  # copies are consumed in k order; never freed
        self.steal_heap: List[Tuple[float, int]] = []  # (mu(v, owner), k), lazy

    def pick(self, mu_vr: float, event_utils_row: Sequence[float]) -> Tuple[int, float]:
        """Best copy for the current user and its decomposed utility.

        Args:
            mu_vr: ``mu(v_i, u_r)`` of the current user.
            event_utils_row: ``mu(v_i, u)`` for all users (to validate
                lazy heap entries).

        Returns:
            ``(k, mu_prime)`` — the chosen copy index and the Algorithm 4
            line 6 value ``mu'(v_hat_i)``.
        """
        if self.next_free < self.capacity:
            return self.next_free, mu_vr
        owner_mu, k = self.peek_steal(event_utils_row)
        return k, mu_vr - owner_mu

    def peek_steal(self, event_utils_row: Sequence[float]) -> Tuple[float, int]:
        """Validated heap top ``(mu(v, owner), k)`` of a saturated pool.

        The heap is lazy: entries whose copy was re-stolen since are
        stale and get popped here.  The returned pair stays valid until
        the next :meth:`assign` to this pool, which is what lets the
        Step-1 scan cache per-pool steal values between assigns instead
        of re-validating the heap once per (user, candidate) pair.
        """
        heap = self.steal_heap
        while heap:
            owner_mu, k = heap[0]
            owner = self.owners[k]
            if owner is not None and event_utils_row[owner] == owner_mu:
                return owner_mu, k
            heapq.heappop(heap)  # stale: the copy was re-stolen since
        # Unreachable when capacity > 0: every selected copy has a live
        # heap entry by construction.
        raise AssertionError("pseudo-event pool invariant broken")

    def assign(self, k: int, user_id: int, mu_owner: float) -> None:
        """Record that ``user_id`` now holds copy ``k``."""
        self.owners[k] = user_id
        if k == self.next_free:
            self.next_free += 1
        heapq.heappush(self.steal_heap, (mu_owner, k))


class DecomposedSolver(Solver):
    """Algorithm 4 skeleton with a pluggable single-user scheduler."""

    name = "Decomposed"

    def __init__(
        self, single_scheduler: SingleScheduler, memo_kind: Optional[str] = None
    ):
        self._single_scheduler = single_scheduler
        #: Memo namespace of the scheduler ("dp" / "greedy"); ``None``
        #: disables the incremental engine's memo + presorted fast path
        #: (used by schedulers with their own filtering, e.g. the dense
        #: DP ablation, whose tie-breaking must not share a namespace).
        self._memo_kind = memo_kind
        self.counters: Dict[str, int] = {}

    def solve(self, instance: USEPInstance) -> Planning:
        num_events = instance.num_events
        num_users = instance.num_users
        engine = instance.arrays().engine()
        memo_kind = self._memo_kind
        pools = [
            _PseudoEventPool(instance.clamped_capacity(i)) for i in range(num_events)
        ]
        event_utils: List[Sequence[float]] = [
            instance.utilities_for_event(i) for i in range(num_events)
        ]

        # Step 1 (lines 3-10): schedule each user against the decomposed
        # utilities implied by the current `select` state.  Events with
        # mu(v_i, u_r) <= 0 can never yield a positive mu' (stealing only
        # subtracts a positive owner utility), and events failing Lemma 1
        # can never be scheduled — the candidate index precomputes both
        # filters per user, in end-time order.  Where the index is
        # unavailable (user-cost caching disabled) the scan falls back to
        # the positive entries of the utility column, grouped per user
        # upfront with a single nonzero pass.
        index = engine.index if memo_kind is not None else None
        prof = instrument.active()
        if index is not None:
            per_user_candidates: List[List[int]] = index.per_user
            presorted = True
            if prof is not None:
                prof.add("candidates_pruned_lemma1", index.pruned_pairs)
                prof.add("candidates_surviving", index.survivor_pairs)
        else:
            mu = instance.arrays().mu
            if num_users and num_events:
                users_nz, events_nz = np.nonzero(mu.T > 0.0)
                bounds = np.searchsorted(users_nz, np.arange(1, num_users))
                per_user_candidates = [
                    chunk.tolist() for chunk in np.split(events_nz, bounds)
                ]
            else:
                per_user_candidates = [[] for _ in range(num_users)]
            presorted = False
        memo_hits0, memo_misses0 = engine.memo.hits, engine.memo.misses
        scheduler_calls = 0
        reassignments = 0

        # Steal-cached vectorised scan: a pool's decomposed-utility
        # offset (``mu(v_i, owner)`` of its best steal) only changes
        # when a copy is assigned, so between assigns the per-user scan
        # can gather cached offsets with one numpy fancy-index instead
        # of validating every candidate pool's heap per user.  The
        # resulting views and schedules are bit-identical to the
        # per-candidate ``pick`` scan below, which remains for the
        # index-less fallback.
        fast_scan = index is not None
        if fast_scan:
            mu_arr = instance.arrays().mu
            memo = engine.memo
            per_user_np = index.per_user_np
            sat_mask = np.zeros(num_events, dtype=bool)
            steal_mu = np.zeros(num_events, dtype=float)
            steal_k = np.zeros(num_events, dtype=np.intp)

            def note_assigned(event_id: int, pool: _PseudoEventPool) -> None:
                if pool.next_free >= pool.capacity:
                    owner_mu, k = pool.peek_steal(event_utils[event_id])
                    steal_mu[event_id] = owner_mu
                    steal_k[event_id] = k
                    sat_mask[event_id] = True

        for r in range(num_users):
            deadline.check()
            scheduler_calls += 1
            if fast_scan:
                cands = per_user_np[r]
                if cands.size:
                    prime = mu_arr[cands, r] - np.where(
                        sat_mask[cands], steal_mu[cands], 0.0
                    )
                    pos = prime > 0.0
                    kept = cands[pos].tolist()
                    vals = prime[pos].tolist()
                else:
                    kept = []
                    vals = []
                view = (tuple(kept), tuple(vals))
                schedule = memo.get(memo_kind, r, view)
                if schedule is None:
                    schedule = memo.put(
                        memo_kind,
                        r,
                        view,
                        self._single_scheduler(
                            instance,
                            r,
                            kept,
                            dict(zip(kept, vals)),
                            presorted=presorted,
                        ),
                    )
                for event_id in schedule:
                    pool = pools[event_id]
                    if pool.next_free < pool.capacity:
                        k = pool.next_free
                    else:
                        k = steal_k[event_id]
                        reassignments += 1
                    pool.assign(k, r, event_utils[event_id][r])
                    note_assigned(event_id, pool)
                continue
            candidates: List[int] = []
            utilities: Dict[int, float] = {}
            chosen_k: Dict[int, int] = {}
            for i in per_user_candidates[r]:
                mu_vr = event_utils[i][r]
                k, mu_prime = pools[i].pick(mu_vr, event_utils[i])
                if mu_prime > 0.0:
                    candidates.append(i)
                    utilities[i] = mu_prime
                    chosen_k[i] = k
            if memo_kind is not None:
                schedule = engine.schedule(
                    memo_kind,
                    self._single_scheduler,
                    r,
                    candidates,
                    utilities,
                    presorted,
                )
            else:
                schedule = self._single_scheduler(instance, r, candidates, utilities)
            for event_id in schedule:
                k = chosen_k[event_id]
                pool = pools[event_id]
                if pool.owners[k] is not None:
                    reassignments += 1
                pool.assign(k, r, event_utils[event_id][r])

        # Step 2 (lines 11-14): each copy goes to its final owner.
        planning = Planning(instance)
        per_user_events: Dict[int, List[int]] = {}
        for event_id, pool in enumerate(pools):
            for owner in pool.owners:
                if owner is not None:
                    per_user_events.setdefault(owner, []).append(event_id)
        for user_id, event_ids in per_user_events.items():
            event_ids.sort(key=lambda ev: instance.events[ev].start)
            planning.set_schedule(user_id, event_ids)

        self.counters = {
            "scheduler_calls": scheduler_calls,
            "reassignments": reassignments,
            "selected_copies": sum(
                sum(owner is not None for owner in pool.owners) for pool in pools
            ),
        }
        if prof is not None:
            prof.add("sched_cache_hits", engine.memo.hits - memo_hits0)
            prof.add("sched_cache_misses", engine.memo.misses - memo_misses0)
        return planning


class DeDPO(DecomposedSolver):
    """DeDPO — Algorithm 4: DeDP's planning at optimised space/time."""

    name = "DeDPO"

    def __init__(self) -> None:
        super().__init__(dp_single, memo_kind="dp")


class DeGreedy(DecomposedSolver):
    """DeGreedy — Section 4.4: the framework with GreedySingle."""

    name = "DeGreedy"

    def __init__(self) -> None:
        super().__init__(greedy_single, memo_kind="greedy")
