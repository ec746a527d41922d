"""DeDP — Algorithm 3: the two-step Local-Ratio decomposition with DPSingle.

Step 1 decomposes USEP into ``|U|`` single-user problems.  Each event
``v_i`` is expanded into ``c_{v_i}`` *pseudo-events* of capacity 1; the
decomposed utility ``mu^r(v_{i,k}, u)`` starts at ``mu(v_i, u)`` and,
whenever iteration ``r`` schedules pseudo-event ``v_{i,k}`` for user
``u_r``, is reduced by ``mu^r(v_{i,k}, u_r)`` for every later user.  In
iteration ``r`` the algorithm picks, per event, the pseudo-copy with the
largest current utility for ``u_r``, keeps the positive ones (``V_r``)
and runs DPSingle.  Step 2 walks users from last to first and keeps each
pseudo-event only in the *last* schedule that contains it, restoring the
capacity constraint.  Theorem 3 proves the result is a 1/2-approximation.

This class is deliberately the *unoptimised* variant the paper measures:
it materialises the full ``mu^r`` tensor — here as one flat
``(sum c_{v_i}) x |U|`` float array with per-event row offsets — and
updates slices of it each iteration; that is the ``O(|V| |U| max c_v)``
memory the paper's memory plots show exploding.  The per-iteration
pseudo-copy argmax (Algorithm 3's line 5 selection) runs as two
``reduceat`` passes over the whole tensor column instead of ``|V|``
per-event ``argmax`` calls, with identical smallest-``k`` tie-breaking.
Use :class:`~repro.algorithms.decomposed.DeDPO` for identical plannings
at a fraction of the cost.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from ..core import deadline, instrument
from ..core.instance import USEPInstance
from ..core.planning import Planning
from .base import Solver
from .dp_single import dp_single


class DeDP(Solver):
    """Decomposed Dynamic Programming (1/2-approximation, unoptimised)."""

    name = "DeDP"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def solve(self, instance: USEPInstance) -> Planning:
        num_users = instance.num_users
        num_events = instance.num_events
        engine = instance.arrays().engine()
        # Line 1: clamp capacities to |U| before pseudo-event expansion.
        capacities = np.array(
            [instance.clamped_capacity(i) for i in range(num_events)], dtype=np.intp
        )

        # Line 2: mu^1(v_{i,k}, u) = mu(v_i, u) for every pseudo copy.
        # The full tensor, on purpose: rows offsets[i]..offsets[i+1] are
        # event i's pseudo-copies.
        mu = instance.arrays().mu
        mu_r = np.repeat(mu, capacities, axis=0) if num_events else np.zeros((0, 0))
        offsets = np.zeros(num_events + 1, dtype=np.intp)
        np.cumsum(capacities, out=offsets[1:])
        starts = offsets[:-1]
        offsets_list = offsets.tolist()
        total_copies = int(offsets[-1]) if num_events else 0

        # Step 1: per-user DP over the best pseudo-copies, through the
        # incremental engine: the Lemma 1 candidate index pre-prunes and
        # pre-sorts each user's candidate set (a pruned event can never
        # be scheduled, so the mu^r tensor evolves identically), and the
        # per-user DP is dirty-checked — an unchanged candidate view
        # replays the memoized schedule instead of re-running DPSingle.
        index = engine.index
        prof = instrument.active()
        if prof is not None and index is not None:
            prof.add("candidates_pruned_lemma1", index.pruned_pairs)
            prof.add("candidates_surviving", index.survivor_pairs)
        memo_hits0, memo_misses0 = engine.memo.hits, engine.memo.misses
        hat_schedules: List[List[Tuple[int, int]]] = []
        dp_calls = 0
        for r in range(num_users):
            deadline.check()
            if total_copies:
                column = mu_r[:, r]
                # Best copy value per event (one reduceat over the whole
                # tensor column instead of |V| per-event max calls).
                best = np.maximum.reduceat(column, starts)
                best_list = best.tolist()
                if index is not None:
                    candidates = [
                        i for i in index.per_user[r] if best_list[i] > 0.0
                    ]
                else:
                    candidates = np.nonzero(best > 0.0)[0].tolist()
            else:
                column = None
                candidates = []
                best_list = []
            utilities: Dict[int, float] = {i: best_list[i] for i in candidates}
            schedule = engine.schedule(
                "dp", dp_single, r, candidates, utilities, index is not None
            )
            dp_calls += 1
            hat: List[Tuple[int, int]] = []
            for event_id in schedule:
                # The chosen copy: ties -> smallest k, exactly the seed's
                # first-maximum scan (np.argmax returns the first hit).
                # Only scheduled events need it, so the k resolution is
                # deferred out of the per-user selection pass.
                lo = offsets_list[event_id]
                k = int(np.argmax(column[lo : offsets_list[event_id + 1]]))
                hat.append((event_id, k))
                # mu^{r+1}(v_{i,k}, u_j) = mu^r(...) - mu^r(v_{i,k}, u_r)
                # for all j > r.  (Column r itself is zeroed conceptually;
                # it is never read again, so we skip the write.)
                row = lo + k
                mu_r[row, r + 1 :] -= mu_r[row, r]
            hat_schedules.append(hat)

        # Step 2: keep each pseudo-event only in its last schedule.
        planning = Planning(instance)
        taken: Set[Tuple[int, int]] = set()
        removed_pairs = 0
        for r in range(num_users - 1, -1, -1):
            final_events: List[int] = []
            for event_id, k in hat_schedules[r]:
                if (event_id, k) in taken:
                    removed_pairs += 1
                    continue
                taken.add((event_id, k))
                final_events.append(event_id)
            if final_events:
                final_events.sort(key=lambda ev: instance.events[ev].start)
                planning.set_schedule(r, final_events)

        self.counters = {
            "dp_calls": dp_calls,
            "hat_pairs": sum(len(h) for h in hat_schedules),
            "removed_pairs": removed_pairs,
        }
        if prof is not None:
            prof.add("sched_cache_hits", engine.memo.hits - memo_hits0)
            prof.add("sched_cache_misses", engine.memo.misses - memo_misses0)
        return planning
