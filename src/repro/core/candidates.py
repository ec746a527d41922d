"""The incremental scheduling engine: candidate index + schedule memo.

The decomposition solvers (Algorithms 3/4) call the single-user
scheduler once per user, and solves repeat on the same instance — the
+RG composition re-runs its base, the degradation ladder re-runs rungs,
a delta re-solve follows each mutation.  Two per-instance structures
cut the redundant work while keeping plannings **bit-identical**
(golden-tested against the ``*-seed`` twins):

:class:`CandidateIndex`
    For every user, the candidate events surviving Lemma 1 (round-trip
    cost within budget) *and* the positive-utility filter, pre-sorted
    in the global end-time order.  Both filters are applied inside
    every ``dp_single``/``greedy_single`` call today; precomputing them
    once per instance is sound because a pruned candidate can never
    appear in any schedule (the schedulers drop it anyway), so the
    pseudo-event pool state evolves identically.  Built only when the
    instance caches user costs — with ``cache_user_costs=False`` the
    per-user lists would break the instance's bounded-memory contract,
    so the solvers fall back to their per-call filtering path.

:class:`ScheduleMemo`
    Per ``(scheduler kind, user)``, the *last* candidate view (the
    candidate ids plus their decomposed utilities) and the schedule the
    scheduler returned for it.  A user whose view is unchanged since
    their last call is *clean* — the memoized schedule is returned
    without rescheduling.  Single-user scheduling is a pure function of
    ``(instance, user, view)``, so the reuse is exact; a dirty user
    (any candidate utility changed) simply misses and recomputes.  Only
    the last view is kept, bounding the memo at ``O(|U|)`` entries.
    A repeat solve still runs Step 1's scan and Step 2; only the
    clean users' scheduler calls are skipped.

:class:`IncrementalEngine` bundles the two; solvers obtain it through
:meth:`repro.core.arrays.InstanceArrays.engine`, so it is built lazily
once per instance and shared by every solver that runs on it (and by
every adopter of the cross-cell build cache, see
:mod:`repro.core.build_cache`).  The seed twins never touch it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import instrument

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instance import USEPInstance

#: A candidate view: ``(candidate ids, their utilities)`` in the order
#: the scheduler receives them.  Exact float equality on purpose — the
#: memo must never equate views a scheduler could tell apart.
View = Tuple[Tuple[int, ...], Tuple[float, ...]]


def view_key(candidates: Sequence[int], utilities: Dict[int, float]) -> View:
    """The memo key of one scheduler call's candidate view."""
    return (tuple(candidates), tuple(map(utilities.__getitem__, candidates)))


class CandidateIndex:
    """Per-user feasibility-pruned candidate lists, in end-time order.

    Attributes:
        per_user: ``per_user[u]`` — event ids with ``mu(v, u) > 0`` and
            ``cost(u,v) + cost(v,u) <= b_u``, sorted by the instance's
            global ``(end, start, id)`` order (``arrays.pos``).
        per_user_np: The same lists as intp arrays (fast gathers for
            the Step-1 scan in :mod:`repro.algorithms.decomposed`).
        positive_pairs: Count of ``mu(v, u) > 0`` pairs.
        pruned_pairs: Positive-utility pairs dropped by Lemma 1 — work
            the per-call filters no longer touch.
        survivor_pairs: ``positive_pairs - pruned_pairs``.
    """

    __slots__ = (
        "per_user",
        "per_user_np",
        "positive_pairs",
        "pruned_pairs",
        "survivor_pairs",
        "_pos_counts",
    )

    def __init__(self, instance: "USEPInstance"):
        arrays = instance.arrays()
        num_users = instance.num_users
        num_events = instance.num_events
        if not num_users or not num_events or arrays.round_trip is None:
            self.per_user: List[List[int]] = [[] for _ in range(num_users)]
            self.per_user_np: List[np.ndarray] = [
                np.empty(0, dtype=np.intp) for _ in range(num_users)
            ]
            self.positive_pairs = 0
            self.pruned_pairs = 0
            self.survivor_pairs = 0
            self._pos_counts: List[int] = [0] * num_users
            return
        order = arrays.order
        budgets = arrays.budgets
        # Columns permuted into the global end-time order, so nonzero()
        # below yields each user's survivors already pos-sorted.
        positive = arrays.mu[order, :].T > 0.0  # (|U|, |V|)
        # float64 '+' and '<=' match the schedulers' scalar Python-float
        # checks bit for bit (same IEEE doubles, same operations).
        feasible = arrays.round_trip[:, order] <= budgets[:, None]
        mask = positive & feasible
        users_nz, slots = np.nonzero(mask)
        bounds = np.searchsorted(users_nz, np.arange(1, num_users))
        survivors_by_user = np.split(order[slots], bounds)
        self.per_user = [chunk.tolist() for chunk in survivors_by_user]
        self.per_user_np = list(survivors_by_user)
        self._pos_counts = positive.sum(axis=1).tolist()
        self.positive_pairs = int(positive.sum())
        self.survivor_pairs = int(len(slots))
        self.pruned_pairs = self.positive_pairs - self.survivor_pairs

    # ------------------------------------------------------------------
    # incremental maintenance (see repro.core.deltas)
    # ------------------------------------------------------------------
    def _build_row(self, arrays, user_id: int) -> Tuple[np.ndarray, int]:
        """One user's survivors and positive-pair count from current content.

        The same elementwise float64 comparisons as the vectorised
        ``__init__`` path, restricted to one row — a refreshed row is
        therefore bit-identical to what a from-scratch build computes.
        """
        order = arrays.order
        mu = arrays.mu
        positive_row = mu[order, user_id] > 0.0
        feasible_row = arrays.round_trip[user_id, order] <= arrays.budgets[user_id]
        survivors = order[np.nonzero(positive_row & feasible_row)[0]]
        return survivors, int(positive_row.sum())

    def refresh_user(self, arrays, user_id: int) -> None:
        """Re-derive one user's row in place."""
        survivors, pos_count = self._build_row(arrays, user_id)
        self.positive_pairs += pos_count - self._pos_counts[user_id]
        self.survivor_pairs += len(survivors) - len(self.per_user[user_id])
        self._pos_counts[user_id] = pos_count
        self.per_user[user_id] = survivors.tolist()
        self.per_user_np[user_id] = survivors
        self.pruned_pairs = self.positive_pairs - self.survivor_pairs

    def append_user(self, arrays) -> None:
        """Add the row of a just-appended user (id ``len(per_user)``)."""
        user_id = len(self.per_user)
        survivors, pos_count = self._build_row(arrays, user_id)
        self.per_user.append(survivors.tolist())
        self.per_user_np.append(survivors)
        self._pos_counts.append(pos_count)
        self.positive_pairs += pos_count
        self.survivor_pairs += len(survivors)
        self.pruned_pairs = self.positive_pairs - self.survivor_pairs

    def remove_user(self, user_id: int) -> None:
        """Drop one user's row; later rows keep their (shifted) content."""
        self.positive_pairs -= self._pos_counts[user_id]
        self.survivor_pairs -= len(self.per_user[user_id])
        self.pruned_pairs = self.positive_pairs - self.survivor_pairs
        del self.per_user[user_id]
        del self.per_user_np[user_id]
        del self._pos_counts[user_id]


class ScheduleMemo:
    """Last-view schedule memo of the single-user schedulers."""

    __slots__ = ("_last", "hits", "misses")

    def __init__(self) -> None:
        #: ``(kind, user) -> (view, schedule)``; ``kind`` separates the
        #: DP and greedy schedulers (same view, different schedules).
        self._last: Dict[Tuple[str, int], Tuple[View, Tuple[int, ...]]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, user_id: int, view: View) -> Optional[Tuple[int, ...]]:
        """The memoized schedule when the user is clean, else None."""
        entry = self._last.get((kind, user_id))
        if entry is not None and entry[0] == view:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def put(
        self, kind: str, user_id: int, view: View, schedule: Sequence[int]
    ) -> Tuple[int, ...]:
        """Record the scheduler's answer for the user's current view."""
        stored = tuple(schedule)
        self._last[(kind, user_id)] = (view, stored)
        return stored

    def stats(self) -> Dict[str, int]:
        """Lifetime hit/miss counts (always tracked; two int adds)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._last)}

    # ------------------------------------------------------------------
    # incremental maintenance (see repro.core.deltas)
    # ------------------------------------------------------------------
    def evict_users(self, user_ids) -> int:
        """Drop every entry (both kinds) of the given users; count removed."""
        if not user_ids:
            return 0
        stale = [key for key in self._last if key[1] in user_ids]
        for key in stale:
            del self._last[key]
        return len(stale)

    def drop_user(self, user_id: int) -> None:
        """Remove one user's entries and shift higher user ids down.

        Sound because a memo entry's content (candidate event ids,
        utilities, schedule) never mentions the *user id* — dropping a
        user renumbers later users but leaves their candidate views and
        schedules untouched, so entry ``(kind, w)`` is exactly entry
        ``(kind, w-1)`` of the renumbered instance.
        """
        rebuilt: Dict[Tuple[str, int], Tuple[View, Tuple[int, ...]]] = {}
        for (kind, uid), entry in self._last.items():
            if uid == user_id:
                continue
            rebuilt[(kind, uid - 1 if uid > user_id else uid)] = entry
        self._last = rebuilt

    def remap_dropped_event(self, event_id: int) -> int:
        """Renumber event ids above a dropped event in surviving entries.

        Entries whose candidate view contains the dropped event are
        removed (their owners are in the mutation's dirty set and
        re-solve anyway); every other entry keeps its utilities and
        schedule but with event ids above ``event_id`` shifted down —
        the renumbered instance presents exactly that view, so clean
        users keep memo-hitting.  Returns entries removed.
        """
        rebuilt: Dict[Tuple[str, int], Tuple[View, Tuple[int, ...]]] = {}
        removed = 0
        for key, (view, schedule) in self._last.items():
            cands = view[0]
            # A schedule is a subset of its view's candidates, so one
            # containment check covers both tuples.
            if event_id in cands:
                removed += 1
                continue
            if any(ev > event_id for ev in cands):
                cands = tuple(ev - 1 if ev > event_id else ev for ev in cands)
                schedule = tuple(
                    ev - 1 if ev > event_id else ev for ev in schedule
                )
                view = (cands, view[1])
            rebuilt[key] = (view, schedule)
        self._last = rebuilt
        return removed


class IncrementalEngine:
    """The per-instance incremental state shared by the solvers."""

    __slots__ = ("instance", "memo", "_index", "_index_built")

    def __init__(self, instance: "USEPInstance"):
        self.instance = instance
        self.memo = ScheduleMemo()
        self._index: Optional[CandidateIndex] = None
        self._index_built = False

    def forget_solves(self) -> None:
        """Empty the schedule memo.

        The candidate index stays (it depends on content alone), so the
        next solve runs Step 1 cold, as in a process that never solved.
        """
        self.memo = ScheduleMemo()

    @property
    def index(self) -> Optional[CandidateIndex]:
        """The candidate index, built on first use.

        ``None`` when the instance does not cache user costs — the
        index needs the round-trip matrix and per-user lists, both of
        which the bounded-memory contract forbids persisting.
        """
        if not self._index_built:
            self._index_built = True
            if self.instance._cache_user_costs:  # noqa: SLF001 - engine is core-internal
                self._index = CandidateIndex(self.instance)
                prof = instrument.active()
                if prof is not None:
                    prof.add("index_builds")
        return self._index

    def schedule(
        self,
        kind: str,
        scheduler,
        user_id: int,
        candidates: Sequence[int],
        utilities: Dict[int, float],
        presorted: bool,
    ) -> Sequence[int]:
        """Scheduler call with dirty-checking: memo hit when the user's
        candidate view is unchanged since their last ``kind`` call."""
        view = view_key(candidates, utilities)
        cached = self.memo.get(kind, user_id, view)
        if cached is not None:
            return cached
        schedule = scheduler(
            self.instance, user_id, candidates, utilities, presorted=presorted
        )
        return self.memo.put(kind, user_id, view, schedule)


def get_engine(instance: "USEPInstance") -> IncrementalEngine:
    """The instance's cached engine (built on first use)."""
    return instance.arrays().engine()
