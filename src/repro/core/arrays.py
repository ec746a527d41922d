"""Array-backed compute layer shared by the solver hot paths.

The seed implementations of DeDP/DeDPO/DeGreedy repeat, once per user
and per :func:`~repro.algorithms.dp_single.dp_single` call, work that
only depends on the instance: building per-user cost rows, sorting the
candidate set by end time, and looking event-to-event legs up through a
method call per pair.  :class:`InstanceArrays` precomputes all of it
*once per instance*:

* the ``|V| x |V|`` event-to-event cost matrix (``inf`` = conflict),
  both as a numpy array and as the row lists the scalar kernels index;
* the ``|U| x |V|`` to-event / from-event cost matrices and their sum
  (the Lemma 1 round-trip pruning quantity) — built only when the
  instance caches user costs, so ``cache_user_costs=False`` keeps its
  bounded-memory contract;
* per-event start/end time arrays, the global end-time candidate order
  (ties by start then id) and its inverse permutation, and the global
  ``l_i`` predecessor index table of Equation (4).

Solvers obtain the layer through :meth:`USEPInstance.arrays`, which
caches it on the instance; :func:`~repro.algorithms.base.warm_instance`
materialises it before memory measurement so the arrays are attributed
to the input data, exactly like the seed's lazy cost caches.

Everything here is *derived* data.  The user matrices come from the
cost model's bulk methods (:meth:`~repro.core.costs.CostModel.user_event_matrix`
and :meth:`~repro.core.costs.CostModel.event_user_matrix`: one numpy
pass for a Manhattan grid, one scalar call per pair otherwise), which
equal the scalar legs bit for bit; the build also fills the instance's
per-user row caches from them, so list and array accessors read the
same values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instance import USEPInstance


class InstanceArrays:
    """Precomputed numpy views of one :class:`USEPInstance`.

    Attributes:
        mu: ``(|V|, |U|)`` utility matrix (read-only view).
        vv: ``(|V|, |V|)`` event-to-event cost matrix; ``inf`` entries
            are conflicting ordered pairs.
        vv_rows: The same costs as a list of row lists — scalar indexing
            on plain lists is what the tight DP loop wants.
        event_start: ``(|V|,)`` start times ``t1``.
        event_end: ``(|V|,)`` end times ``t2``.
        order: ``(|V|,)`` event ids sorted by ``(t2, t1, id)``.
        pos: ``(|V|,)`` inverse of ``order`` (event id -> sorted slot).
        pos_list: ``pos`` as a plain list (fast sort key).
        l_index: ``(|V|,)`` Equation (4) predecessor counts over the
            *global* sorted order.
        to_events: ``(|U|, |V|)`` ``cost(u, v)`` matrix, or None when
            the instance does not cache user costs.
        from_events: ``(|U|, |V|)`` ``cost(v, u)`` matrix, or None.
        round_trip: ``to_events + from_events``, or None.
    """

    __slots__ = (
        "instance",
        "mu",
        "vv",
        "vv_rows",
        "event_start",
        "event_end",
        "order",
        "pos",
        "pos_list",
        "l_index",
        "to_events",
        "from_events",
        "round_trip",
        "budgets",
        "_engine",
    )

    def __init__(self, instance: "USEPInstance"):
        self.instance = instance
        self._engine = None
        self.mu = instance.utility_matrix()
        #: ``(|U|,)`` travel budgets ``b_u`` (O(|U|), kept regardless of
        #: the user-cost caching knob).
        self.budgets = np.array([u.budget for u in instance.users], dtype=float)

        # Event-to-event legs: reuse the instance's lazily built row
        # lists (they are the cache the scalar accessors read, so the
        # numpy matrix is bit-identical by construction).
        self.vv_rows: List[List[float]] = instance._vv_matrix()
        self.vv = np.asarray(self.vv_rows, dtype=float) if self.vv_rows else np.zeros(
            (0, 0)
        )

        events = instance.events
        self.event_start = np.array([ev.start for ev in events], dtype=float)
        self.event_end = np.array([ev.end for ev in events], dtype=float)
        self.order = np.asarray(instance.sorted_event_ids, dtype=np.intp)
        self.pos = np.asarray(instance.sorted_position, dtype=np.intp)
        self.pos_list: List[int] = list(instance.sorted_position)
        self.l_index = np.asarray(instance.l_index, dtype=np.intp)

        self.to_events: Optional[np.ndarray] = None
        self.from_events: Optional[np.ndarray] = None
        self.round_trip: Optional[np.ndarray] = None
        if instance._cache_user_costs:
            model = instance.cost_model
            to_m = model.user_event_matrix(events, instance.users)
            from_m = model.event_user_matrix(events, instance.users)
            # Rows already cached keep their list objects.  Each row is
            # its own list per direction: core/deltas.py appends to them
            # in place.  Symmetric legs share the float objects.
            to_rows = to_m.tolist()
            # Bit patterns, so a -0.0 is never taken for a 0.0.
            if np.array_equal(to_m.view(np.uint64), from_m.view(np.uint64)):
                from_rows = [row.copy() for row in to_rows]
            else:
                from_rows = from_m.tolist()
            to_cache = instance._to_event_cache
            from_cache = instance._from_event_cache
            for user_id, (to_row, from_row) in enumerate(zip(to_rows, from_rows)):
                to_cache.setdefault(user_id, to_row)
                from_cache.setdefault(user_id, from_row)
            self.to_events = to_m
            self.from_events = from_m
            self.round_trip = to_m + from_m

    def engine(self):
        """The instance's incremental scheduling engine (lazily built).

        One :class:`~repro.core.candidates.IncrementalEngine` per
        instance — the Lemma 1 candidate index plus the dirty-set
        schedule memo — shared by every solver run on the instance (and
        by adopters of the cross-cell build cache).
        """
        if self._engine is None:
            from .candidates import IncrementalEngine

            self._engine = IncrementalEngine(self.instance)
        return self._engine

    def user_cost_rows(self, user_id: int) -> Tuple[List[float], List[float]]:
        """``(cost(u, ·), cost(·, u))`` rows as plain lists.

        Served from the instance's row cache when enabled, recomputed
        per call otherwise — identical to the seed solvers' behaviour.
        """
        instance = self.instance
        return (
            instance.costs_to_events(user_id),
            instance.costs_from_events(user_id),
        )


def get_arrays(instance: "USEPInstance") -> InstanceArrays:
    """The instance's cached :class:`InstanceArrays` (built on first use)."""
    arrays = instance._arrays
    if arrays is None:
        arrays = InstanceArrays(instance)
        instance._arrays = arrays
    return arrays
