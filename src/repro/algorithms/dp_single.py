"""DPSingle — Algorithm 2: optimal single-user schedule by dynamic programming.

Given one user and a candidate event set (one pseudo-event per original
event, each with a decomposed utility), DPSingle finds the feasible
schedule maximising total utility within the user's travel budget.

The recurrence is Equation (4): ``Omega(i, T)`` is the best utility of a
schedule that ends at candidate ``i`` with accumulated outbound travel
cost ``T`` (home -> ... -> v_i), subject to ``T + cost(v_i, u) <= b_u``.
Candidates are sorted by non-descending end time; predecessors of ``i``
are exactly the candidates ``l`` with ``t2_l <= t1_i`` (indices below
``l_i``), as in the paper.

Implementation notes:

* The paper assumes integer costs and tabulates ``T in [0, b_u]``; we
  key states by exact cost values instead, which is equivalent (at most
  ``b_u + 1`` distinct T values for integer costs) and also tolerates
  non-integer costs.
* States are pruned to the Pareto frontier — a state ``(T, omega)``
  dominated by ``(T' <= T, omega' >= omega)`` can never be part of a
  better completion, because both the budget constraint and the
  objective are monotone.  This preserves exact optimality while
  shrinking the tables dramatically; the worst case stays the paper's
  ``O(|V|^2 * b_u)``.
* Lemma 1 pruning (drop candidates whose round trip alone exceeds the
  budget) is applied first, exactly as Algorithm 2 line 1 does.

:func:`dp_single` is the array-backed kernel: it reads the instance's
precomputed :class:`~repro.core.arrays.InstanceArrays` (cost matrices,
global end-time order) instead of re-sorting and re-deriving costs per
call.  States are plain tuples ``(T, -omega, pred_index, prev_state)``
linked into predecessor chains; storing *negated* utilities makes a
single ascending tuple sort order duplicate-cost groups exactly like the
seed's dict (first writer wins: highest utility first, then earliest
predecessor — each predecessor's shifted frontier has strictly
increasing costs, so the sort never ties past the predecessor index).
The strict Pareto pass over the sorted buffer then both prunes dominated
states and discards duplicate-cost losers in one comparison per state,
so the scalar merge needs no per-transition dict lookups at all.  The
per-candidate budget cut ``T + cost(v_i, u) <= b_u`` is precomputed as
the largest representable ``T`` satisfying it (a couple of
``math.nextafter`` steps), saving one float add per transition while
keeping float decisions bit-identical.  The merge itself stays scalar
on purpose: a numpy variant that batched the ``t_new``/budget/Pareto
updates over each predecessor's whole frontier was measured 2-5x
*slower* at every realistic frontier size (per-candidate dispatch
overhead dominates; see EXPERIMENTS.md), so the vectorisation lives in
the per-call setup (predecessor table, leg submatrix) and in the Step-1
selection kernels of the callers.  The kernel implements exactly the
seed's tie-breaking (first writer wins on equal utility at equal cost;
earlier candidates win global ties), so plannings are bit-identical to
:func:`dp_single_reference`, the retained seed implementation the
golden-equivalence tests compare against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import instrument
from ..core.instance import USEPInstance


def dp_single(
    instance: USEPInstance,
    user_id: int,
    candidate_event_ids: Sequence[int],
    utilities: Dict[int, float],
    budget: Optional[float] = None,
    presorted: bool = False,
) -> List[int]:
    """Optimal schedule for one user from the given candidates.

    Args:
        instance: The USEP instance (provides costs and intervals).
        user_id: The user ``u_r`` being scheduled.
        candidate_event_ids: The set ``V_r`` — at most one pseudo-event
            per original event; callers must already have dropped
            non-positive-utility candidates.
        utilities: Decomposed utility ``mu'`` per candidate event id
            (``mu^r(v_hat_i, u_r)`` in DeDP's notation).
        budget: Travel budget override; defaults to the user's ``b_u``.
        presorted: The caller guarantees the candidates are already
            Lemma 1-pruned against ``budget``, positive-utility
            filtered, and sorted in the global end-time order (the
            :class:`~repro.core.candidates.CandidateIndex` contract) —
            the per-call filter and sort are skipped.

    Returns:
        Event ids of the best schedule in attendance (time) order;
        empty list when no positive-utility schedule fits the budget.
    """
    if budget is None:
        budget = instance.users[user_id].budget
    arrays = instance.arrays()
    to_event, from_event = arrays.user_cost_rows(user_id)

    if presorted:
        kept = list(candidate_event_ids)
    else:
        # Lemma 1 prune + positive-utility filter (Algorithm 2 line 1).
        utils_get = utilities.get
        kept = [
            ev_id
            for ev_id in candidate_event_ids
            if utils_get(ev_id, 0.0) > 0.0
            and to_event[ev_id] + from_event[ev_id] <= budget
        ]
        # Sorting by the precomputed global slot is equivalent to the
        # seed's (end, start, id) comparator sort, without key tuples.
        kept.sort(key=arrays.pos_list.__getitem__)
    if not kept:
        return []
    n = len(kept)
    prof = instrument.active()

    # Per-candidate predecessor bound, from the precomputed global
    # tables: global slots < l_index[pos] are exactly the events ending
    # no later than start_i, so counting kept slots below that threshold
    # equals the seed's bisect over the kept end times.  The min(·, i)
    # cap reproduces the seed's ``hi=i`` bound verbatim.
    kept_np = np.fromiter(kept, dtype=np.intp, count=n)
    kept_pos = arrays.pos[kept_np]
    l_list = np.minimum(
        np.searchsorted(kept_pos, arrays.l_index[kept_pos], side="left"),
        np.arange(n),
    ).tolist()
    # Leg submatrix restricted to the kept candidates, as row lists:
    # legs_rows[i][l] is the travel cost from candidate l to candidate i
    # — note the transpose: the first vv axis is the *source* event
    # (float64 -> Python float round-trips exactly, inf included).
    legs_rows = arrays.vv[kept_np[None, :], kept_np[:, None]].tolist()

    inf = math.inf
    nextafter = math.nextafter
    finite_budget = not math.isinf(budget)
    # Per-candidate scalars for the frontier merge: starting cost, negated
    # utility and the largest representable cost satisfying the budget
    # check, so the inner loop compares ``T <= thresh`` instead of
    # re-evaluating the seed's ``T + back_i <= budget``.  The
    # subtraction lands within an ulp or two of the exact boundary; the
    # nextafter walks pin it so both comparisons agree on every float.
    bases = [to_event[ev_id] for ev_id in kept]
    nutils = [-utilities[ev_id] for ev_id in kept]
    threshs: List[float] = []
    for ev_id in kept:
        if finite_budget:
            back_i = from_event[ev_id]
            thresh = budget - back_i
            while thresh + back_i > budget:
                thresh = nextafter(thresh, -inf)
            nxt = nextafter(thresh, inf)
            while nxt + back_i <= budget:
                thresh = nxt
                nxt = nextafter(nxt, inf)
        else:
            thresh = inf
        threshs.append(thresh)

    stats = [0, 0] if prof is not None else None
    schedule = run_frontier_merge(
        instance, kept, l_list, legs_rows, bases, nutils, threshs, stats
    )

    if prof is not None:
        prof.add("dp_calls_executed")
        prof.add("dp_candidates", n)
        prof.add("dp_states_expanded", stats[0])
        prof.add("dp_states_kept", stats[1])
    return schedule


def run_frontier_merge(
    instance: USEPInstance,
    kept: Sequence[int],
    l_list: Sequence[int],
    legs_rows: Sequence[Sequence[float]],
    bases: Sequence[float],
    nutils: Sequence[float],
    threshs: Sequence[float],
    stats: Optional[List[int]] = None,
) -> List[int]:
    """The scalar Pareto frontier chase of :func:`dp_single`.

    One frontier walk over pre-resolved per-candidate scalars:
    ``bases[i]`` is the home->v_i cost, ``nutils[i]`` the negated
    decomposed utility, ``threshs[i]`` the largest cost passing the
    budget cut (see :func:`dp_single` for how it is pinned with
    nextafter).  :func:`dp_single` is its one caller and resolves the
    scalars per call.  The merge stays scalar on purpose (see the
    module docs: a vectorised variant measured 2-5x slower at
    realistic frontier sizes).

    ``stats`` (optional two-element list) accumulates
    ``[states_expanded, states_kept]`` for the profile counters.

    Returns the best schedule's event ids in attendance order.
    """
    n = len(kept)
    inf = math.inf
    # fronts[i]: Pareto frontier of candidate i as a cost-ascending list
    # of state tuples ``(T, -omega, pred_index, prev_state)``; utilities
    # strictly increase (negated values strictly decrease) with cost,
    # pred_index is the kept-candidate index the chain came from (-1 for
    # a schedule starting at candidate i), prev_state the predecessor's
    # tuple.
    fronts: List[List[tuple]] = [None] * n  # type: ignore[list-item]

    buf: List[tuple] = []
    buf_append = buf.append
    best: Optional[tuple] = None
    best_i = -1
    best_nw = inf
    best_cost = inf

    for i in range(n):
        nutil = nutils[i]
        thresh = threshs[i]
        # Base case: v_i is the first (and so far only) event.  Lemma 1
        # pruning already guaranteed t0 + back_i <= budget, so every
        # candidate's frontier is non-empty.
        base = (bases[i], nutil, -1, None)
        l_i = l_list[i]

        if l_i == 0:
            front = [base]
        else:
            # Scalar merge: append every feasible transition, then let
            # one ascending sort line up duplicate-cost groups in the
            # seed dict's winner order (utility descending via the
            # negated value, then generation order via the predecessor
            # index — costs within one predecessor's shifted frontier
            # are strictly increasing, so ties never reach the
            # unorderable prev_state element).
            buf.clear()
            buf_append(base)
            row_i = legs_rows[i]
            for l in range(l_i):
                leg = row_i[l]
                if leg == inf:
                    continue
                for st in fronts[l]:
                    t_new = st[0] + leg
                    if t_new > thresh:
                        # Frontier costs increase strictly; later
                        # states only get more expensive.
                        break
                    buf_append((t_new, st[1] + nutil, l, st))
            if len(buf) == 1:
                front = [base]
            else:
                buf.sort()
                # Strict Pareto pass: keep states whose utility beats
                # every cheaper-or-equal state.  Duplicate-cost losers
                # sort after their group's winner with utility no
                # better, so the same comparison drops them — this is
                # exactly the seed's dict overwrite + prune.
                front = []
                front_append = front.append
                last = inf
                for st in buf:
                    nw = st[1]
                    if nw < last:
                        front_append(st)
                        last = nw

        fronts[i] = front
        if stats is not None:
            stats[0] += len(buf) if l_i else 1
            stats[1] += len(front)

        # Global best: max utility (min negated utility), then min cost,
        # then earliest state in generation order.  Within a frontier
        # utilities increase strictly, so only the last state can raise
        # the global best and only it can tie the utility at a lower
        # cost.
        top = front[-1]
        nw = top[1]
        if nw < best_nw:
            best_nw = nw
            best_cost = top[0]
            best = top
            best_i = i
        elif nw == best_nw and top[0] < best_cost:
            best_cost = top[0]
            best = top
            best_i = i

    if best is None or best_nw >= 0.0:
        return []

    # Reconstruct the schedule by walking predecessor references; each
    # state stores its predecessor's candidate index, so the walk tracks
    # the current index alongside the chain.
    schedule: List[int] = []
    idx = best_i
    st = best
    while st is not None:
        schedule.append(kept[idx])
        idx = st[2]
        st = st[3]
    schedule.reverse()
    # DP order (by end time) equals attendance order because consecutive
    # events satisfy t2 <= t1; sort by start for explicitness.
    events = instance.events
    schedule.sort(key=lambda ev_id: events[ev_id].start)
    return schedule


def dp_single_best_utility(
    instance: USEPInstance,
    user_id: int,
    candidate_event_ids: Sequence[int],
    utilities: Dict[int, float],
    budget: Optional[float] = None,
) -> float:
    """Utility of the DP-optimal schedule (convenience for tests)."""
    schedule = dp_single(instance, user_id, candidate_event_ids, utilities, budget)
    return sum(utilities[ev_id] for ev_id in schedule)


# ----------------------------------------------------------------------
# Seed implementation, kept verbatim as the golden reference
# ----------------------------------------------------------------------


@dataclass
class _State:
    """One Pareto-kept DP state: reach candidate ``idx`` at cost ``T``."""

    cost: float
    utility: float
    prev_idx: int  # candidate index of the predecessor, -1 for "first event"
    prev_state: Optional["_State"]


def dp_single_reference(
    instance: USEPInstance,
    user_id: int,
    candidate_event_ids: Sequence[int],
    utilities: Dict[int, float],
    budget: Optional[float] = None,
) -> List[int]:
    """The seed's pure-Python DPSingle (used by golden tests and the
    ``*-seed`` baseline solvers; same contract as :func:`dp_single`)."""
    if budget is None:
        budget = instance.users[user_id].budget

    to_event = instance.costs_to_events(user_id)
    from_event = instance.costs_from_events(user_id)

    # Line 1 (Lemma 1): prune candidates whose round trip busts the budget.
    events = instance.events
    candidates = [
        ev_id
        for ev_id in candidate_event_ids
        if to_event[ev_id] + from_event[ev_id] <= budget
        and utilities.get(ev_id, 0.0) > 0.0
    ]
    if not candidates:
        return []
    # Sort by non-descending end time (ties by start then id, matching
    # the instance's global deterministic order).
    candidates.sort(key=lambda ev_id: (events[ev_id].end, events[ev_id].start, ev_id))
    n = len(candidates)
    ends = [events[ev_id].end for ev_id in candidates]

    # frontiers[i]: Pareto states sorted by increasing cost and strictly
    # increasing utility.
    frontiers: List[List[_State]] = [[] for _ in range(n)]
    best_state: Optional[_State] = None
    best_idx = -1

    for i in range(n):
        ev_i = candidates[i]
        util_i = utilities[ev_i]
        back_i = from_event[ev_i]
        raw: Dict[float, _State] = {}

        # Base case: v_i is the first (and so far only) event.
        t0 = to_event[ev_i]
        if t0 + back_i <= budget:
            raw[t0] = _State(t0, util_i, -1, None)

        # Transitions from every compatible earlier candidate.
        l_i = bisect.bisect_right(ends, events[ev_i].start, hi=i)
        for l in range(l_i):
            ev_l = candidates[l]
            leg = instance.cost_vv(ev_l, ev_i)
            if math.isinf(leg):
                continue
            for state in frontiers[l]:
                t_new = state.cost + leg
                if t_new + back_i > budget:
                    continue
                omega_new = state.utility + util_i
                existing = raw.get(t_new)
                if existing is None or omega_new > existing.utility:
                    raw[t_new] = _State(t_new, omega_new, l, state)

        # Pareto-prune: keep strictly better utility as cost increases.
        frontier: List[_State] = []
        for cost in sorted(raw):
            state = raw[cost]
            if not frontier or state.utility > frontier[-1].utility:
                frontier.append(state)
        frontiers[i] = frontier

        for state in frontier:
            if (
                best_state is None
                or state.utility > best_state.utility
                or (
                    state.utility == best_state.utility
                    and state.cost < best_state.cost
                )
            ):
                best_state = state
                best_idx = i

    if best_state is None or best_state.utility <= 0.0:
        return []

    # Reconstruct the schedule by walking predecessor pointers.
    schedule: List[int] = []
    idx, state = best_idx, best_state
    while state is not None:
        schedule.append(candidates[idx])
        idx, state = state.prev_idx, state.prev_state
    schedule.reverse()
    # DP order (by end time) equals attendance order because consecutive
    # events satisfy t2 <= t1; sort by start for explicitness.
    schedule.sort(key=lambda ev_id: events[ev_id].start)
    return schedule
