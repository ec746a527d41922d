"""Travel-cost models.

Section 2 of the paper defines three kinds of travel cost:

* ``cost(v_i, v_j)`` between two events — a bounded non-negative integer
  when a user can attend ``v_j`` right after ``v_i`` (no time overlap and
  the venue is reachable within the gap), and ``+inf`` otherwise;
* ``cost(u, v)`` from a user's home to an event venue; and
* ``cost(v, u)`` from a venue back home.

All costs satisfy the triangle inequality.  Two concrete models are
provided:

:class:`GridCostModel`
    Locations are points on a plane; cost is the (rounded) Manhattan or
    Euclidean distance — the paper uses Manhattan distance both in its
    running example and for the Meetup datasets.  An optional ``speed``
    turns a too-short time gap between events into ``+inf`` (the
    "cannot attend v_j on time" case); with the default instantaneous
    travel, conflicts are purely interval overlaps, matching the
    synthetic generator of Section 5.1.

:class:`MatrixCostModel`
    Explicit cost matrices.  Used by tests, by the Knapsack reduction of
    Theorem 1, and wherever full control over costs is needed.

Besides the scalar legs every model answers the two ``|U| x |V|`` user
matrices in bulk (:meth:`CostModel.user_event_matrix`,
:meth:`CostModel.event_user_matrix`): one scalar call per pair by
default and one numpy pass for a Manhattan grid, bit-identical to the
scalar calls.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .entities import Event, Location, User
from .exceptions import InvalidInstanceError

INFEASIBLE = math.inf


def manhattan(a: Location, b: Location) -> float:
    """L1 distance between two points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def euclidean(a: Location, b: Location) -> float:
    """L2 distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


_METRICS = {"manhattan": manhattan, "euclidean": euclidean}


class CostModel(ABC):
    """Travel costs between events and between users and events.

    Implementations must be symmetric in space (``dist(a,b) == dist(b,a)``)
    and satisfy the triangle inequality; event-to-event costs additionally
    encode temporal reachability (``+inf`` when the pair conflicts).
    """

    @abstractmethod
    def event_to_event(self, first: Event, second: Event) -> float:
        """Cost of travelling from ``first`` to ``second``, attending
        ``first`` before ``second``.

        Returns ``math.inf`` when ``second`` cannot be attended after
        ``first`` (time overlap, wrong order, or unreachable in the gap).
        """

    @abstractmethod
    def user_to_event(self, user: User, event: Event) -> float:
        """Cost from the user's home location to the event venue."""

    def event_to_user(self, event: Event, user: User) -> float:
        """Cost from the venue back home; symmetric by default."""
        return self.user_to_event(user, event)

    def user_event_matrix(
        self, events: Sequence[Event], users: Sequence[User]
    ) -> np.ndarray:
        """A new ``(|U|, |V|)`` float64 matrix of ``cost(u, v)``, a row
        per user.

        The default makes one :meth:`user_to_event` call per pair;
        models that can answer in bulk override it, bit-identically.
        """
        return _pairwise(self.user_to_event, events, users)

    def event_user_matrix(
        self, events: Sequence[Event], users: Sequence[User]
    ) -> np.ndarray:
        """``(|U|, |V|)`` float64 matrix of the return legs ``cost(v, u)``,
        a row per user like :meth:`user_event_matrix`."""
        return _pairwise(
            lambda user, event: self.event_to_user(event, user), events, users
        )


def _pairwise(
    leg: Callable[[User, Event], float],
    events: Sequence[Event],
    users: Sequence[User],
) -> np.ndarray:
    """One scalar ``leg(user, event)`` call per pair, as a float64 matrix."""
    out = np.empty((len(users), len(events)), dtype=float)
    for row, user in enumerate(users):
        out[row] = [leg(user, event) for event in events]
    return out


#: Coordinates at or above this magnitude keep the per-pair path.  Below
#: it every integer coordinate, difference and two-term sum is exact in
#: float64, so the numpy pass equals the scalar model's Python
#: arithmetic bit for bit even where that arithmetic is on ints (above
#: 2**53 Python ints stay exact and float64 does not).
BULK_COORDINATE_LIMIT = 2.0 ** 51


def _coordinates(entities: Sequence) -> Optional[np.ndarray]:
    """``(n, 2)`` float64 locations, or None unless every coordinate is a
    plain finite ``int``/``float`` below :data:`BULK_COORDINATE_LIMIT`."""
    locations = [entity.location for entity in entities]
    if not set(map(type, chain.from_iterable(locations))) <= {int, float}:
        return None
    try:
        coords = np.array(locations, dtype=float)
    except (OverflowError, ValueError):
        return None
    coords = coords.reshape(-1, 2) if coords.size == 0 else coords
    if coords.shape != (len(entities), 2):
        return None
    if not (np.abs(coords) < BULK_COORDINATE_LIMIT).all():  # NaN fails too
        return None
    return coords


class GridCostModel(CostModel):
    """Distance-based costs on the plane with integer rounding.

    Args:
        metric: ``"manhattan"`` (paper default) or ``"euclidean"``.
        speed: Travel speed in distance units per time unit.  ``None``
            means travel is instantaneous, so any non-overlapping ordered
            pair of events is compatible.  With a finite speed, an
            ordered pair is compatible only if
            ``distance / speed <= gap`` between the events.
        integral: Round costs to the nearest integer (required by the
            DP solvers; on integer grid coordinates Manhattan distances
            are already integral and rounding is a no-op).
    """

    def __init__(
        self,
        metric: str = "manhattan",
        speed: Optional[float] = None,
        integral: bool = True,
    ):
        if metric not in _METRICS:
            raise InvalidInstanceError(
                f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}"
            )
        if speed is not None and speed <= 0:
            raise InvalidInstanceError(f"speed must be positive, got {speed}")
        self.metric = metric
        self.speed = speed
        self.integral = integral
        self._dist = _METRICS[metric]

    def _cost(self, a: Location, b: Location) -> float:
        d = self._dist(a, b)
        return float(round(d)) if self.integral else d

    def event_to_event(self, first: Event, second: Event) -> float:
        if not first.interval.precedes(second.interval):
            return INFEASIBLE
        d = self._cost(first.location, second.location)
        if self.speed is not None:
            gap = first.interval.gap_to(second.interval)
            if self._dist(first.location, second.location) > self.speed * gap:
                return INFEASIBLE
        return d

    def user_to_event(self, user: User, event: Event) -> float:
        return self._cost(user.location, event.location)

    def _manhattan_matrix(
        self, events: Sequence[Event], users: Sequence[User]
    ) -> Optional[np.ndarray]:
        """``cost(u, v)`` for every pair in one numpy pass, or None.

        The same float64 operations as :meth:`_cost` per pair: the two
        abs-differences ``user - event``, their sum and, when
        ``integral``, half-even rounding (``np.rint`` as ``round``).
        None, so the caller goes per pair, for the Euclidean metric
        (``np.hypot`` is not shown bit-equal to ``math.hypot``), for a
        subclass that redefines a leg or ``_cost``, and for coordinates
        :func:`_coordinates` refuses.
        """
        cls = type(self)
        if self.metric != "manhattan" or any(
            getattr(cls, name) is not getattr(GridCostModel, name)
            for name in ("user_to_event", "event_to_user", "_cost")
        ):
            return None
        event_xy = _coordinates(events)
        user_xy = _coordinates(users)
        if event_xy is None or user_xy is None:
            return None
        dist = np.subtract(user_xy[:, 0:1], event_xy[None, :, 0])
        np.abs(dist, out=dist)
        dy = np.subtract(user_xy[:, 1:2], event_xy[None, :, 1])
        np.abs(dy, out=dy)
        dist += dy
        if self.integral:
            np.rint(dist, out=dist)
        return dist

    def user_event_matrix(
        self, events: Sequence[Event], users: Sequence[User]
    ) -> np.ndarray:
        bulk = self._manhattan_matrix(events, users)
        if bulk is None:
            return super().user_event_matrix(events, users)
        return bulk

    def event_user_matrix(
        self, events: Sequence[Event], users: Sequence[User]
    ) -> np.ndarray:
        # Symmetric: the return leg is the outbound leg.
        bulk = self._manhattan_matrix(events, users)
        if bulk is None:
            return super().event_user_matrix(events, users)
        return bulk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridCostModel(metric={self.metric!r}, speed={self.speed}, "
            f"integral={self.integral})"
        )


class MatrixCostModel(CostModel):
    """Costs given as explicit matrices indexed by entity ids.

    ``event_event[i][j]`` is the cost of attending event ``j`` right
    after event ``i`` (``math.inf`` when incompatible);
    ``user_event[u][v]`` is the user→venue cost, which is also used for
    the venue→user return leg unless ``event_user`` is supplied.

    Temporal feasibility is *not* re-derived from intervals here: the
    matrix is the single source of truth, exactly like the paper's
    abstract ``cost`` function.  (``event_to_event`` still returns
    ``inf`` for pairs whose intervals make attendance impossible, to
    keep matrices that forgot to encode a conflict from producing
    infeasible schedules.)
    """

    def __init__(
        self,
        event_event: Sequence[Sequence[float]],
        user_event: Sequence[Sequence[float]],
        event_user: Optional[Sequence[Sequence[float]]] = None,
        check_conflicts: bool = True,
    ):
        self._ee = [list(row) for row in event_event]
        self._ue = [list(row) for row in user_event]
        self._eu = [list(row) for row in event_user] if event_user is not None else None
        self.check_conflicts = check_conflicts
        self._validate()

    def _validate(self) -> None:
        n = len(self._ee)
        for i, row in enumerate(self._ee):
            if len(row) != n:
                raise InvalidInstanceError(
                    f"event_event must be square, row {i} has length {len(row)} != {n}"
                )
            for j, c in enumerate(row):
                if c < 0:
                    raise InvalidInstanceError(
                        f"negative event-event cost at ({i}, {j}): {c}"
                    )
        for u, row in enumerate(self._ue):
            if len(row) != n:
                raise InvalidInstanceError(
                    f"user_event row {u} has length {len(row)}, expected {n}"
                )
            for j, c in enumerate(row):
                if c < 0 or math.isinf(c):
                    raise InvalidInstanceError(
                        f"user-event cost must be finite and non-negative, "
                        f"got {c} at ({u}, {j})"
                    )
        if self._eu is not None and (
            len(self._eu) != n or any(len(r) != len(self._ue) for r in self._eu)
        ):
            raise InvalidInstanceError(
                "event_user must have shape (|V|, |U|) transposed to user_event"
            )

    def event_to_event(self, first: Event, second: Event) -> float:
        if self.check_conflicts and not first.interval.precedes(second.interval):
            return INFEASIBLE
        return self._ee[first.id][second.id]

    def user_to_event(self, user: User, event: Event) -> float:
        return self._ue[user.id][event.id]

    def event_to_user(self, event: Event, user: User) -> float:
        if self._eu is not None:
            return self._eu[event.id][user.id]
        return self._ue[user.id][event.id]


def audit_triangle_inequality(
    model: CostModel,
    events: Sequence[Event],
    users: Sequence[User],
    tolerance: float = 1e-9,
    max_violations: int = 10,
) -> list:
    """Best-effort check that spatial costs satisfy the triangle inequality.

    Only finite event-to-event legs are compared (the ``inf`` entries
    encode temporal conflicts, not geometry).  Returns a list of violation
    descriptions, empty when the model passes.  Intended for tests and for
    validating hand-written :class:`MatrixCostModel` inputs; it is
    O(|V|^3 + |U||V|^2) and should not be run on large instances.
    """
    violations = []
    fin = math.isfinite

    def record(kind, triple, lhs, rhs):
        if len(violations) < max_violations:
            violations.append(
                f"{kind} triangle violated for {triple}: {lhs} > {rhs}"
            )

    for a in events:
        for b in events:
            ab = model.event_to_event(a, b)
            if not fin(ab):
                continue
            for c in events:
                ac = model.event_to_event(a, c)
                cb = model.event_to_event(c, b)
                if fin(ac) and fin(cb) and ab > ac + cb + tolerance:
                    record("event", (a.id, c.id, b.id), ab, ac + cb)
    for u in users:
        for a in events:
            ua = model.user_to_event(u, a)
            for b in events:
                ab = model.event_to_event(a, b)
                ub = model.user_to_event(u, b)
                if fin(ab) and ub > ua + ab + tolerance:
                    record("user", (u.id, a.id, b.id), ub, ua + ab)
    return violations
