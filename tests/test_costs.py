"""Unit tests for the cost models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Event,
    GridCostModel,
    InvalidInstanceError,
    MatrixCostModel,
    TimeInterval,
    User,
    audit_triangle_inequality,
    euclidean,
    manhattan,
)
from repro.core.costs import BULK_COORDINATE_LIMIT


def ev(i, loc, t1, t2, cap=1):
    return Event(id=i, location=loc, capacity=cap, interval=TimeInterval(t1, t2))


def us(i, loc, budget=100):
    return User(id=i, location=loc, budget=budget)


class TestMetrics:
    def test_manhattan(self):
        assert manhattan((0, 0), (3, 4)) == 7
        assert manhattan((1, 1), (1, 1)) == 0
        assert manhattan((-2, 0), (2, 0)) == 4

    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == 5.0


class TestGridCostModel:
    def test_user_event_cost(self):
        model = GridCostModel()
        assert model.user_to_event(us(0, (0, 0)), ev(0, (2, 3), 0, 1)) == 5

    def test_event_user_symmetric(self):
        model = GridCostModel()
        event, user = ev(0, (2, 3), 0, 1), us(0, (0, 0))
        assert model.event_to_user(event, user) == model.user_to_event(user, event)

    def test_compatible_ordered_pair(self):
        model = GridCostModel()
        a, b = ev(0, (0, 0), 0, 10), ev(1, (5, 0), 10, 20)
        assert model.event_to_event(a, b) == 5

    def test_overlapping_pair_is_infeasible(self):
        model = GridCostModel()
        a, b = ev(0, (0, 0), 0, 10), ev(1, (5, 0), 5, 20)
        assert math.isinf(model.event_to_event(a, b))
        assert math.isinf(model.event_to_event(b, a))

    def test_wrong_order_is_infeasible(self):
        model = GridCostModel()
        a, b = ev(0, (0, 0), 0, 10), ev(1, (5, 0), 10, 20)
        assert math.isinf(model.event_to_event(b, a))

    def test_speed_gates_tight_gaps(self):
        # 10 distance units, 5 time units of gap: needs speed >= 2.
        a, b = ev(0, (0, 0), 0, 10), ev(1, (10, 0), 15, 20)
        assert math.isinf(GridCostModel(speed=1.0).event_to_event(a, b))
        assert GridCostModel(speed=2.0).event_to_event(a, b) == 10

    def test_euclidean_rounding(self):
        model = GridCostModel(metric="euclidean", integral=True)
        cost = model.user_to_event(us(0, (0, 0)), ev(0, (1, 1), 0, 1))
        assert cost == 1.0  # sqrt(2) rounds to 1
        model_f = GridCostModel(metric="euclidean", integral=False)
        assert model_f.user_to_event(us(0, (0, 0)), ev(0, (1, 1), 0, 1)) == (
            pytest.approx(math.sqrt(2))
        )

    def test_rejects_unknown_metric(self):
        with pytest.raises(InvalidInstanceError):
            GridCostModel(metric="chebyshev")

    def test_rejects_bad_speed(self):
        with pytest.raises(InvalidInstanceError):
            GridCostModel(speed=0)


class TestMatrixCostModel:
    def _events(self):
        return [ev(0, (0, 0), 0, 10), ev(1, (1, 0), 10, 20)]

    def test_lookup(self):
        model = MatrixCostModel([[0, 7], [7, 0]], [[3, 4]])
        a, b = self._events()
        assert model.event_to_event(a, b) == 7
        assert model.user_to_event(us(0, (9, 9)), b) == 4

    def test_conflict_guard(self):
        # Intervals overlap: matrix value is overridden with inf.
        model = MatrixCostModel([[0, 7], [7, 0]], [[3, 4]])
        a = ev(0, (0, 0), 0, 15)
        b = ev(1, (1, 0), 10, 20)
        assert math.isinf(model.event_to_event(a, b))

    def test_conflict_guard_can_be_disabled(self):
        model = MatrixCostModel([[0, 7], [7, 0]], [[3, 4]], check_conflicts=False)
        a = ev(0, (0, 0), 0, 15)
        b = ev(1, (1, 0), 10, 20)
        assert model.event_to_event(a, b) == 7

    def test_asymmetric_return_costs(self):
        model = MatrixCostModel(
            [[0, 7], [7, 0]], [[3, 4]], event_user=[[30], [40]]
        )
        assert model.user_to_event(us(0, (0, 0)), self._events()[0]) == 3
        assert model.event_to_user(self._events()[0], us(0, (0, 0))) == 30

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInstanceError):
            MatrixCostModel([[0, 1]], [[1, 2]])

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidInstanceError):
            MatrixCostModel([[0, -1], [1, 0]], [[1, 2]])

    def test_rejects_infinite_user_cost(self):
        with pytest.raises(InvalidInstanceError):
            MatrixCostModel([[0, 1], [1, 0]], [[math.inf, 2]])


class TestTriangleAudit:
    def test_grid_model_passes(self):
        events = [
            ev(0, (0, 0), 0, 10),
            ev(1, (5, 5), 10, 20),
            ev(2, (9, 1), 20, 30),
        ]
        users = [us(0, (3, 3))]
        assert audit_triangle_inequality(GridCostModel(), events, users) == []

    def test_detects_violation(self):
        events = [
            ev(0, (0, 0), 0, 10),
            ev(1, (0, 0), 10, 20),
            ev(2, (0, 0), 20, 30),
        ]
        # Direct leg 0->2 is 100 but via 1 it is 2: violates triangle.
        model = MatrixCostModel(
            [[0, 1, 100], [1, 0, 1], [100, 1, 0]], [[0, 0, 0]]
        )
        violations = audit_triangle_inequality(model, events, [us(0, (0, 0))])
        assert violations
        assert "triangle" in violations[0]


# ----------------------------------------------------------------------
# bulk user matrices vs the scalar legs
# ----------------------------------------------------------------------
def per_pair(leg, events, users):
    """``leg(user, event)`` per pair, as the float64 matrix a bulk
    method must reproduce bit for bit."""
    return np.array(
        [[leg(user, event) for event in events] for user in users], dtype=float
    ).reshape(len(users), len(events))


def assert_same_bits(got, expected):
    assert got.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_matches_scalar_legs(model, events, users):
    assert_same_bits(
        model.user_event_matrix(events, users),
        per_pair(model.user_to_event, events, users),
    )
    assert_same_bits(
        model.event_user_matrix(events, users),
        per_pair(lambda u, v: model.event_to_user(v, u), events, users),
    )


#: Coordinates the vectorised Manhattan pass takes: ints and floats up
#: to 2**50 (both signs), and half-integers, whose distances hit the
#: half-even rounding ties.
safe_coordinate = st.one_of(
    st.integers(-(2**50), 2**50),
    st.floats(-(2.0**50), 2.0**50, allow_nan=False, allow_infinity=False),
    st.integers(-4001, 4001).map(lambda k: k / 2),
)
safe_location = st.tuples(safe_coordinate, safe_coordinate)


def entities(event_locations, user_locations):
    events = [ev(i, loc, 0, 1) for i, loc in enumerate(event_locations)]
    users = [us(j, loc) for j, loc in enumerate(user_locations)]
    return events, users


class TestGridBulkMatrices:
    @settings(max_examples=300, deadline=None)
    @given(
        event_locations=st.lists(safe_location, max_size=6),
        user_locations=st.lists(safe_location, max_size=6),
        integral=st.booleans(),
    )
    def test_vectorised_manhattan_is_bit_identical(
        self, event_locations, user_locations, integral
    ):
        model = GridCostModel(integral=integral)
        events, users = entities(event_locations, user_locations)
        assert model._manhattan_matrix(events, users) is not None  # numpy pass
        assert_matches_scalar_legs(model, events, users)

    def test_rounding_ties_are_half_even(self):
        model = GridCostModel()
        events, users = entities([(0, 0), (0.5, 1.5)], [(2, 0.5), (-1.5, 0)])
        # distances 2.5, 2.5, 1.5, 3.5 round to 2, 2, 2, 4
        assert model.user_event_matrix(events, users).tolist() == [
            [2.0, 2.0],
            [2.0, 4.0],
        ]
        assert_matches_scalar_legs(model, events, users)

    @pytest.mark.parametrize(
        "bad",
        [math.inf, -math.inf, math.nan, 2**51, -(2**51), 2.0**51, 2**62, 10**400],
    )
    @pytest.mark.parametrize("side", ["event", "user"])
    def test_unsafe_coordinates_take_the_per_pair_path(self, bad, side):
        model = GridCostModel()
        events, users = entities([(0, 0), (3, 4)], [(1, 1)])
        if side == "event":
            events[1] = ev(1, (3, bad), 0, 1)
        else:
            users[0] = us(0, (bad, 1))
        assert model._manhattan_matrix(events, users) is None

    @settings(max_examples=100, deadline=None)
    @given(
        event_locations=st.lists(
            st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
            min_size=1,
            max_size=3,
        ),
        user_locations=st.lists(
            st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_huge_integer_coordinates_keep_python_arithmetic(
        self, event_locations, user_locations
    ):
        # float64 sums of such ints differ from Python's exact ones in
        # most draws; the per-pair path keeps the scalar values.
        model = GridCostModel()
        events, users = entities(event_locations, user_locations)
        assert_matches_scalar_legs(model, events, users)

    def test_limit_is_exclusive(self):
        model = GridCostModel()
        below = BULK_COORDINATE_LIMIT - 1
        events, users = entities([(below, -below)], [(0, 0)])
        assert model._manhattan_matrix(events, users) is not None
        events, users = entities([(BULK_COORDINATE_LIMIT, 0)], [(0, 0)])
        assert model._manhattan_matrix(events, users) is None

    def test_euclidean_keeps_the_per_pair_path(self):
        model = GridCostModel(metric="euclidean")
        events, users = entities([(0, 0), (3, 5)], [(1, 1), (-2, 7)])
        assert model._manhattan_matrix(events, users) is None
        assert_matches_scalar_legs(model, events, users)

    def test_subclass_overriding_a_leg_takes_the_per_pair_path(self):
        class Tolled(GridCostModel):
            def user_to_event(self, user, event):
                return super().user_to_event(user, event) + 100

        class Downhill(GridCostModel):
            def event_to_user(self, event, user):
                return 0.5 * self.user_to_event(user, event)

        events, users = entities([(0, 0), (3, 5)], [(1, 1), (-2, 7)])
        for model in (Tolled(), Downhill()):
            assert model._manhattan_matrix(events, users) is None
            assert_matches_scalar_legs(model, events, users)
        assert Tolled().user_event_matrix(events, users)[0, 0] == 102.0
        downhill = Downhill()
        assert downhill.event_user_matrix(events, users)[0, 0] == 1.0
        assert downhill.user_event_matrix(events, users)[0, 0] == 2.0

    def test_non_numeric_coordinates_take_the_per_pair_path(self):
        model = GridCostModel()
        events, users = entities([(np.float32(0.1), 0)], [(True, 0)])
        assert model._manhattan_matrix(events, users) is None
        assert_matches_scalar_legs(model, events, users)

    def test_empty_sides(self):
        model = GridCostModel()
        events, users = entities([(0, 0)], [])
        assert model.user_event_matrix(events, users).shape == (0, 1)
        events, users = entities([], [(0, 0)])
        assert model.event_user_matrix(events, users).shape == (1, 0)


class TestMatrixBulkMatrices:
    def _events(self):
        return [ev(0, (0, 0), 0, 10), ev(1, (1, 0), 10, 20), ev(2, (2, 0), 20, 30)]

    def _users(self):
        return [us(0, (0, 0)), us(1, (0, 0))]

    EE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    UE = [[3, 4, 5], [6, 7, 8.5]]

    def test_symmetric_return_legs(self):
        model = MatrixCostModel(self.EE, self.UE)
        events, users = self._events(), self._users()
        assert_matches_scalar_legs(model, events, users)
        assert model.user_event_matrix(events, users).tolist() == [
            [3.0, 4.0, 5.0],
            [6.0, 7.0, 8.5],
        ]

    def test_explicit_return_legs_stay_apart(self):
        eu = [[30, 60], [40, 70], [50, 80]]
        model = MatrixCostModel(self.EE, self.UE, event_user=eu)
        events, users = self._events(), self._users()
        assert_matches_scalar_legs(model, events, users)
        assert model.event_user_matrix(events, users).tolist() == [
            [30.0, 40.0, 50.0],
            [60.0, 70.0, 80.0],
        ]
        assert model.user_event_matrix(events, users)[1, 2] == 8.5

    def test_indexes_by_entity_id_not_position(self):
        model = MatrixCostModel(self.EE, self.UE, event_user=[[1, 2], [3, 4], [5, 6]])
        events, users = self._events()[::-1], self._users()[::-1]
        assert_matches_scalar_legs(model, events, users)

    def test_no_users(self):
        model = MatrixCostModel(self.EE, [])
        assert model.user_event_matrix(self._events(), []).shape == (0, 3)
        assert model.event_user_matrix(self._events(), []).shape == (0, 3)
