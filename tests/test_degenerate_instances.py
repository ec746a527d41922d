"""Degenerate instances: 0 events, 0 users, all-zero mu, all-inf costs.

`InstanceArrays` and the DPSingle kernel (plus every registry solver)
must handle the empty and saturated corners of the input space without
crashing and with the obviously-correct outputs (empty plannings, zero
utility).  These corners are exactly where array code tends to die
(empty reductions, (0, n) shapes), so they are pinned here — they
complement ``test_edge_cases.py``, which covers weird-but-nonempty
instances.
"""

import math

import numpy as np
import pytest

from repro.algorithms.dp_single import dp_single, dp_single_reference
from repro.algorithms.registry import available_solvers, make_solver
from repro.core.costs import GridCostModel, MatrixCostModel
from repro.core.entities import Event, User
from repro.core.instance import USEPInstance
from repro.core.planning import Planning, validate_planning
from repro.core.timeutils import TimeInterval
from repro.verify.oracle import verify_planning


def make_events(n, capacity=2):
    return [
        Event(
            id=i,
            location=(i, 0),
            capacity=capacity,
            interval=TimeInterval(2 * i, 2 * i + 1),
        )
        for i in range(n)
    ]


def make_users(n, budget=100):
    return [User(id=u, location=(0, 0), budget=budget) for u in range(n)]


@pytest.fixture
def no_events():
    return USEPInstance([], make_users(3), GridCostModel(), np.zeros((0, 3)))


@pytest.fixture
def no_users():
    return USEPInstance(make_events(3), [], GridCostModel(), np.zeros((3, 0)))


@pytest.fixture
def empty():
    return USEPInstance([], [], GridCostModel(), np.zeros((0, 0)))


class TestInstanceArraysDegenerate:
    def test_zero_events_shapes(self, no_events):
        arrays = no_events.arrays()
        assert arrays.vv_cols == []
        assert arrays.mu.shape == (0, 3)
        assert arrays.to_events.shape == (3, 0)
        assert arrays.from_events.shape == (3, 0)
        assert arrays.round_trip.shape == (3, 0)
        assert len(arrays.order) == 0
        assert no_events.l_index == []
        assert arrays.pos_list == []

    def test_zero_users_shapes(self, no_users):
        arrays = no_users.arrays()
        assert [len(col) for col in arrays.vv_cols] == [3, 3, 3]
        assert arrays.mu.shape == (3, 0)
        assert arrays.to_events.shape == (0, 3)
        assert list(arrays.order) == [0, 1, 2]

    def test_fully_empty_shapes(self, empty):
        arrays = empty.arrays()
        assert arrays.vv_cols == []
        assert arrays.mu.shape == (0, 0)
        assert arrays.to_events.shape == (0, 0)

    def test_diagnostics_do_not_crash(self, no_events, no_users, empty):
        for inst in (no_events, no_users, empty):
            assert inst.measured_conflict_ratio() == 0.0
            description = inst.describe()
            assert description["positive_utility_fraction"] == 0.0

    def test_arrays_cached_once(self, empty):
        assert empty.arrays() is empty.arrays()


class TestDPSingleDegenerate:
    def test_no_candidates(self, no_events):
        assert dp_single(no_events, 0, [], {}) == []
        assert dp_single_reference(no_events, 0, [], {}) == []

    def test_all_zero_utilities_give_empty_schedule(self):
        inst = USEPInstance(
            make_events(3), make_users(2), GridCostModel(), np.zeros((3, 2))
        )
        utilities = {i: 0.0 for i in range(3)}
        for user_id in range(2):
            assert dp_single(inst, user_id, [0, 1, 2], utilities) == []
            assert dp_single_reference(inst, user_id, [0, 1, 2], utilities) == []

    def test_all_infinite_event_legs_cap_schedules_at_one_event(self):
        """With every event-to-event leg unreachable only single-event
        schedules exist; the kernel and the reference agree on the best."""
        inf = math.inf
        n = 3
        ee = [[inf] * n for _ in range(n)]
        ue = [[1.0] * n, [2.0] * n]
        inst = USEPInstance(
            make_events(n),
            make_users(2, budget=10),
            MatrixCostModel(ee, ue),
            np.full((n, 2), 0.5),
        )
        utilities = {0: 1.0, 1: 3.0, 2: 2.0}
        for user_id in range(2):
            fast = dp_single(inst, user_id, [0, 1, 2], utilities)
            slow = dp_single_reference(inst, user_id, [0, 1, 2], utilities)
            assert fast == slow == [1]  # best single event by utility

    def test_zero_budget_with_free_travel(self):
        """Budget 0 + co-located events: zero-cost schedules are legal."""
        events = [
            Event(
                id=i,
                location=(0, 0),
                capacity=2,
                interval=TimeInterval(2 * i, 2 * i + 1),
            )
            for i in range(2)
        ]
        inst = USEPInstance(
            events, make_users(1, budget=0), GridCostModel(), np.full((2, 1), 0.5)
        )
        utilities = {0: 1.0, 1: 1.0}
        fast = dp_single(inst, 0, [0, 1], utilities)
        slow = dp_single_reference(inst, 0, [0, 1], utilities)
        assert fast == slow == [0, 1]


class TestSolversOnDegenerateInstances:
    @pytest.mark.parametrize("name", sorted(available_solvers()))
    def test_every_solver_handles_empty_corners(
        self, name, no_events, no_users, empty
    ):
        for inst in (no_events, no_users, empty):
            planning = make_solver(name).solve(inst)
            assert planning.total_utility() == 0.0
            assert planning.total_arranged_pairs() == 0
            validate_planning(planning)
            assert verify_planning(inst, planning).ok

    @pytest.mark.parametrize("name", sorted(available_solvers()))
    def test_every_solver_handles_all_zero_utilities(self, name):
        inst = USEPInstance(
            make_events(3), make_users(4), GridCostModel(), np.zeros((3, 4))
        )
        planning = make_solver(name).solve(inst)
        assert planning.total_utility() == 0.0
        assert planning.total_arranged_pairs() == 0
        assert verify_planning(inst, planning).ok

    def test_kernels_match_seeds_on_all_infinite_legs(self):
        inf = math.inf
        n = 4
        ee = [[inf] * n for _ in range(n)]
        ue = [[1.0] * n for _ in range(3)]
        inst = USEPInstance(
            make_events(n),
            make_users(3, budget=10),
            MatrixCostModel(ee, ue),
            np.full((n, 3), 0.5),
        )
        for kernel, twin in (
            ("DeDP", "DeDP-seed"),
            ("DeDPO", "DeDPO-seed"),
            ("DeGreedy", "DeGreedy-seed"),
        ):
            kp = make_solver(kernel).solve(inst)
            sp = make_solver(twin).solve(inst)
            assert kp.total_utility() == sp.total_utility()
            assert kp.as_dict() == sp.as_dict()
            assert verify_planning(inst, kp).ok

    def test_planning_helpers_on_empty_instance(self, empty):
        planning = Planning(empty)
        assert planning.as_dict() == {}
        assert list(planning.iter_pairs()) == []
        validate_planning(planning)


class TestUtilityMatrixShapeGuard:
    def test_flat_empty_utilities_normalized(self):
        """[] for |V| = 0 carries no second dimension; the constructor
        adopts the declared (0, |U|) so dropping the last event
        round-trips through JSON (see repro.core.deltas)."""
        inst = USEPInstance([], make_users(3), GridCostModel(), [])
        assert inst._mu.shape == (0, 3)

    def test_misshaped_nonempty_utilities_rejected(self):
        """A non-empty matrix with the wrong user dimension must
        reject, not broadcast."""
        from repro.core.exceptions import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            USEPInstance(
                make_events(2), make_users(3), GridCostModel(), [[0.5], [0.5]]
            )

    def test_generator_rejects_empty_dims(self):
        from repro.core.exceptions import InvalidInstanceError
        from repro.datagen import SyntheticConfig, generate_instance

        with pytest.raises(InvalidInstanceError):
            generate_instance(SyntheticConfig(num_events=0, num_users=5))
        with pytest.raises(InvalidInstanceError):
            generate_instance(SyntheticConfig(num_events=5, num_users=0))
