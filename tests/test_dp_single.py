"""Unit and property tests for DPSingle (Algorithm 2)."""

import importlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dp_single import (
    dp_single,
    dp_single_best_utility,
    dp_single_reference,
)
from repro.core import Schedule, instrument
from repro.core.costs import GridCostModel
from repro.core.instance import USEPInstance
from tests.conftest import grid_instance, make_events, make_users

# The package re-exports the function under the module's name.
dp_single_module = importlib.import_module("repro.algorithms.dp_single")


def brute_force_best(instance, user_id, candidates, utilities, budget=None):
    """Enumerate all subsets/orders; reference optimum for tiny inputs."""
    if budget is None:
        budget = instance.users[user_id].budget
    events = instance.events
    best = 0.0
    for r in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, r):
            ordered = sorted(subset, key=lambda v: events[v].start)
            if any(
                not events[a].interval.precedes(events[b].interval)
                for a, b in zip(ordered, ordered[1:])
            ):
                continue
            cost = instance.cost_uv(user_id, ordered[0])
            for a, b in zip(ordered, ordered[1:]):
                cost += instance.cost_vv(a, b)
            cost += instance.cost_vu(ordered[-1], user_id)
            if math.isinf(cost) or cost > budget:
                continue
            best = max(best, sum(utilities[v] for v in ordered))
    return best


@pytest.fixture
def chain():
    """Five sequential events on a line, generous budget."""
    return grid_instance(
        [((i * 2 + 2, 0), 1, i * 10, i * 10 + 10) for i in range(5)],
        [((0, 0), 100)],
        [[0.5]] * 5,
    )


class TestBasics:
    def test_empty_candidates(self, chain):
        assert dp_single(chain, 0, [], {}) == []

    def test_single_event(self, chain):
        assert dp_single(chain, 0, [0], {0: 0.7}) == [0]

    def test_zero_utility_candidates_skipped(self, chain):
        assert dp_single(chain, 0, [0, 1], {0: 0.0, 1: 0.4}) == [1]

    def test_takes_all_when_affordable(self, chain):
        utilities = {i: 0.5 for i in range(5)}
        assert dp_single(chain, 0, list(range(5)), utilities) == [0, 1, 2, 3, 4]

    def test_budget_forces_choice(self):
        # Two far events in opposite directions; budget covers only one.
        inst = grid_instance(
            [((10, 0), 1, 0, 10), ((-10, 0), 1, 20, 30)],
            [((0, 0), 25)],
            [[0.3], [0.9]],
        )
        assert dp_single(inst, 0, [0, 1], {0: 0.3, 1: 0.9}) == [1]

    def test_lemma1_pruning(self):
        # Round trip to the lone event exceeds the budget.
        inst = grid_instance([((30, 0), 1, 0, 10)], [((0, 0), 50)], [[0.9]])
        assert dp_single(inst, 0, [0], {0: 0.9}) == []

    def test_respects_conflicts(self):
        inst = grid_instance(
            [((1, 0), 1, 0, 10), ((2, 0), 1, 5, 15)],
            [((0, 0), 100)],
            [[0.4], [0.6]],
        )
        # overlapping pair: picks the single best event
        assert dp_single(inst, 0, [0, 1], {0: 0.4, 1: 0.6}) == [1]

    def test_budget_override(self, chain):
        utilities = {i: 0.5 for i in range(5)}
        schedule = dp_single(chain, 0, list(range(5)), utilities, budget=8)
        # budget 8 affords only the nearest event (round trip 4).
        assert schedule
        cost = Schedule(0, schedule).total_cost(chain)
        assert cost <= 8

    def test_result_is_feasible_and_affordable(self, small_synthetic):
        inst = small_synthetic
        for user_id in range(inst.num_users):
            utilities = {
                v: inst.utility(v, user_id) for v in range(inst.num_events)
            }
            candidates = [v for v, mu in utilities.items() if mu > 0]
            schedule = dp_single(inst, user_id, candidates, utilities)
            s = Schedule(user_id, schedule)
            assert s.is_time_feasible(inst)
            assert s.total_cost(inst) <= inst.users[user_id].budget


class TestAgainstExactOracle:
    """For |U| = 1 both DPSingle and the branch-and-bound are exact."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), cr=st.sampled_from([0.0, 0.5, 1.0]))
    def test_single_user_dp_equals_exact(self, seed, cr):
        from repro.algorithms import ExactSolver
        from repro.datagen import SyntheticConfig, generate_instance

        inst = generate_instance(
            SyntheticConfig(
                num_events=6, num_users=1, mean_capacity=2,
                conflict_ratio=cr, grid_size=15, seed=seed,
            )
        )
        utilities = {v: inst.utility(v, 0) for v in range(inst.num_events)}
        candidates = [v for v, mu in utilities.items() if mu > 0]
        dp_value = dp_single_best_utility(inst, 0, candidates, utilities)
        exact_value = ExactSolver().solve(inst).total_utility()
        assert dp_value == pytest.approx(exact_value)


class TestOptimality:
    def test_matches_brute_force_on_fixture(self, small_synthetic):
        inst = small_synthetic
        for user_id in range(0, inst.num_users, 5):
            utilities = {
                v: inst.utility(v, user_id) for v in range(inst.num_events)
            }
            candidates = [v for v, mu in utilities.items() if mu > 0]
            got = dp_single_best_utility(inst, user_id, candidates, utilities)
            want = brute_force_best(inst, user_id, candidates, utilities)
            assert got == pytest.approx(want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_events=st.integers(1, 6),
        budget=st.integers(0, 60),
    )
    def test_matches_brute_force_random(self, seed, num_events, budget):
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = []
        t = 0
        for _ in range(num_events):
            t += int(rng.integers(0, 5))
            dur = int(rng.integers(1, 10))
            specs.append(
                ((int(rng.integers(0, 15)), int(rng.integers(0, 15))), 1, t, t + dur)
            )
            t += dur - int(rng.integers(0, 5))  # occasional overlaps
            t = max(t, 0)
        inst = grid_instance(
            specs,
            [((int(rng.integers(0, 15)), int(rng.integers(0, 15))), budget)],
            [[float(rng.uniform(0, 1))] for _ in range(num_events)],
        )
        utilities = {v: inst.utility(v, 0) for v in range(num_events)}
        candidates = [v for v, mu in utilities.items() if mu > 0]
        got = dp_single_best_utility(inst, 0, candidates, utilities)
        want = brute_force_best(inst, 0, candidates, utilities)
        assert got == pytest.approx(want)


# ----------------------------------------------------------------------
# The array kernel against the seed reference, schedule for schedule
# ----------------------------------------------------------------------


@st.composite
def dp_cases(draw):
    """One user, a handful of events, and a budget at the bound's edges.

    Utilities come from a small set, so equal-utility schedules at
    different costs tie; a finite ``speed`` makes some legs inf;
    half-unit coordinates without rounding give non-integral costs.
    """
    num_events = draw(st.integers(1, 8))
    coord = st.integers(0, 12).map(lambda v: v / 2)
    specs = []
    for _ in range(num_events):
        start = draw(st.integers(0, 40))
        length = draw(st.integers(1, 12))
        specs.append(((draw(coord), draw(coord)), 1, start, start + length))
    user_loc = draw(st.one_of(
        st.sampled_from([loc for loc, _, _, _ in specs]), st.tuples(coord, coord)
    ))
    model = GridCostModel(
        metric=draw(st.sampled_from(["manhattan", "euclidean"])),
        speed=draw(st.sampled_from([None, 0.5, 1.0, 3.0])),
        integral=draw(st.booleans()),
    )
    utilities = [
        [draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.2, 0.3]))]
        for _ in range(num_events)
    ]
    instance = USEPInstance(
        make_events(specs), make_users([(user_loc, 0.0)]), model, utilities
    )
    trips = [
        instance.cost_uv(0, v) + instance.cost_vu(v, 0) for v in range(num_events)
    ]
    budget = draw(st.one_of(
        st.just(0.0),
        st.sampled_from(trips),
        st.just(math.inf),
        st.floats(0.0, 80.0),
    ))
    return instance, budget


class TestAgainstReference:
    """``dp_single`` must return the seed DP's schedule, not just its value:
    the Pareto merge, the budget thresholds and the utility-bound prune
    all keep the reference's tie-breaking."""

    @settings(max_examples=400, deadline=None)
    @given(case=dp_cases())
    def test_same_schedule_as_reference(self, case):
        instance, budget = case
        utilities = {
            v: instance.utility(v, 0) for v in range(instance.num_events)
        }
        candidates = list(range(instance.num_events))
        assert dp_single(instance, 0, candidates, utilities, budget) == (
            dp_single_reference(instance, 0, candidates, utilities, budget)
        )

    def _tie_instance(self):
        # v0 is far and early; v1 -> v2 -> v3 is a cheap later chain
        # whose float-summed utility, (0.1 + 0.2) + 0.3, equals v0's.
        # v0 overlaps v1 and cannot be combined with the chain in budget.
        tie = (0.1 + 0.2) + 0.3
        instance = grid_instance(
            [((10, 0), 1, 0, 10), ((0, 1), 1, 5, 15),
             ((0, 1), 1, 20, 30), ((0, 1), 1, 40, 50)],
            [((0, 0), 20)],
            [[tie], [0.1], [0.2], [0.3]],
        )
        return instance, {0: tie, 1: 0.1, 2: 0.2, 3: 0.3}

    def test_later_cheaper_schedule_tying_the_best_wins(self):
        instance, utilities = self._tie_instance()
        want = dp_single_reference(instance, 0, [0, 1, 2, 3], utilities)
        assert want == [1, 2, 3]
        assert dp_single(instance, 0, [0, 1, 2, 3], utilities) == want

    def test_bound_margin_keeps_the_tie(self, monkeypatch):
        # The chain's bound sums 0.1 + (0.3 + 0.2) = 0.6, one ulp below
        # v0's 0.6000000000000001: without the margin it is skipped.
        instance, utilities = self._tie_instance()
        monkeypatch.setattr(dp_single_module, "BOUND_MARGIN", 0.0)
        assert dp_single(instance, 0, [0, 1, 2, 3], utilities) == [0]

    def test_bound_prunes_on_a_cold_plan_sized_instance(self):
        from repro.algorithms import make_solver
        from repro.datagen import SyntheticConfig, generate_instance

        inst = generate_instance(SyntheticConfig(
            seed=1, num_events=40, num_users=400, mean_capacity=12
        ))
        with instrument.profiled() as counters:
            make_solver("DeDPO").solve(inst)
        assert counters["dp_states_pruned_bound"] > 0
        assert counters["dp_states_expanded"] > 0
