"""Property tests of the dynamic mutation layer (repro.core.deltas).

The contracts under test, per the module's own invalidation table:

* **dirty-set exactness** — every mutation kind reports exactly the
  analytically-affected users (candidate-view membership for event
  edits, the touched user for budget edits even when the view is
  unchanged, the Lemma-1 survivor set for a new event);
* **structural bit-identity** — after any mutation, every derived
  array and index row equals a from-scratch build on the mutated
  content, and a delta re-solve's planning bit-matches a cold solve;
* **memo exactness** — a delta re-solve re-runs Step 1 only for the
  dirty users, everyone else memo-hits;
* **staleness is impossible by construction** — a re-solve after a
  mutation plans the mutated content, and the cross-cell build cache
  drops its registration so the old fingerprint cannot adopt the
  mutated object;
* **copies mutate like originals** — a deepcopy or pickle twin of a
  solved instance re-plans a mutation exactly like the live instance.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.algorithms.registry import make_solver
from repro.core import build_cache
from repro.core.deltas import (
    AddEvent,
    AddUser,
    BudgetChange,
    CapacityChange,
    DropEvent,
    DropUser,
    UtilityChange,
    apply_mutation,
    apply_mutations,
    dirty_union,
)
from repro.core.exceptions import InvalidInstanceError
from repro.datagen import SyntheticConfig, generate_instance
from repro.io import (
    canonical_planning_bytes,
    instance_from_dict,
    instance_to_dict,
)

SOLVERS = ("DeDP", "DeDPO", "DeGreedy")


def make_instance(**overrides) -> "USEPInstance":
    defaults = dict(num_events=10, num_users=24, mean_capacity=3, seed=42)
    defaults.update(overrides)
    return generate_instance(SyntheticConfig(**defaults))


def cold_twin(instance):
    """A from-scratch instance of the same content (fresh JSON decode)."""
    return instance_from_dict(instance_to_dict(instance))


def assert_structurally_fresh(instance):
    """Every derived structure equals a from-scratch build, bit for bit."""
    cold = cold_twin(instance)
    live_a, cold_a = instance.arrays(), cold.arrays()
    for attr in ("mu", "vv", "event_start", "event_end", "order", "pos",
                 "l_index", "budgets", "to_events", "from_events",
                 "round_trip"):
        live_v, cold_v = getattr(live_a, attr), getattr(cold_a, attr)
        if live_v is None or cold_v is None:
            assert live_v is cold_v, attr
            continue
        np.testing.assert_array_equal(live_v, cold_v, err_msg=attr)
    live_i, cold_i = live_a.engine().index, cold_a.engine().index
    if live_i is None or cold_i is None:
        assert live_i is cold_i
        return
    assert live_i.per_user == cold_i.per_user
    assert live_i.positive_pairs == cold_i.positive_pairs
    assert live_i.pruned_pairs == cold_i.pruned_pairs
    assert live_i.survivor_pairs == cold_i.survivor_pairs


def assert_delta_matches_cold(instance):
    """Delta re-solves bit-match cold solves of the mutated content."""
    cold = cold_twin(instance)
    for name in SOLVERS:
        delta = make_solver(name).solve(instance)
        fresh = make_solver(name).solve(cold)
        assert canonical_planning_bytes(delta) == canonical_planning_bytes(
            fresh
        ), name


def candidate_view_members(instance, event_id):
    index = instance.arrays().engine().index
    return frozenset(
        u for u, cands in enumerate(index.per_user) if event_id in cands
    )


def analytic_survivors(instance, event_id):
    arrays = instance.arrays()
    positive = arrays.mu[event_id, :] > 0.0
    feasible = arrays.round_trip[:, event_id] <= arrays.budgets
    return frozenset(np.nonzero(positive & feasible)[0].tolist())


class TestValidationLeavesInstanceUntouched:
    def test_bad_event_id(self):
        instance = make_instance()
        before = instance_to_dict(instance)
        with pytest.raises(InvalidInstanceError):
            apply_mutation(instance, CapacityChange(instance.num_events, 3))
        assert instance.version == 0
        assert instance_to_dict(instance) == before

    def test_bad_user_id(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(instance, BudgetChange(-1, 5.0))
        assert instance.version == 0

    def test_utility_out_of_range(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(instance, UtilityChange(0, 0, 1.5))
        assert instance.version == 0

    def test_add_user_wrong_utility_length(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(
                instance,
                AddUser(location=(1.0, 1.0), budget=5.0, utilities=(0.5,)),
            )
        assert instance.version == 0
        assert instance.num_users == 24

    def test_add_event_bad_interval(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(
                instance,
                AddEvent(
                    location=(1.0, 1.0),
                    capacity=2,
                    start=10.0,
                    end=10.0,
                    utilities=tuple(0.5 for _ in range(instance.num_users)),
                ),
            )
        assert instance.version == 0

    def test_capacity_below_one(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(instance, CapacityChange(0, 0))
        assert instance.version == 0

    def test_unknown_mutation_type(self):
        instance = make_instance()
        with pytest.raises(InvalidInstanceError):
            apply_mutation(instance, "not-a-mutation")

    def test_stream_stops_at_first_invalid(self):
        instance = make_instance()
        stream = [
            BudgetChange(0, 1.25),
            CapacityChange(instance.num_events, 3),  # invalid
            BudgetChange(1, 2.5),
        ]
        with pytest.raises(InvalidInstanceError):
            apply_mutations(instance, stream)
        # the valid prefix stayed applied, the suffix never ran
        assert instance.version == 1
        assert instance.users[0].budget == 1.25
        assert instance.users[1].budget != 2.5


class TestDirtySetExactness:
    """Each kind's dirty set equals the analytically-affected set."""

    def test_budget_change_dirties_exactly_the_user(self):
        instance = make_instance()
        make_solver("DeDPO").solve(instance)
        report = apply_mutation(instance, BudgetChange(5, 0.25))
        assert report.dirty_users == frozenset({5})

    def test_budget_change_dirties_even_when_view_unchanged(self):
        # Raising an already-ample budget keeps the candidate view
        # identical, but the budget value itself feeds the DP threshold
        # walk — a memo hit would replay a schedule computed under the
        # old budget, so the user must still be dirty.
        instance = make_instance()
        index = instance.arrays().engine().index
        apply_mutation(instance, BudgetChange(7, 1e6))  # everything in view
        view_before = list(index.per_user[7])
        report = apply_mutation(instance, BudgetChange(7, 2e6))
        assert index.per_user[7] == view_before
        assert report.dirty_users == frozenset({7})

    def test_utility_change_dirty_iff_feasible_and_positive(self):
        instance = make_instance()
        arrays = instance.arrays()
        # a budget-feasible (event, user) pair with positive utility
        feasible = np.nonzero(
            (arrays.round_trip <= arrays.budgets[:, None]) & (arrays.mu.T > 0)
        )
        user_id, event_id = int(feasible[0][0]), int(feasible[1][0])
        report = apply_mutation(
            instance, UtilityChange(event_id, user_id, 0.123456)
        )
        assert report.dirty_users == frozenset({user_id})

    def test_utility_change_on_infeasible_event_is_clean(self):
        instance = make_instance()
        apply_mutation(instance, BudgetChange(3, 0.0))  # nothing reachable
        report = apply_mutation(instance, UtilityChange(0, 3, 0.9))
        assert report.dirty_users == frozenset()

    def test_zero_to_zero_utility_is_noop(self):
        instance = make_instance()
        arrays = instance.arrays()
        zeros = np.nonzero(arrays.mu == 0.0)
        if not len(zeros[0]):
            pytest.skip("no zero utility cell in this instance")
        event_id, user_id = int(zeros[0][0]), int(zeros[1][0])
        version = instance.version
        report = apply_mutation(instance, UtilityChange(event_id, user_id, 0.0))
        assert report.noop
        assert instance.version == version

    def test_capacity_change_dirties_candidate_view_members(self):
        instance = make_instance()
        expected = candidate_view_members(instance, 2)
        report = apply_mutation(instance, CapacityChange(2, 1))
        assert report.dirty_users == expected

    def test_add_event_dirties_its_lemma1_survivors(self):
        instance = make_instance()
        instance.arrays().engine()  # build the index first
        mutation = AddEvent(
            location=(3.0, 4.0),
            capacity=2,
            start=1.0,
            end=9.0,
            utilities=tuple(
                0.8 if u % 3 else 0.0 for u in range(instance.num_users)
            ),
        )
        report = apply_mutation(instance, mutation)
        new_event = instance.num_events - 1
        assert report.dirty_users == analytic_survivors(instance, new_event)

    def test_drop_event_dirties_predrop_view_members(self):
        instance = make_instance()
        expected = candidate_view_members(instance, 4)
        report = apply_mutation(instance, DropEvent(4))
        assert report.dirty_users == expected

    def test_add_user_dirties_only_the_new_user(self):
        instance = make_instance()
        instance.arrays().engine()
        report = apply_mutation(
            instance,
            AddUser(
                location=(2.0, 2.0),
                budget=30.0,
                utilities=tuple(0.5 for _ in range(instance.num_events)),
            ),
        )
        assert report.dirty_users == frozenset({instance.num_users - 1})

    def test_drop_user_dirties_nobody(self):
        instance = make_instance()
        instance.arrays().engine()
        report = apply_mutation(instance, DropUser(6))
        assert report.dirty_users == frozenset()

    def test_dirty_union(self):
        instance = make_instance()
        reports = apply_mutations(
            instance, [BudgetChange(1, 0.5), BudgetChange(9, 0.5)]
        )
        assert dirty_union(reports) == frozenset({1, 9})


MUTATION_CASES = [
    ("budget_change", lambda i: BudgetChange(5, 2.75)),
    ("capacity_change", lambda i: CapacityChange(3, 1)),
    ("utility_change", lambda i: UtilityChange(2, 8, 0.654321)),
    ("drop_user", lambda i: DropUser(4)),
    ("drop_event", lambda i: DropEvent(1)),
    (
        "add_user",
        lambda i: AddUser(
            location=(7.0, 3.0),
            budget=25.0,
            utilities=tuple(
                0.4 if v % 2 else 0.0 for v in range(i.num_events)
            ),
        ),
    ),
    (
        "add_event",
        lambda i: AddEvent(
            location=(5.0, 5.0),
            capacity=3,
            start=2.0,
            end=11.0,
            utilities=tuple(
                0.6 if u % 2 else 0.0 for u in range(i.num_users)
            ),
        ),
    ),
]


class TestStructuralBitIdentity:
    @pytest.mark.parametrize("kind,build", MUTATION_CASES, ids=[k for k, _ in MUTATION_CASES])
    def test_arrays_and_index_match_fresh_build(self, kind, build):
        instance = make_instance()
        make_solver("DeDPO").solve(instance)  # warm every layer
        apply_mutation(instance, build(instance))
        assert_structurally_fresh(instance)

    @pytest.mark.parametrize("kind,build", MUTATION_CASES, ids=[k for k, _ in MUTATION_CASES])
    def test_delta_solve_bitmatches_cold_solve(self, kind, build):
        instance = make_instance()
        for name in SOLVERS:
            make_solver(name).solve(instance)
        apply_mutation(instance, build(instance))
        assert_delta_matches_cold(instance)

    def test_mutation_stream_stays_bit_identical(self):
        instance = make_instance(num_events=8, num_users=16)
        make_solver("DeDPO").solve(instance)
        stream = [
            BudgetChange(2, 1.5),
            CapacityChange(0, 2),
            UtilityChange(3, 5, 0.42),
            DropEvent(6),
            AddUser(
                location=(1.0, 9.0),
                budget=40.0,
                utilities=tuple(0.3 for _ in range(7)),
            ),
            DropUser(0),
        ]
        for mutation in stream:
            apply_mutation(instance, mutation)
            assert_delta_matches_cold(instance)
        assert_structurally_fresh(instance)


class TestMemoExactness:
    def test_delta_resolve_reruns_only_dirty_users(self):
        # Uncontended capacities: no pseudo-copy runs out, so every
        # view holds full utilities and a re-solve after one budget edit
        # misses exactly once (the dirty user) and memo-hits everyone
        # else.
        instance = make_instance(mean_capacity=5000, num_users=50)
        engine = instance.arrays().engine()
        make_solver("DeDPO").solve(instance)
        apply_mutation(instance, BudgetChange(3, 1.0))
        hits0, misses0 = engine.memo.hits, engine.memo.misses
        make_solver("DeDPO").solve(instance)
        assert engine.memo.misses - misses0 == 1
        assert engine.memo.hits - hits0 == instance.num_users - 1

    def test_memo_entries_survive_user_renumbering(self):
        instance = make_instance(mean_capacity=5000, num_users=30)
        engine = instance.arrays().engine()
        make_solver("DeDPO").solve(instance)
        apply_mutation(instance, DropUser(10))
        misses0 = engine.memo.misses
        make_solver("DeDPO").solve(instance)
        # nobody is dirty: remaining users' entries were id-shifted
        assert engine.memo.misses == misses0


class TestStalenessImpossibleByConstruction:
    """Regressions for the re-solve and build-cache staleness hazards."""

    def test_mutate_then_resolve_never_replays_premutation_planning(self):
        instance = make_instance()
        solver = make_solver("DeDPO")
        before = solver.solve(instance)
        # kill the utility of a scheduled pair: the planning must change
        user_id, events = next(
            (u, evs) for u, evs in sorted(before.as_dict().items()) if evs
        )
        apply_mutation(instance, UtilityChange(events[0], user_id, 0.0))
        after = make_solver("DeDPO").solve(instance)
        assert canonical_planning_bytes(after) != canonical_planning_bytes(
            before
        )
        assert_delta_matches_cold(instance)

    def test_build_cache_never_adopts_mutated_object(self):
        # Register the live instance, snapshot its content, mutate it.
        # A later arrival with the *old* content must not be handed the
        # mutated live object.
        instance = make_instance(seed=77)
        old_content = instance_to_dict(instance)
        registered, _hit = build_cache.get_or_register(instance)
        try:
            apply_mutation(instance, BudgetChange(0, 0.0625))
            arrival = instance_from_dict(old_content)
            resolved, _hit = build_cache.get_or_register(arrival)
            assert resolved is not instance
            np.testing.assert_array_equal(
                resolved.utility_matrix(),
                instance_from_dict(old_content).utility_matrix(),
            )
            assert resolved.users[0].budget == arrival.users[0].budget
        finally:
            build_cache.forget(instance)
            build_cache.forget(arrival)

    def test_forget_removes_registration(self):
        instance = make_instance(seed=78)
        build_cache.get_or_register(instance)
        assert build_cache.forget(instance) >= 1
        assert build_cache.forget(instance) == 0


class TestCopiedInstances:
    """A deepcopy or pickle round trip gives the twin its own ``_mu``
    and its own ``arrays.mu``; the second is no longer a view of the
    first.  A utility edit must still reach both, or the twin's next
    delta re-solve plans with the old utility."""

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_utility_edit_on_copy_matches_cold_solve(self, how):
        instance = generate_instance(
            SyntheticConfig(
                seed=3, num_events=10, num_users=40, mean_capacity=3,
                grid_size=30,
            )
        )
        make_solver("DeDPO").solve(instance)
        if how == "deepcopy":
            twin = copy.deepcopy(instance)
        else:
            twin = pickle.loads(pickle.dumps(instance))
        mutation = UtilityChange(event_id=6, user_id=1, utility=0.0)
        apply_mutation(instance, mutation)
        apply_mutation(twin, mutation)
        cold = canonical_planning_bytes(
            make_solver("DeDPO").solve(cold_twin(instance))
        )
        for live in (instance, twin):
            assert canonical_planning_bytes(
                make_solver("DeDPO").solve(live)
            ) == cold
        assert_structurally_fresh(twin)


class TestNoops:
    def test_same_capacity_is_noop(self):
        instance = make_instance()
        make_solver("DeDPO").solve(instance)
        report = apply_mutation(
            instance, CapacityChange(0, instance.events[0].capacity)
        )
        assert report.noop
        assert report.dirty_users == frozenset()
        assert instance.version == 0

    def test_same_budget_is_noop(self):
        instance = make_instance()
        report = apply_mutation(
            instance, BudgetChange(2, instance.users[2].budget)
        )
        assert report.noop
        assert instance.version == 0


class TestDegenerateDimensions:
    def test_drop_to_zero_events_and_back(self):
        instance = make_instance(num_events=2, num_users=5)
        make_solver("DeDPO").solve(instance)
        apply_mutation(instance, DropEvent(1))
        apply_mutation(instance, DropEvent(0))
        assert instance.num_events == 0
        assert_delta_matches_cold(instance)
        apply_mutation(
            instance,
            AddEvent(
                location=(1.0, 1.0),
                capacity=1,
                start=0.0,
                end=4.0,
                utilities=tuple(0.9 for _ in range(5)),
            ),
        )
        assert_delta_matches_cold(instance)

    def test_drop_to_zero_users_and_back(self):
        instance = make_instance(num_events=4, num_users=2)
        make_solver("DeDPO").solve(instance)
        apply_mutation(instance, DropUser(1))
        apply_mutation(instance, DropUser(0))
        assert instance.num_users == 0
        assert_delta_matches_cold(instance)
        apply_mutation(
            instance,
            AddUser(
                location=(0.0, 0.0),
                budget=50.0,
                utilities=tuple(0.5 for _ in range(4)),
            ),
        )
        assert_delta_matches_cold(instance)
