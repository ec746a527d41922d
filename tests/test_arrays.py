"""Tests for the array-backed compute layer (repro.core.arrays)."""

import math

import numpy as np
import pytest

from repro.algorithms import make_solver
from repro.algorithms.base import warm_instance
from repro.core.arrays import InstanceArrays, get_arrays
from repro.core.deltas import AddEvent, AddUser, apply_mutation
from repro.datagen import SyntheticConfig, generate_instance
from repro.variants import apply_participation_fees


@pytest.fixture(scope="module")
def inst():
    return generate_instance(
        SyntheticConfig(
            seed=3, num_events=10, num_users=25, mean_capacity=4, grid_size=25
        )
    )


class TestMatrices:
    def test_vv_matches_scalar_accessor(self, inst):
        arrays = inst.arrays()
        for i in range(inst.num_events):
            for j in range(inst.num_events):
                # Column lists: vv_cols[dst][src] is the leg src -> dst.
                assert arrays.vv_cols[j][i] == inst.cost_vv(i, j)
                assert type(arrays.vv_cols[j][i]) is float

    def test_mu_matches_utility(self, inst):
        arrays = inst.arrays()
        for i in range(inst.num_events):
            for u in range(inst.num_users):
                assert arrays.mu[i, u] == inst.utility(i, u)

    def test_user_cost_matrices_match_rows(self, inst):
        arrays = inst.arrays()
        for u in range(inst.num_users):
            assert arrays.to_events[u].tolist() == inst.costs_to_events(u)
            assert arrays.from_events[u].tolist() == inst.costs_from_events(u)
        np.testing.assert_array_equal(
            arrays.round_trip, arrays.to_events + arrays.from_events
        )

    def test_conflicts_are_inf(self, inst):
        arrays = inst.arrays()
        for i in range(inst.num_events):
            for j in range(inst.num_events):
                ei, ej = inst.events[i], inst.events[j]
                if i != j and ej.start < ei.end:
                    assert math.isinf(arrays.vv_cols[j][i])


class TestOrdering:
    def test_order_pos_inverse(self, inst):
        arrays = inst.arrays()
        assert sorted(arrays.order.tolist()) == list(range(inst.num_events))
        for slot, event_id in enumerate(arrays.order.tolist()):
            assert arrays.pos_list[event_id] == slot

    def test_order_sorted_by_end_time(self, inst):
        arrays = inst.arrays()
        ends = [inst.events[i].end for i in arrays.order.tolist()]
        assert ends == sorted(ends)

    def test_l_index_is_equation_4(self, inst):
        """l_i counts predecessors ending at or before event i starts."""
        arrays = inst.arrays()
        order = arrays.order.tolist()
        for slot, event_id in enumerate(order):
            start = inst.events[event_id].start
            expected = sum(
                1 for other in order[:slot] if inst.events[other].end <= start
            )
            # Equation (4)'s l_i is a prefix length: all events in
            # order[:l_i] end at or before the start of event i.
            l_i = inst.l_index[arrays.pos_list[event_id]]
            assert l_i <= slot
            assert all(
                inst.events[order[k]].end <= start for k in range(l_i)
            )
            assert l_i == expected


class TestCaching:
    def test_get_arrays_cached_on_instance(self, inst):
        assert get_arrays(inst) is get_arrays(inst)
        assert inst.arrays() is get_arrays(inst)

    def test_fresh_instance_builds_lazily(self):
        fresh = generate_instance(
            SyntheticConfig(seed=4, num_events=6, num_users=8, mean_capacity=3)
        )
        assert fresh._arrays is None
        arrays = fresh.arrays()
        assert isinstance(arrays, InstanceArrays)
        assert fresh._arrays is arrays


class TestUncachedUserCosts:
    """cache_user_costs=False keeps its bounded-memory contract."""

    @pytest.fixture(scope="class")
    def uncached(self):
        return generate_instance(
            SyntheticConfig(
                seed=3,
                num_events=10,
                num_users=25,
                mean_capacity=4,
                grid_size=25,
                cache_user_costs=False,
            )
        )

    def test_no_user_matrices(self, uncached):
        arrays = uncached.arrays()
        assert arrays.to_events is None
        assert arrays.from_events is None
        assert arrays.round_trip is None

    def test_user_cost_rows_still_served(self, uncached, inst):
        for u in range(uncached.num_users):
            to_row, from_row = uncached.arrays().user_cost_rows(u)
            assert to_row == inst.costs_to_events(u)
            assert from_row == inst.costs_from_events(u)

    @pytest.mark.parametrize("name", ["DeDP", "DeDPO", "DeGreedy"])
    def test_solvers_identical_without_cache(self, uncached, inst, name):
        cached_planning = make_solver(name).solve(inst)
        uncached_planning = make_solver(name).solve(uncached)
        assert cached_planning.as_dict() == uncached_planning.as_dict()
        assert cached_planning.total_utility() == uncached_planning.total_utility()


def _fresh(seed=7, **dims):
    config = dict(num_events=8, num_users=12, mean_capacity=3, grid_size=20)
    config.update(dims)
    return generate_instance(SyntheticConfig(seed=seed, **config))


def _scalar_matrices(instance):
    """``(to, from)`` from one scalar cost-model call per pair."""
    model = instance.cost_model
    to_m = [[model.user_to_event(u, v) for v in instance.events] for u in instance.users]
    from_m = [[model.event_to_user(v, u) for v in instance.events] for u in instance.users]
    return np.array(to_m, dtype=float), np.array(from_m, dtype=float)


class TestBulkUserMatrices:
    """The user matrices come from the cost model's bulk methods."""

    def test_matrices_equal_the_scalar_legs_bit_for_bit(self):
        instance = _fresh()
        arrays = instance.arrays()
        to_m, from_m = _scalar_matrices(instance)
        assert arrays.to_events.tobytes() == to_m.tobytes()
        assert arrays.from_events.tobytes() == from_m.tobytes()

    def test_manhattan_build_makes_no_scalar_calls(self, monkeypatch):
        instance = _fresh()
        model = instance.cost_model
        calls = []
        scalar = model.user_to_event
        monkeypatch.setattr(
            model, "user_to_event", lambda u, v: calls.append(1) or scalar(u, v)
        )
        instance.arrays()
        assert calls == []

    def test_row_caches_filled_without_shared_lists(self):
        instance = _fresh()
        arrays = instance.arrays()
        to_cache = instance._to_event_cache
        from_cache = instance._from_event_cache
        assert sorted(to_cache) == sorted(from_cache) == list(range(instance.num_users))
        for user_id in range(instance.num_users):
            assert to_cache[user_id] == arrays.to_events[user_id].tolist()
            assert from_cache[user_id] == arrays.from_events[user_id].tolist()
            # core/deltas.py appends to both in place.
            assert to_cache[user_id] is not from_cache[user_id]

    def test_rows_cached_before_the_build_are_kept(self):
        instance = _fresh()
        early = instance.costs_to_events(3)
        instance.arrays()
        assert instance.costs_to_events(3) is early

    def test_add_event_appends_one_cost_per_row_and_direction(self):
        instance = _fresh()
        arrays = instance.arrays()
        before = instance.num_events
        apply_mutation(
            instance,
            AddEvent(
                location=(4.0, 9.0),
                capacity=2,
                start=1.0,
                end=3.0,
                utilities=tuple(0.5 for _ in range(instance.num_users)),
            ),
        )
        for cache in (instance._to_event_cache, instance._from_event_cache):
            assert all(len(row) == before + 1 for row in cache.values())
        to_m, from_m = _scalar_matrices(instance)
        assert arrays.to_events.tobytes() == to_m.tobytes()
        assert arrays.from_events.tobytes() == from_m.tobytes()
        for user_id in range(instance.num_users):
            assert instance.costs_to_events(user_id) == to_m[user_id].tolist()
            assert instance.costs_from_events(user_id) == from_m[user_id].tolist()

    def test_add_user_after_the_build(self):
        instance = _fresh()
        arrays = instance.arrays()
        apply_mutation(
            instance,
            AddUser(
                location=(2.0, 3.0),
                budget=40.0,
                utilities=tuple(0.25 for _ in range(instance.num_events)),
            ),
        )
        to_m, from_m = _scalar_matrices(instance)
        assert arrays.to_events.tobytes() == to_m.tobytes()
        assert arrays.from_events.tobytes() == from_m.tobytes()

    def test_asymmetric_fee_model_keeps_its_directions_apart(self):
        base = _fresh()
        fees = {v: 1.0 + v for v in range(base.num_events)}
        instance = apply_participation_fees(base, fees)
        arrays = instance.arrays()
        to_m, from_m = _scalar_matrices(instance)
        assert arrays.to_events.tobytes() == to_m.tobytes()
        assert arrays.from_events.tobytes() == from_m.tobytes()
        # entry carries the fee, the way home does not
        np.testing.assert_array_equal(
            arrays.to_events - arrays.from_events,
            np.tile([fees[v] for v in range(base.num_events)], (base.num_users, 1)),
        )

    def test_warm_instance_builds_everything(self):
        instance = _fresh()
        warm_instance(instance)
        assert instance._arrays is not None
        assert instance._vv_cost is not None
        assert len(instance._to_event_cache) == instance.num_users
        assert len(instance._from_event_cache) == instance.num_users
