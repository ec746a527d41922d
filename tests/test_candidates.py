"""Candidate index + schedule memo: the incremental engine's parts.

The :class:`~repro.core.candidates.CandidateIndex` must equal the
brute-force per-user filter the schedulers apply internally (Lemma 1
round-trip pruning + positive utility, end-time order), and the
:class:`~repro.core.candidates.ScheduleMemo` must only ever replay
answers for bit-identical candidate views.  See docs/performance.md.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_solver
from repro.core.candidates import ScheduleMemo, get_engine, view_key
from repro.core.instance import USEPInstance
from repro.datagen import SyntheticConfig, generate_instance

CONFIGS = [
    SyntheticConfig(
        seed=seed,
        num_events=6 + (seed * 3) % 9,
        num_users=15 + (seed * 7) % 25,
        mean_capacity=2 + seed % 4,
        conflict_ratio=(seed % 4) * 0.25,
        budget_factor=0.5 + (seed % 4),
        utility_distribution=("uniform", "normal", "power:0.5")[seed % 3],
    )
    for seed in range(300, 308)
]


def _ids(config):
    return f"seed{config.seed}"


@pytest.fixture(params=CONFIGS, ids=_ids)
def instance(request):
    return generate_instance(request.param)


def _brute_force_survivors(instance, user_id):
    """The schedulers' own filter, applied the scalar way."""
    to_event = instance.costs_to_events(user_id)
    from_event = instance.costs_from_events(user_id)
    budget = instance.users[user_id].budget
    mu = instance.utility_matrix()
    kept = [
        ev_id
        for ev_id in range(instance.num_events)
        if mu[ev_id][user_id] > 0.0
        and to_event[ev_id] + from_event[ev_id] <= budget
    ]
    kept.sort(key=instance.arrays().pos_list.__getitem__)
    return kept


class TestCandidateIndex:
    def test_matches_brute_force_filter(self, instance):
        index = get_engine(instance).index
        assert index is not None
        for user_id in range(instance.num_users):
            assert index.per_user[user_id] == _brute_force_survivors(
                instance, user_id
            )

    def test_counters_are_consistent(self, instance):
        index = get_engine(instance).index
        mu = instance.arrays().mu
        assert index.positive_pairs == int((mu > 0.0).sum())
        assert index.survivor_pairs == sum(len(c) for c in index.per_user)
        assert index.pruned_pairs == index.positive_pairs - index.survivor_pairs
        assert index.pruned_pairs >= 0

    def test_built_once_per_instance(self, instance):
        engine = get_engine(instance)
        assert engine.index is engine.index
        assert get_engine(instance) is engine


class TestCacheUserCostsOff:
    """The bounded-memory contract disables the index, never correctness."""

    def _cache_off_twin(self, instance):
        return USEPInstance(
            instance.events,
            instance.users,
            instance.cost_model,
            instance.utility_matrix(),
            cache_user_costs=False,
        )

    def test_index_is_none(self, instance):
        off = self._cache_off_twin(instance)
        assert get_engine(off).index is None

    @pytest.mark.parametrize("name", ["DeDP", "DeDPO", "DeGreedy"])
    def test_fallback_plannings_identical(self, instance, name):
        off = self._cache_off_twin(instance)
        with_index = make_solver(name).solve(instance)
        without_index = make_solver(name).solve(off)
        assert with_index.as_dict() == without_index.as_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        num_events=st.integers(1, 14),
        num_users=st.integers(1, 40),
        mean_capacity=st.integers(1, 5),
        conflict_ratio=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        budget_factor=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        distribution=st.sampled_from(["uniform", "normal", "power:0.5"]),
    )
    def test_fallback_plannings_identical_on_drawn_instances(
        self, seed, num_events, num_users, mean_capacity, conflict_ratio,
        budget_factor, distribution,
    ):
        """The indexed scan against the index-less one, and each
        against its ``*-seed`` twin's per-candidate ``pick`` scan."""
        instance = generate_instance(SyntheticConfig(
            seed=seed,
            num_events=num_events,
            num_users=num_users,
            mean_capacity=mean_capacity,
            conflict_ratio=conflict_ratio,
            budget_factor=budget_factor,
            utility_distribution=distribution,
        ))
        off = self._cache_off_twin(instance)
        for name in ("DeDP", "DeDPO", "DeGreedy"):
            with_index = make_solver(name).solve(instance)
            without_index = make_solver(name).solve(off)
            assert with_index.as_dict() == without_index.as_dict(), name
            seed_twin = make_solver(f"{name}-seed").solve(off)
            assert without_index.as_dict() == seed_twin.as_dict(), name


class TestScheduleMemo:
    def test_hit_requires_identical_view(self):
        memo = ScheduleMemo()
        view = view_key([3, 5], {3: 1.0, 5: 0.25})
        assert memo.get("dp", 0, view) is None
        memo.put("dp", 0, view, [5])
        assert memo.get("dp", 0, view) == (5,)
        # any utility perturbation is a dirty user
        dirty = view_key([3, 5], {3: 1.0, 5: 0.25 + 1e-15})
        assert memo.get("dp", 0, dirty) is None
        # candidate order is part of the view
        reordered = view_key([5, 3], {3: 1.0, 5: 0.25})
        assert memo.get("dp", 0, reordered) is None

    def test_empty_schedule_hits_are_not_misses(self):
        memo = ScheduleMemo()
        view = view_key([], {})
        memo.put("dp", 1, view, [])
        assert memo.get("dp", 1, view) == ()

    def test_kinds_and_users_are_separate(self):
        memo = ScheduleMemo()
        view = view_key([2], {2: 0.5})
        memo.put("dp", 0, view, [2])
        assert memo.get("greedy", 0, view) is None
        assert memo.get("dp", 1, view) is None

    def test_only_last_view_is_kept(self):
        memo = ScheduleMemo()
        first = view_key([1], {1: 0.5})
        second = view_key([1], {1: 0.75})
        memo.put("dp", 0, first, [1])
        memo.put("dp", 0, second, [])
        assert memo.get("dp", 0, first) is None
        assert memo.get("dp", 0, second) == ()
        assert memo.stats()["entries"] == 1
