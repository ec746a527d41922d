"""Golden-equivalence suite: array kernels vs the seed references.

The array-backed solvers promise *bit-identical plannings* — the same
schedule for every user, not merely the same total utility — because
every tie-break of the seed implementations (duplicate DP costs, equal
pseudo-copy utilities, equal frontier utilities) is reproduced exactly.
These tests sweep ~40 randomized instances across the generator's
parameter space, plus a few degenerate shapes, and compare schedules
pairwise.
"""

import random

import pytest

from repro.algorithms import make_solver
from repro.algorithms.augment import AugmentedSolver
from repro.algorithms.dp_single import dp_single, dp_single_reference
from repro.algorithms.local_search import LocalSearchSolver
from repro.algorithms.seed_baseline import DeDPOSeed, DeGreedySeed
from repro.datagen import SyntheticConfig, generate_instance

#: (array-kernel solver, seed reference) twins.
PAIRS = (
    ("DeDP", "DeDP-seed"),
    ("DeDPO", "DeDPO-seed"),
    ("DeGreedy", "DeGreedy-seed"),
)

#: Composed variants: the registry solver (kernel base) vs the same
#: post-pass composed over the seed reference.  The post-passes are
#: deterministic, so twin bases must yield twin composites.
AUGMENTED_PAIRS = (
    ("DeDPO+RG", lambda: AugmentedSolver(DeDPOSeed())),
    ("DeGreedy+RG", lambda: AugmentedSolver(DeGreedySeed())),
)

LOCAL_SEARCH_PAIRS = (
    ("DeDPO+LS", lambda: LocalSearchSolver(DeDPOSeed())),
    ("DeGreedy+LS", lambda: LocalSearchSolver(DeGreedySeed())),
)

#: 40 randomized configurations spanning capacity, conflict, budget and
#: utility-distribution space (seed doubles as the RNG stream id), then
#: degenerate shapes.
CONFIGS = [
    SyntheticConfig(
        seed=seed,
        num_events=8 + (seed * 3) % 7,
        num_users=20 + (seed * 7) % 21,
        mean_capacity=2 + seed % 5,
        grid_size=20 + (seed * 5) % 30,
        conflict_ratio=(seed % 4) * 0.2,
        budget_factor=1.0 + (seed % 3),
        utility_distribution=("uniform", "normal", "power:0.5")[seed % 3],
    )
    for seed in range(100, 120)
] + [
    # Normal-distributed capacities (half of this band) next to uniform
    # ones, at seeds 200-219.
    SyntheticConfig(
        seed=seed,
        num_events=8 + (seed * 3) % 7,
        num_users=20 + (seed * 7) % 21,
        mean_capacity=2 + seed % 5,
        grid_size=20 + (seed * 5) % 30,
        conflict_ratio=(seed % 4) * 0.2,
        budget_factor=1.0 + (seed % 3),
        capacity_distribution=("uniform", "normal")[seed % 2],
        utility_distribution=("uniform", "normal", "power:0.5")[seed % 3],
    )
    for seed in range(200, 220)
] + [
    # Degenerate shapes: budgets too small for any round trip (empty
    # candidate sets), one contended copy per event, two users.
    SyntheticConfig(seed=300, num_events=10, num_users=24, mean_capacity=3,
                    grid_size=40, budget_factor=0.01, name="starved-budgets"),
    SyntheticConfig(seed=301, num_events=6, num_users=40, mean_capacity=1,
                    grid_size=25, name="single-copy-contended"),
    SyntheticConfig(seed=302, num_events=9, num_users=2, mean_capacity=4,
                    grid_size=30, name="two-users"),
    # One location, huge budgets and capacities: every user shares one
    # candidate set and no pseudo-copy ever runs out.
    SyntheticConfig(seed=303, num_events=8, num_users=30, mean_capacity=4000,
                    capacity_distribution="normal", grid_size=1,
                    budget_factor=50.0),
]


def _ids(config):
    return config.name or f"seed{config.seed}"


@pytest.fixture(scope="module", params=CONFIGS, ids=_ids)
def instance(request):
    return generate_instance(request.param)


@pytest.mark.parametrize("kernel,seed_name", PAIRS, ids=[p[0] for p in PAIRS])
def test_identical_plannings(instance, kernel, seed_name):
    """Same total utility AND the same schedule for every user."""
    kernel_planning = make_solver(kernel).solve(instance)
    seed_planning = make_solver(seed_name).solve(instance)
    assert kernel_planning.total_utility() == seed_planning.total_utility()
    assert kernel_planning.as_dict() == seed_planning.as_dict()


@pytest.mark.parametrize("kernel,seed_name", PAIRS, ids=[p[0] for p in PAIRS])
def test_warm_rerun_still_matches_seed(instance, kernel, seed_name):
    """The incremental engine's warm path vs the seed reference: a
    re-solve on an already-solved instance is served almost entirely
    from the schedule memo (docs/performance.md), and must still be
    bit-identical to the seed twin — a memo hit may only ever replay
    exactly what a cold run would compute."""
    solver = make_solver(kernel)
    solver.solve(instance)  # warm the candidate index + schedule memo
    warm_planning = solver.solve(instance)
    seed_planning = make_solver(seed_name).solve(instance)
    assert warm_planning.total_utility() == seed_planning.total_utility()
    assert warm_planning.as_dict() == seed_planning.as_dict()


@pytest.mark.parametrize(
    "kernel,seed_factory",
    AUGMENTED_PAIRS + LOCAL_SEARCH_PAIRS,
    ids=[p[0] for p in AUGMENTED_PAIRS + LOCAL_SEARCH_PAIRS],
)
def test_composed_variants_identical_plannings(instance, kernel, seed_factory):
    """+RG augmentation and the +LS refiner preserve twin equivalence:
    the registry solver (kernel base) and the seed-composed solver must
    produce the same planning, schedule for schedule."""
    kernel_planning = make_solver(kernel).solve(instance)
    seed_planning = seed_factory().solve(instance)
    assert kernel_planning.total_utility() == seed_planning.total_utility()
    assert kernel_planning.as_dict() == seed_planning.as_dict()


@pytest.mark.parametrize("kernel,_", AUGMENTED_PAIRS, ids=[p[0] for p in AUGMENTED_PAIRS])
def test_augmentation_never_lowers_utility(instance, kernel, _):
    """+RG only ever adds pairs, so it can't lose utility vs its base."""
    base = kernel.split("+")[0]
    base_utility = make_solver(base).solve(instance).total_utility()
    assert make_solver(kernel).solve(instance).total_utility() >= base_utility


@pytest.mark.parametrize(
    "kernel,_", LOCAL_SEARCH_PAIRS, ids=[p[0] for p in LOCAL_SEARCH_PAIRS]
)
def test_local_search_dominates_rg_fixpoint(instance, kernel, _):
    """The +LS move set strictly contains +RG's, so its fixed point is
    never worse than the +RG result from the same base."""
    base = kernel.split("+")[0]
    rg_utility = make_solver(f"{base}+RG").solve(instance).total_utility()
    assert make_solver(kernel).solve(instance).total_utility() >= rg_utility - 1e-9


def test_dp_single_matches_reference(instance):
    """The DP kernel alone, on randomized candidate sets and utilities."""
    rng = random.Random(instance.num_events * 1000 + instance.num_users)
    num_events = instance.num_events
    for user_id in range(min(instance.num_users, 10)):
        candidates = [i for i in range(num_events) if rng.random() < 0.7]
        utilities = {i: rng.uniform(0.1, 5.0) for i in candidates}
        # duplicate some utilities to exercise tie-breaking
        for i in candidates[::3]:
            utilities[i] = 1.0
        fast = dp_single(instance, user_id, candidates, utilities)
        slow = dp_single_reference(instance, user_id, candidates, utilities)
        assert fast == slow


def test_dp_single_matches_reference_zero_budget():
    """Degenerate budgets: empty schedules from both implementations."""
    inst = generate_instance(
        SyntheticConfig(
            seed=7, num_events=8, num_users=5, mean_capacity=3, budget_factor=0.0
        )
    )
    for user_id in range(inst.num_users):
        candidates = list(range(inst.num_events))
        utilities = {i: 1.0 for i in candidates}
        assert dp_single(inst, user_id, candidates, utilities) == (
            dp_single_reference(inst, user_id, candidates, utilities)
        )
