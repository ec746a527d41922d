"""End-to-end guarantees of the incremental scheduling engine.

The engine (docs/performance.md) may only skip work, never change an
answer: warm re-solves, cross-solver memo sharing, +RG compositions and
checkpoint-resumed sweeps must all produce plannings bit-identical to a
cold run — which the golden suite separately pins to the ``*-seed``
references.  Profile counters must stay out of default rows.
"""

import pytest

from repro.algorithms import make_solver
from repro.core import instrument
from repro.core.candidates import get_engine
from repro.datagen import SyntheticConfig, generate_instance
from repro.experiments import SweepPoint, run_sweep
from repro.service.checkpoint import strip_timing

CONFIGS = [
    SyntheticConfig(
        seed=seed,
        num_events=7 + (seed * 5) % 8,
        num_users=18 + (seed * 3) % 22,
        mean_capacity=2 + seed % 4,
        conflict_ratio=(seed % 3) * 0.3,
        budget_factor=1.0 + (seed % 3) * 0.75,
        utility_distribution=("uniform", "normal", "power:0.5")[seed % 3],
    )
    for seed in range(400, 408)
]

SOLVERS = ("DeDP", "DeDPO", "DeGreedy", "DeDPO+RG", "DeGreedy+RG")


def _ids(config):
    return f"seed{config.seed}"


@pytest.fixture(params=CONFIGS, ids=_ids)
def config(request):
    return request.param


@pytest.mark.parametrize("name", SOLVERS)
def test_warm_resolve_bit_identical(config, name):
    """Three solves on one instance == a solve on a fresh instance."""
    warm = generate_instance(config)
    solver = make_solver(name)
    plannings = [solver.solve(warm).as_dict() for _ in range(3)]
    cold = make_solver(name).solve(generate_instance(config)).as_dict()
    assert plannings[0] == plannings[1] == plannings[2] == cold


def test_second_solve_is_all_memo_hits(config):
    instance = generate_instance(config)
    engine = get_engine(instance)
    make_solver("DeDPO").solve(instance)
    hits0, misses0 = engine.memo.hits, engine.memo.misses
    make_solver("DeDPO").solve(instance)
    assert engine.memo.hits - hits0 == instance.num_users
    assert engine.memo.misses == misses0


def test_dedp_warms_dedpo(config):
    """Lemma 2: DeDP and DeDPO see the same per-user candidate views,
    so DeDPO after DeDP on the same instance reuses schedules.  Not
    necessarily all of them: DeDP reaches ``mu - mu(v, u_last)`` by a
    telescoping chain of float subtractions while DeDPO subtracts once,
    so a re-stolen copy's view can differ by ulps — an exact-key miss
    that recomputes (never a wrong hit).  Plannings stay identical."""
    instance = generate_instance(config)
    engine = get_engine(instance)
    dedp = make_solver("DeDP").solve(instance)
    hits0 = engine.memo.hits
    dedpo = make_solver("DeDPO").solve(instance)
    assert dedp.as_dict() == dedpo.as_dict()
    assert engine.memo.hits - hits0 >= instance.num_users * 3 // 4


def test_augmented_base_reuses_memo(config):
    """+RG re-runs its base solver; on a warm instance that re-run must
    be pure memo hits and the composite planning must be unchanged."""
    instance = generate_instance(config)
    engine = get_engine(instance)
    cold = make_solver("DeGreedy+RG").solve(instance).as_dict()
    hits0, misses0 = engine.memo.hits, engine.memo.misses
    warm = make_solver("DeGreedy+RG").solve(instance).as_dict()
    assert warm == cold
    assert engine.memo.misses == misses0
    assert engine.memo.hits - hits0 == instance.num_users


def test_default_rows_carry_no_profile_counters(config):
    """Profile counters depend on cache warmth — default rows (whose
    byte-identity journals and parallel sweeps rely on) must not see
    them, and no counter set may leak active after a run."""
    instance = generate_instance(config)
    run = make_solver("DeDPO").run(instance)
    assert not any(instrument.is_profile_key(key) for key in run.counters)
    assert instrument.active() is None
    profiled = make_solver("DeDPO").run(instance, profile=True)
    assert any(instrument.is_profile_key(key) for key in profiled.counters)
    assert instrument.active() is None


def test_single_dirty_user_is_the_only_miss():
    """Evict one user's memo entry: the re-solve reschedules that user
    alone and memo-hits everyone else."""
    config = SyntheticConfig(
        seed=304, num_events=10, num_users=20, mean_capacity=2000,
        capacity_distribution="normal", grid_size=30,
    )
    instance = generate_instance(config)
    first = make_solver("DeDPO").solve(instance)
    engine = get_engine(instance)
    del engine.memo._last[("dp", 7)]
    with instrument.profiled(enabled=True) as prof:
        second = make_solver("DeDPO").solve(instance)
    assert second.as_dict() == first.as_dict()
    assert prof.get("sched_cache_misses") == 1


def _points(n=2):
    def builder(seed):
        return lambda: generate_instance(
            SyntheticConfig(
                num_events=6, num_users=12, mean_capacity=3, grid_size=15, seed=seed
            )
        )

    return [SweepPoint(axis_value=seed, build=builder(seed)) for seed in range(n)]


def test_resume_after_checkpoint_matches_uninterrupted(tmp_path):
    """A sweep killed mid-way and resumed must reproduce the
    uninterrupted sweep's rows (timing aside) — the resumed cells run
    on a rebuilt instance whose engine starts cold, so this also pins
    warm-vs-cold equality at the row level."""
    algorithms = ["DeDPO", "DeGreedy", "DeDPO+RG"]
    uninterrupted = run_sweep("n", _points(), algorithms, measure_memory=False)

    journal = tmp_path / "sweep.jsonl"
    run_sweep(
        "n", _points(), algorithms, measure_memory=False, journal=str(journal)
    )
    lines = journal.read_text().splitlines()
    cut = 1 + (len(lines) - 1) // 2  # header + half the cells survive
    journal.write_text("\n".join(lines[:cut]) + "\n")
    resumed = run_sweep(
        "n",
        _points(),
        algorithms,
        measure_memory=False,
        journal=str(journal),
        resume=True,
    )
    assert sum(1 for row in resumed.rows if row.get("resumed")) == cut - 1
    for fresh, replay in zip(uninterrupted.rows, resumed.rows):
        fresh = dict(strip_timing(fresh))
        replay = dict(strip_timing(replay))
        fresh.pop("resumed", None)
        replay.pop("resumed", None)
        assert fresh == replay
