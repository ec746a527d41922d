"""Differential fuzzing of every registry solver (repro.verify.fuzz).

Three layers:

* a fixed-seed campaign over every registry algorithm (``*-seed`` twins
  included) must come back clean — oracle-verified outputs, bit-identical
  kernel/seed plannings, certified 1/2-approximation on small instances;
* deliberately broken solvers (capacity overflow, budget overrun,
  utility inflation) injected via ``extra_solvers`` must be caught,
  shrunk to a minimal config, and dumped as a JSON repro that
  :func:`repro.verify.fuzz.replay` reproduces from the file alone;
* the campaign must be exactly reproducible from its seed.
"""

import dataclasses
import json

from repro.algorithms.base import Solver
from repro.algorithms.decomposed import DeGreedy
from repro.core.planning import Planning
from repro.verify import fuzz
from repro.verify.fuzz import (
    FuzzFinding,
    config_from_dict,
    default_algorithms,
    random_config,
    run_fuzz,
    shrink_config,
)

#: Instances per clean-campaign test run; CI's time-boxed job and the
#: acceptance run push this to 200+, the unit test keeps tier-1 fast.
CLEAN_INSTANCES = 60


class TestCleanCampaign:
    def test_all_registry_algorithms_fuzz_clean(self):
        report = run_fuzz(seed=20260806, max_instances=CLEAN_INSTANCES)
        assert report.ok, report.summary()
        assert report.instances_run == CLEAN_INSTANCES
        # every registry solver except the size-capped Exact participates
        assert "Exact" not in report.algorithms
        for twin in ("DeDP-seed", "DeDPO-seed", "DeGreedy-seed"):
            assert twin in report.algorithms

    def test_campaign_is_seed_reproducible(self):
        rng_a, rng_b = (fuzz.random.Random(99), fuzz.random.Random(99))
        configs_a = [random_config(rng_a) for _ in range(10)]
        configs_b = [random_config(rng_b) for _ in range(10)]
        assert configs_a == configs_b

    def test_time_budget_boxes_the_campaign(self):
        report = run_fuzz(seed=3, max_instances=10_000, time_budget_s=0.0)
        assert report.instances_run <= 1
        assert report.ok

    def test_nothing_written_on_success(self, tmp_path):
        out = tmp_path / "repro.json"
        report = run_fuzz(seed=5, max_instances=5, out_path=str(out))
        assert report.ok
        assert not out.exists()


# ----------------------------------------------------------------------
# sabotaged solvers: the harness must catch each constraint violation
# ----------------------------------------------------------------------


class _OverCapacitySolver(Solver):
    """Seats every user at event 0, ignoring capacity/budget/utility."""

    name = "BrokenCapacity"

    def solve(self, instance):
        planning = Planning(instance)
        if instance.num_events:
            for user_id in range(instance.num_users):
                try:
                    planning.add_pair(0, user_id)
                except Exception:
                    pass
        return planning


class _LyingPlanning(Planning):
    """Reports one utility unit more than its schedules are worth."""

    def total_utility(self):
        return super().total_utility() + 1.0


class _UtilityInflationSolver(Solver):
    """Feasible planning whose reported utility is silently inflated."""

    name = "BrokenOmega"

    def solve(self, instance):
        planning = DeGreedy().solve(instance)
        lying = _LyingPlanning(instance)
        lying.schedules = planning.schedules
        lying._occupancy = planning._occupancy
        return lying


class _NonTwinSolver(Solver):
    """Claims to be DeGreedy's kernel twin but returns an empty planning."""

    name = "DeGreedy"

    def solve(self, instance):
        return Planning(instance)


class TestBrokenSolversAreCaught:
    def test_capacity_violation_caught_and_shrunk(self, tmp_path):
        out = tmp_path / "fuzz_failure.json"
        report = run_fuzz(
            seed=1,
            max_instances=200,
            algorithms=["DeGreedy"],
            extra_solvers={"BrokenCapacity": _OverCapacitySolver},
            certify=False,
            out_path=str(out),
        )
        assert not report.ok
        assert any(f.kind.startswith("oracle") for f in report.findings)
        assert any(f.solver == "BrokenCapacity" for f in report.findings)
        # shrinking only ever simplifies
        assert report.shrunk_config is not None
        assert report.shrunk_config.num_events <= report.failing_config.num_events
        assert report.shrunk_config.num_users <= report.failing_config.num_users

        # the JSON repro is complete and replayable from the file alone
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["master_seed"] == 1
        assert payload["shrunk_config"]["num_events"] >= 1
        assert payload["findings"]
        replayed = fuzz.replay(
            str(out),
            algorithms=["DeGreedy"],
            extra_solvers={"BrokenCapacity": _OverCapacitySolver},
            certify=False,
        )
        assert any(f.kind.startswith("oracle") for f in replayed)

    def test_omega_inflation_caught(self):
        report = run_fuzz(
            seed=2,
            max_instances=100,
            algorithms=["DeGreedy"],
            extra_solvers={"BrokenOmega": _UtilityInflationSolver},
            certify=False,
            shrink=False,
        )
        assert not report.ok
        assert any(
            f.solver == "BrokenOmega" and f.kind == "oracle:omega"
            for f in report.findings
        )

    def test_twin_divergence_caught(self):
        # an (empty) impostor under the kernel's name diverges from the
        # seed twin on any instance where DeGreedy arranges a pair
        report = run_fuzz(
            seed=4,
            max_instances=100,
            algorithms=["DeGreedy-seed"],
            extra_solvers={"DeGreedy": _NonTwinSolver},
            certify=False,
            shrink=False,
        )
        assert not report.ok
        assert any(f.kind == "twin" for f in report.findings)

    def test_replay_without_extra_solver_is_clean(self, tmp_path):
        """A repro whose bug lived in an unregistered solver replays clean
        when that solver is not re-supplied — the registry itself is fine."""
        out = tmp_path / "fuzz_failure.json"
        run_fuzz(
            seed=1,
            max_instances=200,
            algorithms=["DeGreedy"],
            extra_solvers={"BrokenCapacity": _OverCapacitySolver},
            certify=False,
            out_path=str(out),
        )
        assert fuzz.replay(str(out), algorithms=["DeGreedy"], certify=False) == []


class TestShrinking:
    def test_shrink_reaches_a_fixpoint(self):
        config = random_config(fuzz.random.Random(11)).with_overrides(
            num_events=10, num_users=12
        )
        shrunk, findings = shrink_config(
            config,
            ["DeGreedy"],
            extra_solvers={"BrokenCapacity": _OverCapacitySolver},
            certify=False,
        )
        assert findings, "sabotage must reproduce on the shrunk config"
        # fixpoint: shrinking the result again changes nothing
        again, _ = shrink_config(
            shrunk,
            ["DeGreedy"],
            extra_solvers={"BrokenCapacity": _OverCapacitySolver},
            certify=False,
        )
        assert dataclasses.asdict(again) == dataclasses.asdict(shrunk)

    def test_clean_config_is_not_shrunk(self):
        config = random_config(fuzz.random.Random(12))
        shrunk, findings = shrink_config(config, ["DeGreedy"], certify=False)
        assert findings == []
        assert shrunk == config


class TestConfigRoundTrip:
    def test_config_json_round_trip(self):
        config = random_config(fuzz.random.Random(13))
        data = json.loads(json.dumps(dataclasses.asdict(config)))
        assert config_from_dict(data) == config

    def test_unknown_keys_ignored(self):
        config = random_config(fuzz.random.Random(14))
        data = dataclasses.asdict(config)
        data["not_a_field"] = 1
        assert config_from_dict(data) == config


def test_default_algorithms_cover_registry_minus_exact():
    from repro.algorithms.registry import available_solvers

    names = default_algorithms()
    assert "Exact" not in names
    assert set(names) == set(available_solvers()) - {"Exact"}


def test_finding_serialisation():
    finding = FuzzFinding("X", "oracle:budget", "boom")
    assert finding.to_dict() == {
        "solver": "X",
        "kind": "oracle:budget",
        "message": "boom",
    }


# ----------------------------------------------------------------------
# churn mode: the dynamic-layer differential fuzzer
# ----------------------------------------------------------------------


class TestChurnFuzz:
    def test_clean_churn_campaign(self):
        report = fuzz.run_churn_fuzz(seed=606, streams=4, mutations_per_stream=10)
        assert report.ok, report.summary()
        assert report.mode == "churn"
        assert report.instances_run == 4
        assert list(report.algorithms) == list(fuzz.CHURN_ALGORITHMS)

    def test_streams_are_seed_reproducible(self):
        config = random_config(fuzz.random.Random(21)).with_overrides(
            num_events=6, num_users=8
        )
        stream_a = fuzz.generate_churn_stream(config, fuzz.random.Random(5), 12)
        stream_b = fuzz.generate_churn_stream(config, fuzz.random.Random(5), 12)
        assert stream_a == stream_b

    def test_time_budget_boxes_the_campaign(self):
        report = fuzz.run_churn_fuzz(
            seed=3, streams=10_000, mutations_per_stream=5, time_budget_s=0.0
        )
        assert report.instances_run <= 1
        assert report.ok

    def test_broken_invalidation_is_caught_shrunk_and_replayable(
        self, tmp_path, monkeypatch
    ):
        # Sabotage the staleness machinery: a no-op memo eviction keeps
        # a dirty user's pre-mutation schedule.  A budget change leaves
        # the user's candidate view (the memo key) as it was, so the
        # delta solve reuses a schedule planned for the old budget.
        # The churn fuzzer must catch the divergence, shrink the
        # stream, and dump a repro that replays from the file alone.
        from repro.core.candidates import ScheduleMemo

        out = tmp_path / "churn_failure.json"
        with monkeypatch.context() as patch:
            patch.setattr(ScheduleMemo, "evict_users", lambda self, users: 0)
            report = fuzz.run_churn_fuzz(
                seed=9, streams=30, mutations_per_stream=15, out_path=str(out)
            )
            assert not report.ok
            assert all(f.kind.startswith("churn") for f in report.findings)
            assert report.failing_mutations
            assert report.shrunk_mutations is not None
            assert len(report.shrunk_mutations) <= len(report.failing_mutations)

            payload = json.loads(out.read_text())
            assert payload["mode"] == "churn"
            assert payload["mutations"]
            assert payload["shrunk_mutations"]
            # replays (bug still in place) and reproduces the finding
            assert fuzz.replay(str(out))
        # bug removed: the same artifact replays clean
        assert fuzz.replay(str(out)) == []

    def test_mutations_invalid_for_shrunk_stream_are_skipped(self):
        # A shrunk subsequence can reference ids its removed prefix
        # would have created; the checker skips those instead of dying.
        from repro.core.deltas import BudgetChange, DropUser
        from repro.datagen import SyntheticConfig

        config = SyntheticConfig(num_events=2, num_users=2, seed=1)

        findings = fuzz.fuzz_churn(
            config,
            [DropUser(1), DropUser(0), BudgetChange(1, 5.0)],
            algorithms=["DeGreedy"],
        )
        assert findings == []
