"""Spatial grid partitioning: the cut, the merge, the quality contract.

The partition layer (``repro.core.partition`` + the local twin
``repro.algorithms.partitioned``) is the first layer allowed to return
a *different* answer than the sequential solver, so its tests pin the
exact shape of that allowance (docs/partitioning.md):

* a single-cell cut is the degenerate case where the old bit-identity
  contract still applies — the merged plan must be byte-identical to
  the monolithic solve;
* multi-cell cuts must stay Definition-2 feasible (independent oracle)
  and keep >= 95% of the monolithic utility over a seeded 50-config
  clustered sweep;
* the structural corners: a cell with zero attached users, a user
  whose Lemma-1 candidates span every cell, an event oversubscribed by
  exactly ``capacity + 1`` users across two cells (the reconciler's
  defensive eviction), and the replication refusal guard in both its
  strict (small-instance) and relaxed (fleet-scale) regimes.
"""

import numpy as np
import pytest

from repro.algorithms.partitioned import solve_partitioned
from repro.algorithms.registry import make_solver
from repro.core import instrument
from repro.core.costs import GridCostModel
from repro.core.entities import Event, User
from repro.core.instance import USEPInstance
from repro.core.partition import (
    MAX_REPLICATION_RATIO,
    MAX_REPLICATION_RATIO_LARGE,
    REPLICATION_STRICT_BELOW_USERS,
    PartitionError,
    partition_instance,
    reconcile,
)
from repro.core.timeutils import TimeInterval
from repro.datagen.clustered import ClusteredConfig, generate_clustered_instance
from repro.io import canonical_planning_bytes
from repro.verify import fuzz
from repro.verify.oracle import verify_planning

#: A clustered geography the default guard accepts at ``cells=4``
#: (4 well-separated districts; the fleet smoke tests use the same one).
FRIENDLY_CONFIG = ClusteredConfig(
    num_events=40, num_users=400, num_clusters=4, seed=7
)


def two_district_instance(side_users=8, central_users=2, capacity=2):
    """Two event districts on a diagonal; a 2-cell cut splits them.

    ``side_users`` live in the left district with candidates only
    there; ``central_users`` have positive utility on *every* event and
    budget to reach them all, so they attach to both cells.
    """
    events = [
        Event(
            id=i,
            location=(0.0, float(i)) if i < 3 else (100.0, 100.0 + i),
            capacity=capacity,
            interval=TimeInterval(2 * i, 2 * i + 1),
        )
        for i in range(6)
    ]
    users = []
    for u in range(side_users):
        users.append(User(id=u, location=(0.0, 1.0), budget=50.0))
    for u in range(side_users, side_users + central_users):
        users.append(User(id=u, location=(50.0, 50.0), budget=1000.0))
    mu = np.zeros((6, side_users + central_users))
    for u in range(side_users):
        mu[:3, u] = 0.5  # left district only
    for u in range(side_users, side_users + central_users):
        mu[:, u] = 0.9  # candidates in every cell
    return USEPInstance(events, users, GridCostModel(), mu)


class TestSingleCellDegenerate:
    def test_single_cell_merge_is_byte_identical(self):
        instance = generate_clustered_instance(
            ClusteredConfig(num_events=12, num_users=80, seed=3)
        )
        mono = make_solver("DeDPO").solve(instance)
        part = solve_partitioned(instance, algorithm="DeDPO", cells=1)
        assert len(part.partition.cells) == 1
        assert canonical_planning_bytes(part.planning) == (
            canonical_planning_bytes(mono)
        )

    def test_colocated_events_degenerate_to_one_cell(self):
        events = [
            Event(
                id=i,
                location=(5.0, 5.0),
                capacity=2,
                interval=TimeInterval(2 * i, 2 * i + 1),
            )
            for i in range(4)
        ]
        users = [User(id=0, location=(5.0, 5.0), budget=50.0)]
        instance = USEPInstance(
            events, users, GridCostModel(), np.full((4, 1), 0.5)
        )
        partition = partition_instance(instance, cells=4)
        assert len(partition.cells) == 1


class TestStructuralCorners:
    def test_cell_with_no_attached_users_has_empty_plan(self):
        # Only side users: nobody can reach the right district, so its
        # cell exists (it holds events) with zero attached users.
        instance = two_district_instance(side_users=8, central_users=0)
        partition = partition_instance(instance, cells=2)
        assert len(partition.cells) == 2
        sizes = sorted(len(sub.user_ids) for sub in partition.cells)
        assert sizes[0] == 0 and sizes[1] == 8
        result = solve_partitioned(instance, algorithm="DeDPO", cells=2)
        assert verify_planning(instance, result.planning).ok
        planned_events = {
            v for evs in result.planning.as_dict().values() for v in evs
        }
        assert planned_events <= {0, 1, 2}  # left district only

    def test_user_with_candidates_in_every_cell(self):
        instance = two_district_instance(side_users=8, central_users=2)
        # 2 of 10 replicated is under the strict bound; no None needed.
        partition = partition_instance(instance, cells=2)
        assert partition.replicated_users == 2
        for uid in (8, 9):
            assert int(partition.user_cell_count[uid]) == 2
            assert uid in partition.boundary_users()
        cell_plans = [
            sub.to_global_plan(
                make_solver("DeDPO").solve(sub.instance).as_dict()
                if sub.user_ids
                else {}
            )
            for sub in partition.cells
        ]
        planning, stats = reconcile(
            instance, cell_plans, [sub.user_ids for sub in partition.cells]
        )
        assert stats["boundary_users"] == 2
        assert verify_planning(instance, planning).ok

    def test_oversubscribed_event_is_evicted_to_capacity(self):
        # capacity + 1 = 3 users on global event 0, split across two
        # cells' plans — the honest scatter path cannot produce this
        # (events live in one cell), so it exercises the reconciler's
        # defensive eviction against untrusted partial plans.
        instance = two_district_instance(side_users=3, central_users=0)
        cell_plans = [{0: [0], 1: [0]}, {2: [0]}]
        cell_user_ids = [[0, 1], [2]]
        planning, stats = reconcile(instance, cell_plans, cell_user_ids)
        planned = [
            u for u, evs in planning.as_dict().items() if 0 in evs
        ]
        assert len(planned) == instance.events[0].capacity
        assert stats["evictions"] == 1
        assert verify_planning(instance, planning).ok


class TestReplicationGuard:
    def test_small_high_replication_cut_is_refused(self):
        # 6 of 10 users replicated: 60% > the strict 50% bound.
        instance = two_district_instance(side_users=4, central_users=6)
        with pytest.raises(PartitionError, match="cut refused"):
            partition_instance(instance, cells=2)

    def test_guard_can_be_disabled(self):
        instance = two_district_instance(side_users=4, central_users=6)
        partition = partition_instance(
            instance, cells=2, max_replication_ratio=None
        )
        assert partition.replicated_users == 6

    def test_large_instance_relaxes_the_bound(self):
        # Same 60% replication shape at fleet scale: above the
        # averaging threshold the bound relaxes to the 85% backstop.
        assert 0.6 > MAX_REPLICATION_RATIO
        assert 0.6 < MAX_REPLICATION_RATIO_LARGE
        side = (REPLICATION_STRICT_BELOW_USERS * 2) // 5
        central = REPLICATION_STRICT_BELOW_USERS - side
        instance = two_district_instance(
            side_users=side, central_users=central
        )
        partition = partition_instance(instance, cells=2)
        assert partition.attached_users == REPLICATION_STRICT_BELOW_USERS
        assert partition.replicated_users == central


class TestQualitySweep:
    def test_50_config_sweep_is_oracle_clean_above_the_floor(self):
        # The seeded clustered sweep behind docs/partitioning.md: every
        # merge passes the oracle and keeps >= 95% of the monolithic
        # utility (or the cut is refused, which satisfies the contract
        # vacuously — the caller solves monolithically).
        report = fuzz.run_partition_fuzz(
            seed=20260807, max_instances=50, shrink=False
        )
        assert report.ok, report.summary()
        assert report.instances_run == 50
        assert report.mode == "partition"
        assert report.partition_utility_floor == fuzz.PARTITION_UTILITY_FLOOR

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a 4-cell cut replicating 49% of attached "
        "users passes the 50% refusal guard yet keeps only 0.8686 of "
        "the monolithic utility (docs/partitioning.md)",
    )
    def test_draw_5101_of_the_ci_seed_keeps_the_floor(self):
        # Draw 5101 (counting from 0) of the partition fuzz on the CI
        # seed 20260807, well past the 400 draws CI runs.  The merge
        # replicates 140 of 285 attached users; its ratio is 0.8686.
        config = ClusteredConfig(
            num_events=14, num_users=343, num_clusters=1, event_spread=3.0,
            user_spread=16.0, mean_capacity=23, capacity_distribution="normal",
            utility_distribution="uniform", budget_factor=1.0,
            budget_distribution="uniform", conflict_ratio=0.5, grid_size=60,
            seed=1822614694,
        )
        assert fuzz.check_partition(config, cells=4) == []


class TestInstrumentation:
    def test_profiled_partition_records_counters(self):
        instance = generate_clustered_instance(FRIENDLY_CONFIG)
        with instrument.profiled() as counters:
            solve_partitioned(instance, algorithm="DeDPO", cells=4)
        assert counters["partition_cells"] >= 2
        assert counters["partition_subsolves"] == counters["partition_cells"]
        assert "partition_reconcile_ms" in counters
        for key in counters:
            if key.startswith("partition_"):
                assert instrument.is_profile_key(key)

    def test_partition_records_nothing_when_off(self):
        instance = two_district_instance()
        assert instrument.active() is None
        result = solve_partitioned(instance, algorithm="DeDPO", cells=2)
        assert verify_planning(instance, result.planning).ok


class TestCli:
    def test_solve_partition_grid_prints_the_cut(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_instance

        instance = generate_clustered_instance(FRIENDLY_CONFIG)
        path = tmp_path / "clustered.json"
        save_instance(instance, str(path))
        rc = main(
            [
                "solve", str(path),
                "--partition", "grid",
                "--cells", "4",
                "--algorithm", "DeDPO",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partition=grid, cells=4" in out
        assert "partition:     " in out  # the cut's summary line

    def test_solve_refused_cut_falls_back_to_monolithic(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.io import save_instance

        instance = two_district_instance(side_users=4, central_users=6)
        with pytest.raises(PartitionError):
            partition_instance(instance, cells=2)  # the premise
        path = tmp_path / "refused.json"
        save_instance(instance, str(path))
        rc = main(
            [
                "solve", str(path),
                "--partition", "grid",
                "--cells", "2",
                "--algorithm", "DeDPO",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partitioned path declined" in out
        assert "total utility:" in out
