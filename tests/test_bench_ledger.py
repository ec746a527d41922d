"""The kernel speedup ledger (benchmarks/record_bench.py) and the CI
perf guard that re-measures it (tools/check_bench_regression.py)."""

import importlib.util
import json
import os

import pytest

from benchmarks import record_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_guard():
    path = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(scale, solver, speedup, kernel_s=1e-4):
    return {
        "scale": scale,
        "after": {"solver": solver, "wall_time_s": kernel_s},
        "before": {"solver": solver + "-seed", "wall_time_s": kernel_s * speedup},
        "speedup": speedup,
    }


class TestRecord:
    def test_blocks_it_did_not_measure_carry_over(self, tmp_path):
        out = tmp_path / "ledger.json"
        kept = {
            "serving_multiworker": {"cpu_count": 1, "fleets": {}},
            "serving_recovery": {"speedup": 40.0, "bit_identical": True},
            "churn": {"speedup": 19.4},
            "partition": {"speedup": 2.1},
        }
        out.write_text(json.dumps(
            dict(kept, results=[_row("large", "DeDP", 2.0)], summary={})
        ))
        payload = record_bench.record(["tiny"], repeats=1, out_path=str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        for key, block in kept.items():
            assert on_disk[key] == block, key
        assert {row["scale"] for row in on_disk["results"]} == {"tiny"}
        assert set(on_disk["summary"]) == {"tiny"}

    def test_rows_are_cold_and_paired(self, tmp_path):
        payload = record_bench.record(
            ["tiny"], repeats=2, out_path=str(tmp_path / "ledger.json")
        )
        users = record_bench.SCALE_DIMS["tiny"]["num_users"]
        for row in payload["results"]:
            assert row["pairs"] == 2 and len(row["pair_ratios"]) == 2
            assert row["speedup"] == pytest.approx(
                sum(row["pair_ratios"]) / 2, abs=1e-3
            )
            kernel = row["after"]
            assert kernel["warm_wall_s"] > 0
            assert "warm_wall_s" not in row["before"]
            assert kernel["profile"]["sched_cache_hits"] == 0
            assert kernel["profile"]["sched_cache_misses"] == users


class TestGuard:
    """Every twin cell is ratio-guarded; a fast kernel gets no slack."""

    @pytest.mark.parametrize(("fresh_speedup", "code"), [(1.7, 0), (1.5, 1)])
    def test_a_fast_cell_fails_on_its_ratio_alone(
        self, tmp_path, monkeypatch, fresh_speedup, code
    ):
        guard = _load_guard()
        committed = {
            "results": [_row("large", "DeDP", 2.0)],
            "churn": {},
            "partition": {},
            "serving_recovery": {},
        }
        ledger = tmp_path / "committed.json"
        ledger.write_text(json.dumps(committed))
        fresh = {
            "results": [_row("large", "DeDP", fresh_speedup)],
            "churn": {"algorithm": "DeDPO", "speedup": 20.0,
                      "delta_mean_s": 0.1, "cold_mean_s": 2.0,
                      "bit_identical": True},
            "partition": {"algorithm": "DeDPO", "cells": 4, "speedup": 3.0,
                          "utility_ratio": 0.99, "partitioned_s": 1.0,
                          "monolithic_s": 3.0, "oracle_ok": True},
        }
        monkeypatch.setattr(guard.record_bench, "record", lambda *a, **k: fresh)
        monkeypatch.setattr(guard, "check_recovery", lambda: None)
        out = str(tmp_path / "fresh.json")
        assert guard.check(str(ledger), out, repeats=1, tolerance=0.2) == code

    @pytest.mark.parametrize(
        ("speedup", "ratio", "oracle_ok", "failed"),
        [
            (0.9, 0.998, True, False),  # no one-box speedup: recorded only
            (3.0, 0.94, True, True),  # below the 0.95 utility floor
            (3.0, 0.998, False, True),  # merged plan fails the oracle
        ],
    )
    def test_partition_block_guards_quality_not_speed(
        self, speedup, ratio, oracle_ok, failed
    ):
        guard = _load_guard()
        fresh = {
            "partition": {"algorithm": "DeDPO", "cells": 4, "speedup": speedup,
                          "utility_ratio": ratio, "partitioned_s": 14.0,
                          "monolithic_s": 14.0 * speedup, "oracle_ok": oracle_ok},
        }
        assert (guard.check_partition(fresh) is not None) == failed
