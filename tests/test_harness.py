"""Tests for the sweep harness and solver instrumentation."""

import io

import pytest

from repro.algorithms import make_solver
from repro.algorithms.base import warm_instance
from repro.datagen import SyntheticConfig, generate_instance
from repro.experiments import SweepPoint, run_sweep


def tiny_points(n=2):
    def builder(seed):
        return lambda: generate_instance(
            SyntheticConfig(
                num_events=6, num_users=10, mean_capacity=3, grid_size=15, seed=seed
            )
        )

    return [SweepPoint(axis_value=seed, build=builder(seed)) for seed in range(n)]


class TestSolverRun:
    def test_run_reports_utility_and_time(self, tiny_synthetic):
        result = make_solver("DeDPO").run(tiny_synthetic)
        assert result.solver == "DeDPO"
        assert result.utility == result.planning.total_utility()
        assert result.wall_time_s >= 0
        assert result.peak_memory_bytes is None

    def test_run_with_memory(self, tiny_synthetic):
        result = make_solver("DeDPO").run(tiny_synthetic, measure_memory=True)
        assert result.peak_memory_bytes is not None
        assert result.peak_memory_bytes > 0

    def test_dedp_uses_more_memory_than_dedpo(self):
        """The headline claim of Section 4.3.1, measurable at small scale."""
        inst = generate_instance(
            SyntheticConfig(
                num_events=30, num_users=150, mean_capacity=20, grid_size=40, seed=8
            )
        )
        dedp = make_solver("DeDP").run(inst, measure_memory=True)
        dedpo = make_solver("DeDPO").run(inst, measure_memory=True)
        assert dedp.peak_memory_bytes > 2 * dedpo.peak_memory_bytes
        assert dedp.utility == dedpo.utility

    def test_summary_row(self, tiny_synthetic):
        result = make_solver("RatioGreedy").run(tiny_synthetic, measure_memory=True)
        row = result.summary_row()
        assert row["solver"] == "RatioGreedy"
        assert "utility" in row and "time_s" in row and "peak_mem_kb" in row

    def test_warm_instance_materialises_caches(self, tiny_synthetic):
        warm_instance(tiny_synthetic)
        assert tiny_synthetic._vv_cost is not None
        assert len(tiny_synthetic._to_event_cache) == tiny_synthetic.num_users


class TestRunSweep:
    def test_rows_cover_grid(self):
        result = run_sweep(
            "seed", tiny_points(2), ["DeDPO", "DeGreedy"], measure_memory=False
        )
        assert len(result.rows) == 4
        assert result.axis_values() == [0, 1]

    def test_series_extraction(self):
        result = run_sweep(
            "seed", tiny_points(2), ["DeDPO", "DeGreedy"], measure_memory=False
        )
        series = result.series("utility")
        assert set(series) == {"DeDPO", "DeGreedy"}
        assert all(len(v) == 2 for v in series.values())

    def test_validate_flag(self):
        # must not raise: all solvers produce feasible plannings
        run_sweep("seed", tiny_points(1), ["RatioGreedy"], measure_memory=False,
                  validate=True)

    def test_progress_stream(self):
        stream = io.StringIO()
        run_sweep(
            "seed",
            tiny_points(1),
            ["DeGreedy"],
            measure_memory=False,
            progress=True,
            progress_stream=stream,
        )
        assert "DeGreedy" in stream.getvalue()

    def test_rows_carry_instance_metadata(self):
        result = run_sweep("seed", tiny_points(1), ["DeGreedy"], measure_memory=False)
        row = result.rows[0]
        assert row["num_events"] == 6
        assert row["num_users"] == 10
        assert row["axis"] == "seed"

    def test_no_memory_row_shape(self):
        """measure_memory=False rows carry no peak_mem_kb key at all."""
        result = run_sweep("seed", tiny_points(1), ["DeGreedy"], measure_memory=False)
        for row in result.rows:
            assert "peak_mem_kb" not in row
            assert row["time_s"] >= 0
        with_mem = run_sweep("seed", tiny_points(1), ["DeGreedy"])
        assert all("peak_mem_kb" in row for row in with_mem.rows)


class TestColdCells:
    """A cell's time must not depend on the cells run before it.

    Every algorithm at a point shares one instance (sequential) or
    adopts the first cell's build (``jobs > 1``), so without a reset a
    solver would inherit the schedule memo its predecessors filled and
    time their warmth, not its own work.
    """

    @staticmethod
    def _rows(algorithms, jobs=None):
        from repro.algorithms.registry import PAPER_ALGORITHMS

        point = SweepPoint(
            axis_value=60,
            build=lambda: generate_instance(
                SyntheticConfig(
                    num_events=12, num_users=60, mean_capacity=4,
                    grid_size=20, seed=5,
                )
            ),
        )
        names = list(PAPER_ALGORITHMS)
        rows = run_sweep(
            "users", [point], names if algorithms == "paper" else names[::-1],
            measure_memory=False, profile=True, jobs=jobs,
        ).rows
        assert any("sched_cache_hits" in row for row in rows)
        return rows

    @pytest.mark.parametrize(
        "order, jobs", [("paper", None), ("reversed", None), ("paper", 2)]
    )
    def test_every_cell_starts_cold(self, order, jobs):
        for row in self._rows(order, jobs):
            assert row.get("sched_cache_hits", 0) == 0, row


#: Row keys whose values legitimately differ between runs of the same
#: cell (wall-clock and allocation noise, plus run-configuration
#: metadata such as the worker count actually used).
_TIMING_KEYS = {"time_s", "build_time_s", "peak_mem_kb", "jobs_effective"}


def _stable(row):
    return {k: v for k, v in row.items() if k not in _TIMING_KEYS}


class TestParallelSweep:
    def test_jobs_matches_sequential(self):
        """jobs=4 returns the sequential rows in the sequential order."""
        from repro.experiments.figures import get_spec

        spec = get_spec("fig2-v")
        algorithms = ["DeDP", "DeDPO", "DeGreedy"]
        seq = run_sweep(spec.axis, spec.points("tiny"), algorithms)
        par = run_sweep(spec.axis, spec.points("tiny"), algorithms, jobs=4)
        assert len(par.rows) == len(seq.rows)
        for seq_row, par_row in zip(seq.rows, par.rows):
            assert _stable(seq_row) == _stable(par_row)

    def test_jobs_one_is_sequential(self):
        from repro.experiments.harness import _PARALLEL_STATE

        result = run_sweep(
            "seed", tiny_points(2), ["DeGreedy"], measure_memory=False, jobs=1
        )
        assert len(result.rows) == 2
        assert not _PARALLEL_STATE  # the pool path was never entered

    def test_jobs_no_memory(self):
        seq = run_sweep("seed", tiny_points(2), ["DeGreedy"], measure_memory=False)
        par = run_sweep(
            "seed", tiny_points(2), ["DeGreedy"], measure_memory=False, jobs=2
        )
        for seq_row, par_row in zip(seq.rows, par.rows):
            assert _stable(seq_row) == _stable(par_row)
            assert "peak_mem_kb" not in par_row

    def test_jobs_progress_lines(self):
        stream = io.StringIO()
        run_sweep(
            "seed",
            tiny_points(2),
            ["DeGreedy"],
            measure_memory=False,
            progress=True,
            progress_stream=stream,
            jobs=2,
        )
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 2
        assert all("DeGreedy" in line for line in lines)

    def test_jobs_propagates_exceptions(self):
        with pytest.raises(KeyError):
            run_sweep("seed", tiny_points(1), ["NoSuchSolver"], jobs=2)
        # and the module state is cleaned up even on failure
        from repro.experiments.harness import _PARALLEL_STATE

        assert not _PARALLEL_STATE


class TestErrorRows:
    """Worker exceptions become per-cell error rows, not sweep aborts."""

    @staticmethod
    def _boom_point():
        def build():
            raise RuntimeError("synthetic build explosion")

        return SweepPoint(axis_value="boom", build=build)

    @staticmethod
    def _crashing_solver(monkeypatch):
        """Make DeGreedy raise inside solve on both execution paths."""
        from repro.algorithms import decomposed

        def explode(self, instance):
            raise RuntimeError("synthetic solver explosion")

        monkeypatch.setattr(decomposed.DeGreedy, "solve", explode)

    def test_solver_exception_sequential(self, monkeypatch):
        self._crashing_solver(monkeypatch)
        result = run_sweep(
            "seed", tiny_points(2), ["DeGreedy", "DeDPO"], measure_memory=False
        )
        assert len(result.rows) == 4  # nothing was discarded
        by_solver = {}
        for row in result.rows:
            by_solver.setdefault(row["solver"], []).append(row)
        for row in by_solver["DeGreedy"]:
            assert row["status"] == "error"
            assert row["utility"] is None
            assert "synthetic solver explosion" in row["error"]
            assert "Traceback" in row["error"]
        for row in by_solver["DeDPO"]:  # neighbours unaffected
            assert row["status"] == "ok"
            assert row["utility"] > 0

    def test_solver_exception_parallel_matches_sequential(self, monkeypatch):
        """The sequential fallback path behaves identically to the pool."""
        self._crashing_solver(monkeypatch)
        seq = run_sweep(
            "seed", tiny_points(2), ["DeGreedy", "DeDPO"], measure_memory=False
        )
        par = run_sweep(
            "seed", tiny_points(2), ["DeGreedy", "DeDPO"], measure_memory=False,
            jobs=2,
        )
        assert len(par.rows) == len(seq.rows)
        for seq_row, par_row in zip(seq.rows, par.rows):
            assert seq_row["status"] == par_row["status"]
            assert seq_row["solver"] == par_row["solver"]
            if seq_row["status"] == "error":
                assert "synthetic solver explosion" in par_row["error"]

    def test_build_exception_sequential(self):
        result = run_sweep(
            "seed",
            [self._boom_point()],
            ["DeGreedy", "DeDPO"],
            measure_memory=False,
        )
        assert [row["status"] for row in result.rows] == ["error", "error"]
        assert all(
            "synthetic build explosion" in row["error"] for row in result.rows
        )

    def test_build_exception_parallel(self):
        result = run_sweep(
            "seed",
            [self._boom_point()],
            ["DeGreedy", "DeDPO"],
            measure_memory=False,
            jobs=2,
        )
        assert [row["status"] for row in result.rows] == ["error", "error"]

    def test_error_rows_emit_progress(self, monkeypatch):
        self._crashing_solver(monkeypatch)
        stream = io.StringIO()
        run_sweep(
            "seed", tiny_points(1), ["DeGreedy"], measure_memory=False,
            progress=True, progress_stream=stream,
        )
        assert "ERROR" in stream.getvalue()

    def test_unknown_solver_still_fails_fast(self):
        """Typos are programming errors: caught before any cell runs."""
        with pytest.raises(KeyError):
            run_sweep("seed", tiny_points(1), ["NoSuchSolver"])


class TestJobsEffective:
    def test_sequential_records_one(self):
        result = run_sweep("seed", tiny_points(1), ["DeGreedy"],
                           measure_memory=False)
        assert all(row["jobs_effective"] == 1 for row in result.rows)

    def test_parallel_records_pool_width(self):
        result = run_sweep("seed", tiny_points(2), ["DeGreedy"],
                           measure_memory=False, jobs=2)
        assert all(row["jobs_effective"] == 2 for row in result.rows)

    def test_fork_unavailable_warns_and_degrades(self, monkeypatch):
        """jobs>1 without fork: one stderr warning + jobs_effective=1."""
        import repro.experiments.harness as harness

        monkeypatch.setattr(harness, "_fork_available", lambda: False)
        stream = io.StringIO()
        result = run_sweep(
            "seed", tiny_points(1), ["DeGreedy"], measure_memory=False,
            jobs=4, progress_stream=stream,
        )
        warnings = [
            line for line in stream.getvalue().splitlines() if "warning" in line
        ]
        assert len(warnings) == 1
        assert "fork" in warnings[0] and "jobs=4" in warnings[0]
        assert all(row["jobs_effective"] == 1 for row in result.rows)
        assert all(row["status"] == "ok" for row in result.rows)


class TestJournalledSweep:
    def test_rows_journalled_as_they_finish(self, tmp_path):
        from repro.service.checkpoint import load_rows

        path = tmp_path / "sweep.jsonl"
        result = run_sweep(
            "seed", tiny_points(2), ["DeGreedy"], measure_memory=False,
            journal=str(path),
        )
        journalled = load_rows(str(path))
        assert len(journalled) == 2
        assert journalled == result.rows  # same dicts, same order

    def test_resume_skips_completed_cells(self, tmp_path):
        from repro.service.checkpoint import canonical_bytes

        full = tmp_path / "full.jsonl"
        run_sweep("seed", tiny_points(3), ["DeGreedy", "DeDPO"],
                  measure_memory=False, journal=str(full))
        partial = tmp_path / "partial.jsonl"
        lines = full.read_text().splitlines()
        partial.write_text("\n".join(lines[:3]) + "\n")  # header + 2 cells
        resumed = run_sweep(
            "seed", tiny_points(3), ["DeGreedy", "DeDPO"],
            measure_memory=False, journal=str(partial), resume=True,
        )
        assert [row["resumed"] for row in resumed.rows] == (
            [True] * 2 + [False] * 4
        )
        assert canonical_bytes(str(partial)) == canonical_bytes(str(full))

    def test_resume_skips_builds_of_complete_points(self, tmp_path):
        """A fully-journalled point never rebuilds its instance."""
        path = tmp_path / "sweep.jsonl"
        run_sweep("seed", tiny_points(2), ["DeGreedy"], measure_memory=False,
                  journal=str(path))
        calls = []

        def counting_point(seed):
            def build():
                calls.append(seed)
                raise AssertionError("must not rebuild a journalled point")

            return SweepPoint(axis_value=seed, build=build)

        resumed = run_sweep(
            "seed", [counting_point(0), counting_point(1)], ["DeGreedy"],
            measure_memory=False, journal=str(path), resume=True,
        )
        assert calls == []
        assert all(row["resumed"] for row in resumed.rows)

    def test_stale_journal_refused_without_resume(self, tmp_path):
        from repro.service.checkpoint import JournalMismatchError

        path = tmp_path / "sweep.jsonl"
        run_sweep("seed", tiny_points(1), ["DeGreedy"], measure_memory=False,
                  journal=str(path))
        with pytest.raises(JournalMismatchError):
            run_sweep("seed", tiny_points(1), ["DeGreedy"],
                      measure_memory=False, journal=str(path))
