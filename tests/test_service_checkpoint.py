"""Tests for the JSONL sweep journal (checkpoint/resume plumbing)."""

import json

import pytest

from repro.service.checkpoint import (
    JournalLockedError,
    JournalMismatchError,
    SweepJournal,
    canonical_bytes,
    load_rows,
    strip_timing,
)


def _open(path, resume=False, algorithms=("DeDPO", "DeGreedy"), num_points=2):
    return SweepJournal.open(
        str(path), "num_events", list(algorithms), num_points, resume=resume
    )


class TestJournalBasics:
    def test_header_written_first(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            pass
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["kind"] == "header"
        assert entry["axis"] == "num_events"
        assert entry["algorithms"] == ["DeDPO", "DeGreedy"]

    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        row = {"solver": "DeDPO", "status": "ok", "utility": 4.5, "time_s": 0.1}
        with _open(path) as journal:
            journal.record((0, "DeDPO"), row)
            assert journal.has((0, "DeDPO"))
            assert not journal.has((0, "DeGreedy"))
        with _open(path, resume=True) as journal:
            assert journal.has((0, "DeDPO"))
            assert journal.row_for((0, "DeDPO")) == row

    def test_load_rows_in_completion_order(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path) as journal:
            journal.record((1, "DeGreedy"), {"solver": "DeGreedy", "n": 1})
            journal.record((0, "DeDPO"), {"solver": "DeDPO", "n": 2})
        assert [r["n"] for r in load_rows(str(path))] == [1, 2]

    def test_existing_without_resume_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path) as journal:
            journal.record((0, "DeDPO"), {"solver": "DeDPO"})
        with pytest.raises(JournalMismatchError, match="resume"):
            _open(path)

    def test_torn_tail_line_ignored(self, tmp_path):
        """A SIGKILL mid-write leaves a truncated last line; resume skips it."""
        path = tmp_path / "sweep.jsonl"
        with _open(path) as journal:
            journal.record((0, "DeDPO"), {"solver": "DeDPO"})
        with open(path, "a") as handle:
            handle.write('{"kind": "cell", "point": 1, "solv')  # torn
        with _open(path, resume=True) as journal:
            assert journal.has((0, "DeDPO"))
            assert not journal.has((1, "DeGreedy"))


class TestResumeAfterTornTail:
    """Resume cuts a torn final line before it appends, so the rows a
    resumed run records are all there for the next resume."""

    @staticmethod
    def _torn_after_first_cell(path):
        with _open(path, algorithms=("A", "B")) as journal:
            journal.record((0, "A"), {"solver": "A", "n": 1})
        with open(path, "a") as handle:
            handle.write('{"kind": "cell", "point": 0, "solv')  # torn

    def test_rows_recorded_after_resume_survive(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._torn_after_first_cell(path)
        with _open(path, resume=True, algorithms=("A", "B")) as journal:
            journal.record((0, "B"), {"solver": "B", "n": 2})
            journal.record((1, "A"), {"solver": "A", "n": 3})
        with _open(path, resume=True, algorithms=("A", "B")) as journal:
            assert journal.has((0, "B"))
            assert journal.has((1, "A"))
        assert [row["n"] for row in load_rows(str(path))] == [1, 2, 3]
        canonical = canonical_bytes(str(path)).splitlines()
        assert len(canonical) == 4  # header + three cells

    def test_final_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path, algorithms=("A",)) as journal:
            journal.record((0, "A"), {"solver": "A", "n": 1})
        path.write_text(path.read_text().rstrip("\n"))
        with _open(path, resume=True, algorithms=("A",)) as journal:
            journal.record((1, "A"), {"solver": "A", "n": 2})
        assert [row["n"] for row in load_rows(str(path))] == [1, 2]

    def test_canonical_bytes_skip_a_torn_final_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._torn_after_first_cell(path)
        whole = tmp_path / "whole.jsonl"
        with _open(whole, algorithms=("A", "B")) as journal:
            journal.record((0, "A"), {"solver": "A", "n": 1})
        assert canonical_bytes(str(path)) == canonical_bytes(str(whole))

    def test_canonical_bytes_still_refuse_a_torn_interior_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._torn_after_first_cell(path)
        with open(path, "a") as handle:
            handle.write('\n{"kind": "cell", "point": 1, "solver": "A", '
                         '"row": {}}\n')
        with pytest.raises(json.JSONDecodeError):
            canonical_bytes(str(path))


class TestJournalLock:
    """The advisory fcntl lock: one live writer per journal file."""

    def test_second_opener_fails_fast(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            # flock is per open-file-description, so a second open in
            # the same process contends exactly like a second process.
            with pytest.raises(JournalLockedError, match="locked"):
                _open(path, resume=True)

    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            pass
        with _open(path, resume=True) as journal:
            assert journal.header["axis"] == "num_events"

    def test_contention_leaves_journal_intact(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        row = {"solver": "DeDPO", "status": "ok", "utility": 1.0}
        with _open(path) as journal:
            journal.record((0, "DeDPO"), row)
            with pytest.raises(JournalLockedError):
                _open(path, resume=True)
            journal.record((1, "DeDPO"), row)
        rows = load_rows(str(path))
        assert len(rows) == 2  # the refused opener wrote nothing

    def test_noop_without_fcntl(self, tmp_path, monkeypatch):
        from repro.service import checkpoint

        monkeypatch.setattr(checkpoint, "fcntl", None)
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            with _open(path, resume=True) as second:
                assert second.header["axis"] == "num_events"


class TestHeaderFingerprint:
    def test_axis_mismatch(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            pass
        with pytest.raises(JournalMismatchError, match="axis"):
            SweepJournal.open(str(path), "num_users", ["DeDPO", "DeGreedy"], 2,
                              resume=True)

    def test_algorithms_mismatch(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            pass
        with pytest.raises(JournalMismatchError, match="algorithms"):
            _open(path, resume=True, algorithms=("DeDPO",))

    def test_num_points_mismatch(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path):
            pass
        with pytest.raises(JournalMismatchError, match="num_points"):
            _open(path, resume=True, num_points=5)


class TestCanonicalForm:
    def test_strips_timing_fields(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, time_s in ((a, 0.123), (b, 9.876)):
            with _open(path) as journal:
                journal.record(
                    (0, "DeDPO"),
                    {"solver": "DeDPO", "status": "ok", "time_s": time_s,
                     "service_time_s": time_s, "build_time_s": time_s,
                     "utility": 4.5},
                )
        assert canonical_bytes(str(a)) == canonical_bytes(str(b))

    def test_detects_decision_differences(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, status in ((a, "ok"), (b, "degraded")):
            with _open(path) as journal:
                journal.record(
                    (0, "DeDPO"), {"solver": "DeDPO", "status": status}
                )
        assert canonical_bytes(str(a)) != canonical_bytes(str(b))

    def test_strip_timing_helper(self):
        row = {"solver": "DeDPO", "time_s": 1.0, "peak_mem_kb": 5, "utility": 2}
        assert strip_timing(row) == {"solver": "DeDPO", "utility": 2}
