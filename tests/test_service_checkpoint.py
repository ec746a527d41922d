"""Tests for the JSONL sweep journal (checkpoint/resume plumbing)."""

import json

import pytest

from repro.core.deltas import apply_mutation
from repro.datagen import SyntheticConfig, generate_instance
from repro.experiments import SweepPoint, run_sweep
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    mutation_from_dict,
    mutation_to_dict,
)
from repro.service import faults
from repro.service.checkpoint import (
    JournalLockedError,
    JournalMismatchError,
    SweepJournal,
    canonical_bytes,
    load_rows,
    strip_timing,
)
from repro.service.journal import InstanceJournal, replay_journal


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
        with pytest.raises(JournalMismatchError, match="line 3"):
            canonical_bytes(str(path))


class TestCorruptJournalRefused:
    """Damage other than a torn final line is a structured
    :class:`JournalMismatchError` naming the line, from every reader:
    resume, :func:`load_rows` and :func:`canonical_bytes` alike."""

    @staticmethod
    def _readers(path):
        return (
            lambda: _open(path, resume=True, algorithms=("A", "B")),
            lambda: load_rows(str(path)),
            lambda: canonical_bytes(str(path)),
        )

    @staticmethod
    def _journal_then(path, *lines):
        with _open(path, algorithms=("A", "B")) as journal:
            journal.record((0, "A"), {"solver": "A", "n": 1})
        with open(path, "a") as handle:
            for line in lines:
                handle.write(line + "\n")

    @pytest.mark.parametrize("record", ["[1, 2]", "42", '"cell"', "null"])
    def test_record_that_is_not_an_object(self, tmp_path, record):
        path = tmp_path / "sweep.jsonl"
        self._journal_then(path, record)
        for read in self._readers(path):
            with pytest.raises(JournalMismatchError, match="line 3.*not a JSON object"):
                read()

    @pytest.mark.parametrize("missing", ["point", "solver", "row"])
    def test_cell_record_lacking_a_key(self, tmp_path, missing):
        path = tmp_path / "sweep.jsonl"
        cell = {"kind": "cell", "point": 1, "solver": "A", "row": {"n": 2}}
        del cell[missing]
        self._journal_then(path, json.dumps(cell))
        for read in self._readers(path):
            with pytest.raises(JournalMismatchError, match="line 3"):
                read()

    def test_torn_interior_line_is_not_dropped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._journal_then(
            path,
            '{"kind": "cell", "point": 1, "solv',
            json.dumps({"kind": "cell", "point": 1, "solver": "B", "row": {}}),
        )
        for read in self._readers(path):
            with pytest.raises(JournalMismatchError, match="line 3.*torn"):
                read()
        # Refused before anything is repaired or appended.
        assert path.read_text().count("\n") == 4


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


class TestBytesOnDisk:
    """The exact bytes each journal writes: a change to how records
    reach the disk must not change what the disk holds."""

    #: A one-event, one-user registration in canonical wire form.
    INSTANCE = {
        "format_version": 1,
        "name": "pin",
        "events": [{"id": 0, "location": [0.0, 0.0], "capacity": 2,
                    "start": 0.0, "end": 1.0, "name": "v0"}],
        "users": [{"id": 0, "location": [1.0, 0.0], "budget": 4.0,
                   "name": "u0"}],
        "cost_model": {"type": "grid", "metric": "manhattan",
                       "speed": None, "integral": True},
        "utilities": [[0.5]],
    }

    HEADER = (
        b'{"content_sha256": "b43d8a165e943b1932f9d13f696eec9d2d33bcb942158'
        b'7fabe973493a79e4413", "instance": {"cost_model": {"integral": true,'
        b' "metric": "manhattan", "speed": null, "type": "grid"}, "events": '
        b'[{"capacity": 2, "end": 1.0, "id": 0, "location": [0.0, 0.0], '
        b'"name": "v0", "start": 0.0}], "format_version": 1, "name": "pin", '
        b'"users": [{"budget": 4.0, "id": 0, "location": [1.0, 0.0], "name": '
        b'"u0"}], "utilities": [[0.5]]}, "instance_id": "inst-000000", '
        b'"kind": "header", "version": 1}\n'
    )
    MUTATE = (
        b'{"kind": "mutate", "mutations": [{"capacity": 1, "event_id": 0, '
        b'"op": "capacity_change"}], "seq": 0, "version": 1}\n'
    )
    SNAPSHOT = (
        b'{"content_sha256": "346f061e5f59976226f6fd9fa47c7190a486fa4a345712'
        b'098f2030f09e47891a", "instance": {"cost_model": {"integral": true,'
        b' "metric": "manhattan", "speed": null, "type": "grid"}, "events": '
        b'[{"capacity": 1, "end": 1.0, "id": 0, "location": [0.0, 0.0], '
        b'"name": "v0", "start": 0.0}], "format_version": 1, "name": "pin", '
        b'"users": [{"budget": 4.0, "id": 0, "location": [1.0, 0.0], "name": '
        b'"u0"}], "utilities": [[0.5]]}, "instance_id": "inst-000000", '
        b'"instance_version": 1, "kind": "snapshot", "last_seq": 0, '
        b'"version": 1}\n'
    )

    def test_instance_journal_header_mutate_snapshot(self, tmp_path):
        instance = instance_from_dict(self.INSTANCE)
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000000", instance_to_dict(instance)
        )
        mutation = mutation_from_dict(
            {"op": "capacity_change", "event_id": 0, "capacity": 1}, "test"
        )
        apply_mutation(instance, mutation)
        assert journal.append_mutations(
            [mutation_to_dict(mutation)], 0, instance.version
        )
        with open(journal.path, "rb") as handle:
            assert handle.read() == self.HEADER + self.MUTATE
        assert journal.compact(instance_to_dict(instance), 0, instance.version)
        journal.close()
        with open(journal.path, "rb") as handle:
            assert handle.read() == self.SNAPSHOT
        assert replay_journal(journal.path).instance.version == 1

    def test_sweep_journal_header_cell(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with _open(path, algorithms=("DeDPO",), num_points=1) as journal:
            journal.record(
                (0, "DeDPO"),
                {"solver": "DeDPO", "utility": 0.5, "time_s": 0.25},
            )
        assert path.read_bytes() == (
            b'{"algorithms": ["DeDPO"], "axis": "num_events", "kind": '
            b'"header", "num_points": 1, "version": 1}\n'
            b'{"kind": "cell", "point": 0, "row": {"solver": "DeDPO", '
            b'"time_s": 0.25, "utility": 0.5}, "solver": "DeDPO"}\n'
        )


class TestSweepDiskFaults:
    """A disk fault on a sweep's record fails the sweep, never the
    journal: what is on disk still replays, and a resumed run ends with
    the journal a run without the fault writes."""

    ALGORITHMS = ["DeDPO", "DeGreedy"]

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        faults.install_disk(None)

    @staticmethod
    def _points():
        return [
            SweepPoint(axis_value=seed, build=lambda seed=seed: generate_instance(
                SyntheticConfig(num_events=6, num_users=12, mean_capacity=3,
                                grid_size=15, seed=seed)
            ))
            for seed in range(2)
        ]

    def _sweep(self, path, resume=False):
        return run_sweep("seed", self._points(), self.ALGORITHMS,
                         measure_memory=False, journal=str(path),
                         resume=resume)

    @pytest.mark.parametrize("kind", faults.DISK_FAULT_KINDS)
    @pytest.mark.parametrize("cell", [1, 3])
    def test_fault_at_a_cell_record_then_resume(self, tmp_path, kind, cell):
        clean = tmp_path / "clean.jsonl"
        self._sweep(clean)
        path = tmp_path / "faulted.jsonl"
        # Write 0 is the header; write ``cell`` is the cell-th record.
        faults.install_disk(faults.DiskFaultSpec(kind, after_writes=cell))
        with pytest.raises(OSError, match="injected"):
            self._sweep(path)
        faults.install_disk(None)
        kept = load_rows(str(path))
        # fsync EIO leaves the record's bytes behind; the others do not.
        assert len(kept) == (cell if kind == "disk-eio" else cell - 1)
        result = self._sweep(path, resume=True)
        assert sum(row["resumed"] for row in result.rows) == len(kept)
        assert canonical_bytes(str(path)) == canonical_bytes(str(clean))

    @pytest.mark.parametrize("kind", faults.DISK_FAULT_KINDS)
    def test_fault_at_the_header_leaves_no_file(self, tmp_path, kind):
        path = tmp_path / "sweep.jsonl"
        faults.install_disk(faults.DiskFaultSpec(kind, attempts=1))
        with pytest.raises(OSError, match="injected"):
            _open(path)
        assert not path.exists()
        with _open(path) as journal:  # the next run starts afresh
            journal.record((0, "DeDPO"), {"solver": "DeDPO"})
        assert len(load_rows(str(path))) == 1
