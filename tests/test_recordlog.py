"""The record log under both journals: directory durability, the
atomic rewrite, and the disk-fault seam both journals share."""

import os

import pytest

from repro.service import faults, recordlog
from repro.service.checkpoint import SweepJournal
from repro.service.journal import InstanceJournal
from repro.service.recordlog import COMPACT_SUFFIX, JournalIO, RecordLog

INSTANCE = {"kind": "stand-in registration payload"}


class RecordingIO(JournalIO):
    """The real disk operations, counting directory fsyncs."""

    def __init__(self):
        self.dir_fsyncs = 0

    def fsync_dir(self, path):
        self.dir_fsyncs += 1
        super().fsync_dir(path)


@pytest.fixture
def recorder(monkeypatch):
    io = RecordingIO()
    monkeypatch.setattr(recordlog, "_REAL_IO", io)
    return io


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.install_disk(None)


class TestDirectoryFsync:
    def test_instance_journal_create_append_rewrite(self, tmp_path, recorder):
        journal = InstanceJournal.create(str(tmp_path), "inst-0", INSTANCE)
        assert recorder.dir_fsyncs == 1
        assert journal.append_mutations([], 0, 0)
        assert recorder.dir_fsyncs == 1
        assert journal.compact(INSTANCE, 0, 0)
        assert recorder.dir_fsyncs == 2
        journal.close()
        InstanceJournal.reopen(journal.path).close()
        assert recorder.dir_fsyncs == 2

    def test_sweep_journal_create_record_resume(self, tmp_path, recorder):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, "seed", ["A"], 1) as journal:
            assert recorder.dir_fsyncs == 1
            journal.record((0, "A"), {"n": 1})
        assert recorder.dir_fsyncs == 1
        SweepJournal.open(path, "seed", ["A"], 1, resume=True).close()
        assert recorder.dir_fsyncs == 1


class TestRewrite:
    @pytest.mark.parametrize("kind", faults.DISK_FAULT_KINDS)
    def test_failed_rewrite_keeps_the_log_and_drops_the_scratch(
        self, tmp_path, kind
    ):
        log = RecordLog(str(tmp_path / "x.jsonl")).open()
        log.append({"n": 1})
        before = open(log.path, "rb").read()
        faults.install_disk(faults.DiskFaultSpec(kind))
        with pytest.raises(OSError, match="injected"):
            log.rewrite({"n": 3})
        log.close()
        assert open(log.path, "rb").read() == before
        assert not os.path.exists(log.path + COMPACT_SUFFIX)


class TestFaultSeam:
    def test_sweep_and_instance_records_share_one_write_count(self, tmp_path):
        faults.install_disk(faults.DiskFaultSpec("disk-enospc", after_writes=2))
        with SweepJournal.open(str(tmp_path / "s.jsonl"), "seed", ["A"], 1):
            pass  # write 0
        journal = InstanceJournal.create(str(tmp_path), "inst-0", INSTANCE)
        assert journal.degraded is None  # write 1
        assert journal.append_mutations([], 0, 0) is False  # write 2
        assert "ENOSPC" in journal.degraded
