"""Per-instance journal: durability format, replay, torn-tail tolerance.

The unit half of the crash-recovery contract (the process-level half
lives in tests/test_multiworker.py): journals replay deterministically,
tolerate exactly the corruption a SIGKILL can cause, and refuse
everything worse.
"""

import json
import os

import pytest

from repro.core import build_cache
from repro.core.deltas import apply_mutation
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    mutation_from_dict,
    mutation_to_dict,
)
from repro.paper_example import build_example_instance
from repro.service import faults
from repro.service.checkpoint import JournalMismatchError
from repro.service.journal import (
    COMPACT_SUFFIX,
    InstanceJournal,
    content_sha256,
    journal_path,
    recover_all,
    replay_journal,
)

MUTATIONS = [
    {"op": "utility_change", "user_id": 0, "event_id": 1, "utility": 0.95},
    {"op": "capacity_change", "event_id": 0, "capacity": 1},
    {"op": "utility_change", "user_id": 2, "event_id": 0, "utility": 0.11},
]


def _canonical_example():
    """The example instance as a *registration* would hold it.

    A real registration decodes the client's JSON, so the stored
    instance carries the wire canonicalisation (floats, not the
    builder's ints).  Fingerprint comparisons against a replayed
    journal must start from the same canonical form.
    """
    return instance_from_dict(instance_to_dict(build_example_instance()))


def _journal_with_batches(tmp_path, batches, seqs=None):
    """Create a journal, apply+append ``batches`` against a live twin."""
    instance = _canonical_example()
    journal = InstanceJournal.create(
        str(tmp_path), "inst-000000", instance_to_dict(instance)
    )
    for index, batch in enumerate(batches):
        wire = []
        for entry in batch:
            mutation = mutation_from_dict(entry, "test")
            apply_mutation(instance, mutation)
            wire.append(mutation_to_dict(mutation))
        seq = seqs[index] if seqs is not None else index
        journal.append_mutations(wire, seq, instance.version)
    journal.close()
    return journal.path, instance


class TestRoundTrip:
    def test_replay_matches_live_instance(self, tmp_path):
        path, live = _journal_with_batches(
            tmp_path, [MUTATIONS[:2], MUTATIONS[2:]]
        )
        recovered = replay_journal(path)
        assert recovered.instance_id == "inst-000000"
        assert recovered.batches == 2
        assert recovered.mutations == 3
        assert recovered.last_seq == 1
        assert recovered.instance.version == live.version
        assert build_cache.instance_fingerprint(
            recovered.instance
        ) == build_cache.instance_fingerprint(live)

    def test_replay_twice_is_deterministic(self, tmp_path):
        """The determinism satellite: two replays, one fingerprint."""
        path, _ = _journal_with_batches(tmp_path, [MUTATIONS])
        first = replay_journal(path)
        second = replay_journal(path)
        fp_first = build_cache.instance_fingerprint(first.instance)
        fp_second = build_cache.instance_fingerprint(second.instance)
        assert fp_first is not None
        assert fp_first == fp_second
        assert instance_to_dict(first.instance) == instance_to_dict(
            second.instance
        )

    def test_empty_journal_is_just_the_registration(self, tmp_path):
        instance = build_example_instance()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000007", instance_to_dict(instance)
        )
        journal.close()
        recovered = replay_journal(journal.path)
        assert recovered.batches == 0
        assert recovered.last_seq is None
        assert recovered.instance.version == instance.version

    def test_delete_removes_the_file(self, tmp_path):
        instance = build_example_instance()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-gone", instance_to_dict(instance)
        )
        assert os.path.exists(journal.path)
        journal.delete()
        assert not os.path.exists(journal.path)


class TestSeqDedupe:
    def test_duplicate_seq_replays_once(self, tmp_path):
        """A batch journalled twice (crash between fsync and ack, client
        retried) must apply once on replay."""
        instance = build_example_instance()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000000", instance_to_dict(instance)
        )
        mutation = mutation_from_dict(MUTATIONS[1], "test")
        apply_mutation(instance, mutation)
        wire = [mutation_to_dict(mutation)]
        journal.append_mutations(wire, 0, instance.version)
        # the retried duplicate: same seq, same batch, stale version tag
        journal._handle.write(
            json.dumps(
                {"kind": "mutate", "mutations": wire, "seq": 0,
                 "version": instance.version}
            ) + "\n"
        )
        journal.close()
        recovered = replay_journal(journal.path)
        assert recovered.mutations == 1
        assert recovered.instance.version == instance.version

    def test_unsequenced_batches_always_apply(self, tmp_path):
        path, live = _journal_with_batches(
            tmp_path, [[MUTATIONS[0]], [MUTATIONS[1]]], seqs=[None, None]
        )
        recovered = replay_journal(path)
        assert recovered.mutations == 2
        assert recovered.last_seq is None
        assert recovered.instance.version == live.version


class TestCorruption:
    def test_torn_final_line_is_tolerated(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [MUTATIONS[:2]])
        with open(path, "a") as handle:
            handle.write('{"kind": "mutate", "mutations": [{"op"')
        recovered = replay_journal(path)
        assert recovered.batches == 1  # the torn batch never happened

    def test_torn_interior_line_fails_loudly(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [[MUTATIONS[0]]])
        lines = open(path).read().splitlines()
        lines.insert(1, '{"kind": "mutate", "mut')
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatchError, match="torn record"):
            replay_journal(path)

    def test_header_hash_mismatch_fails(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [])
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["instance"]["events"][0]["capacity"] += 1  # silent edit
        lines[0] = json.dumps(header)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatchError, match="hash mismatch"):
            replay_journal(path)

    def test_missing_header_fails(self, tmp_path):
        path = journal_path(str(tmp_path), "inst-headless")
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "mutate", "mutations": []}) + "\n")
        with pytest.raises(JournalMismatchError, match="no header"):
            replay_journal(path)

    def test_wrong_version_fails(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [])
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        # keep the content hash honest so only the version trips
        header["content_sha256"] = content_sha256(header["instance"])
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(JournalMismatchError, match="version"):
            replay_journal(path)

    def test_version_divergence_fails(self, tmp_path):
        """A mutate record whose post-batch version disagrees with the
        replayed instance means journal/state divergence."""
        path, _ = _journal_with_batches(tmp_path, [[MUTATIONS[0]]])
        lines = open(path).read().splitlines()
        record = json.loads(lines[1])
        record["version"] += 7
        lines[1] = json.dumps(record)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatchError, match="replay reached"):
            replay_journal(path)


class TestCorruptionBeyondTornTail:
    """Corruption shapes a tear cannot explain must fail *structured*
    (JournalMismatchError), never crash the replay with a raw
    AttributeError/KeyError a worker boot would trip over."""

    def test_corrupted_header_with_valid_suffix_fails(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [[MUTATIONS[0]]])
        lines = open(path).read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # header itself torn
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatchError, match="torn record"):
            replay_journal(path)

    def test_header_replaced_by_garbage_bytes_fails(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [])
        with open(path, "w") as handle:
            handle.write("\x00\x01garbage that is not json\n")
        with pytest.raises(JournalMismatchError, match="no header"):
            replay_journal(path)

    def test_non_object_record_mid_file_fails_structured(self, tmp_path):
        """A decodable-but-not-a-dict line (a spliced array) must raise
        the structured error, not AttributeError on ``.get``."""
        path, _ = _journal_with_batches(tmp_path, [[MUTATIONS[0]]])
        lines = open(path).read().splitlines()
        lines.insert(1, "[1, 2, 3]")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatchError, match="not a JSON object"):
            replay_journal(path)

    def test_non_object_record_never_crashes_recover_all(self, tmp_path):
        with open(journal_path(str(tmp_path), "inst-weird"), "w") as handle:
            handle.write('"just a string"\n')
        recovered, failures = recover_all(str(tmp_path))
        assert recovered == []
        assert len(failures) == 1


class TestSnapshotCompaction:
    def _compacted(self, tmp_path, extra_batches=()):
        """Journal with two batches, compacted, plus optional suffix."""
        instance = _canonical_example()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000000", instance_to_dict(instance)
        )
        seq = 0
        for batch in ([MUTATIONS[0]], [MUTATIONS[1]]):
            wire = []
            for entry in batch:
                mutation = mutation_from_dict(entry, "test")
                apply_mutation(instance, mutation)
                wire.append(mutation_to_dict(mutation))
            assert journal.append_mutations(wire, seq, instance.version)
            seq += 1
        assert journal.compact(
            instance_to_dict(instance), seq - 1, instance.version
        )
        for batch in extra_batches:
            wire = []
            for entry in batch:
                mutation = mutation_from_dict(entry, "test")
                apply_mutation(instance, mutation)
                wire.append(mutation_to_dict(mutation))
            assert journal.append_mutations(wire, seq, instance.version)
            seq += 1
        journal.close()
        return journal.path, instance, seq - 1

    def test_compacted_replay_is_bit_identical(self, tmp_path):
        path, live, last_seq = self._compacted(tmp_path)
        recovered = replay_journal(path)
        assert recovered.batches == 0  # the prefix is gone
        assert recovered.last_seq == last_seq
        assert recovered.instance.version == live.version
        assert instance_to_dict(recovered.instance) == instance_to_dict(live)
        assert build_cache.instance_fingerprint(
            recovered.instance
        ) == build_cache.instance_fingerprint(live)

    def test_compaction_bounds_the_file_to_one_record(self, tmp_path):
        path, _, _ = self._compacted(tmp_path)
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "snapshot"

    def test_mutations_after_snapshot_replay_on_top(self, tmp_path):
        path, live, last_seq = self._compacted(
            tmp_path, extra_batches=[[MUTATIONS[2]]]
        )
        recovered = replay_journal(path)
        assert recovered.batches == 1
        assert recovered.last_seq == last_seq
        assert recovered.instance.version == live.version
        assert instance_to_dict(recovered.instance) == instance_to_dict(live)

    def test_compacted_equals_uncompacted_replay(self, tmp_path):
        """The bit-identity acceptance: same stream, with and without a
        snapshot in the middle, one fingerprint."""
        plain_path, _ = _journal_with_batches(
            tmp_path, [[MUTATIONS[0]], [MUTATIONS[1]], [MUTATIONS[2]]]
        )
        compact_dir = tmp_path / "compacted"
        compact_dir.mkdir()
        compacted_path, _, _ = self._compacted(
            compact_dir, extra_batches=[[MUTATIONS[2]]]
        )
        plain = replay_journal(plain_path)
        compacted = replay_journal(compacted_path)
        assert instance_to_dict(plain.instance) == instance_to_dict(
            compacted.instance
        )
        assert plain.instance.version == compacted.instance.version
        assert plain.last_seq == compacted.last_seq

    def test_seq_dedupe_survives_compaction(self, tmp_path):
        """A batch retried with a pre-snapshot seq must still dedupe —
        the snapshot carries the high-water mark."""
        path, live, last_seq = self._compacted(tmp_path)
        stale = {
            "kind": "mutate",
            "mutations": [MUTATIONS[0]],
            "seq": last_seq,  # at the snapshot's high-water mark
            "version": live.version + 1,
        }
        with open(path, "a") as handle:
            handle.write(json.dumps(stale) + "\n")
        recovered = replay_journal(path)
        assert recovered.mutations == 0
        assert recovered.instance.version == live.version

    def test_crash_mid_truncate_leaves_old_journal_valid(self, tmp_path):
        """A scratch ``.compact`` file next to an intact journal (crash
        before the atomic rename) is ignored by recovery."""
        path, live = _journal_with_batches(tmp_path, [[MUTATIONS[0]]])
        scratch = path + COMPACT_SUFFIX
        with open(scratch, "w") as handle:
            handle.write('{"kind": "snapshot", "version": 1')  # torn scratch
        recovered, failures = recover_all(str(tmp_path))
        assert failures == []
        assert len(recovered) == 1
        assert recovered[0].instance.version == live.version
        assert os.path.exists(scratch)  # recovery does not touch it

    def test_snapshot_without_instance_version_fails(self, tmp_path):
        path, _, _ = self._compacted(tmp_path)
        record = json.loads(open(path).read())
        del record["instance_version"]
        with open(path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalMismatchError, match="instance_version"):
            replay_journal(path)

    def test_snapshot_hash_mismatch_fails(self, tmp_path):
        path, _, _ = self._compacted(tmp_path)
        record = json.loads(open(path).read())
        record["instance"]["events"][0]["capacity"] += 1
        with open(path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalMismatchError, match="hash mismatch"):
            replay_journal(path)

    def test_delete_removes_scratch_too(self, tmp_path):
        instance = build_example_instance()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-gone", instance_to_dict(instance)
        )
        scratch = journal.path + COMPACT_SUFFIX
        with open(scratch, "w") as handle:
            handle.write("stale\n")
        journal.delete()
        assert not os.path.exists(journal.path)
        assert not os.path.exists(scratch)


class TestDiskFaultDegradation:
    """Injected disk faults flip the journal to a structured degraded
    state; they never raise into the caller and never corrupt what was
    already durable."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        faults.install_disk(None)

    def _create(self, tmp_path):
        instance = _canonical_example()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000000", instance_to_dict(instance)
        )
        return journal, instance

    def _one_batch(self, instance):
        mutation = mutation_from_dict(MUTATIONS[0], "test")
        apply_mutation(instance, mutation)
        return [mutation_to_dict(mutation)]

    @pytest.mark.parametrize("kind", ["disk-eio", "disk-enospc", "disk-torn"])
    def test_fault_degrades_instead_of_raising(self, tmp_path, kind):
        faults.install_disk(faults.DiskFaultSpec(kind, after_writes=1))
        journal, instance = self._create(tmp_path)  # header = write 0
        assert journal.degraded is None
        wire = self._one_batch(instance)
        assert journal.append_mutations(wire, 0, instance.version) is False
        assert journal.degraded is not None
        # degradation is one-way: later appends are silent no-ops
        assert journal.append_mutations(wire, 1, instance.version) is False
        journal.close()

    @pytest.mark.parametrize(
        ("kind", "replayed_batches"),
        [
            # fsync EIO: bytes reached the file, durability is merely
            # unacknowledged — replay may legitimately see the batch.
            ("disk-eio", 2),
            # ENOSPC: the write itself failed; nothing extra on disk.
            ("disk-enospc", 1),
            # torn: half a record on disk = the tail the replay tolerates.
            ("disk-torn", 1),
        ],
    )
    def test_durable_prefix_still_replays(self, tmp_path, kind, replayed_batches):
        faults.install_disk(faults.DiskFaultSpec(kind, after_writes=2))
        journal, instance = self._create(tmp_path)
        wire = self._one_batch(instance)
        assert journal.append_mutations(wire, 0, instance.version) is True
        wire2 = self._one_batch(instance)
        assert journal.append_mutations(wire2, 1, instance.version) is False
        journal.close()
        faults.install_disk(None)
        # Whatever the kind, everything *acknowledged* as durable (seq 0)
        # survives, and replay is structured — never an exception.
        recovered = replay_journal(journal.path)
        assert recovered.batches == replayed_batches
        assert recovered.last_seq == replayed_batches - 1

    def test_enospc_at_creation_never_raises(self, tmp_path):
        faults.install_disk(faults.DiskFaultSpec("disk-enospc"))
        journal, instance = self._create(tmp_path)
        assert journal.degraded is not None
        wire = self._one_batch(instance)
        assert journal.append_mutations(wire, 0, instance.version) is False
        journal.close()

    def test_compaction_fault_keeps_old_journal(self, tmp_path):
        journal, instance = self._create(tmp_path)
        wire = self._one_batch(instance)
        assert journal.append_mutations(wire, 0, instance.version)
        before = open(journal.path).read()
        faults.install_disk(faults.DiskFaultSpec("disk-eio"))
        assert journal.compact(
            instance_to_dict(instance), 0, instance.version
        ) is False
        assert journal.degraded is not None
        journal.close()
        faults.install_disk(None)
        assert open(journal.path).read() == before  # rename never happened
        recovered = replay_journal(journal.path)
        assert recovered.batches == 1


class TestAppendAfterTornTail:
    """A restarted worker replays past a torn final line, then reopens
    the journal and keeps appending.  Every record it acknowledges
    after that must survive the next restarts."""

    EXTRA = {"op": "utility_change", "user_id": 3, "event_id": 2,
             "utility": 0.42}

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        faults.install_disk(None)

    @staticmethod
    def _append(journal, instance, entry, seq):
        mutation = mutation_from_dict(entry, "test")
        apply_mutation(instance, mutation)
        return journal.append_mutations(
            [mutation_to_dict(mutation)], seq, instance.version
        )

    @staticmethod
    def _restart(path):
        recovered, failures = recover_all(os.path.dirname(path))
        assert failures == []
        (item,) = recovered
        return item, InstanceJournal.reopen(path)

    @pytest.mark.parametrize("tear", ["disk-torn", "sigkill"])
    def test_acknowledged_records_survive_restarts(self, tmp_path, tear):
        if tear == "disk-torn":
            faults.install_disk(faults.DiskFaultSpec(tear, after_writes=2))
        instance = _canonical_example()
        journal = InstanceJournal.create(
            str(tmp_path), "inst-000000", instance_to_dict(instance)
        )
        assert self._append(journal, instance, MUTATIONS[0], 0) is True
        if tear == "disk-torn":
            assert self._append(journal, instance, MUTATIONS[1], 1) is False
        journal.close()
        faults.install_disk(None)
        if tear == "sigkill":
            with open(journal.path, "a") as handle:
                handle.write('{"kind": "mutate", "mutations": [{"op"')

        item, journal = self._restart(journal.path)
        assert (item.instance.version, item.last_seq) == (1, 0)
        live = item.instance
        assert self._append(journal, live, MUTATIONS[2], 2) is True
        journal.close()

        item, journal = self._restart(journal.path)
        assert (item.instance.version, item.last_seq) == (2, 2)
        assert self._append(journal, item.instance, self.EXTRA, 3) is True
        journal.close()
        apply_mutation(live, mutation_from_dict(self.EXTRA, "test"))

        item, journal = self._restart(journal.path)
        journal.close()
        assert (item.instance.version, item.last_seq) == (3, 3)
        assert build_cache.instance_fingerprint(
            item.instance
        ) == build_cache.instance_fingerprint(live)

    def test_reopen_leaves_a_whole_journal_as_it_is(self, tmp_path):
        path, _ = _journal_with_batches(tmp_path, [MUTATIONS[:2]])
        before = open(path, "rb").read()
        InstanceJournal.reopen(path).close()
        assert open(path, "rb").read() == before


class TestRecoverAll:
    def test_recovers_every_journal_sorted(self, tmp_path):
        for name in ("inst-000002", "inst-000000", "inst-000001"):
            instance = build_example_instance()
            InstanceJournal.create(
                str(tmp_path), name, instance_to_dict(instance)
            ).close()
        recovered, failures = recover_all(str(tmp_path))
        assert [r.instance_id for r in recovered] == [
            "inst-000000", "inst-000001", "inst-000002",
        ]
        assert failures == []

    def test_one_corrupt_journal_is_not_fatal(self, tmp_path):
        instance = build_example_instance()
        InstanceJournal.create(
            str(tmp_path), "inst-good", instance_to_dict(instance)
        ).close()
        with open(journal_path(str(tmp_path), "inst-bad"), "w") as handle:
            handle.write("not json at all\nmore garbage\n")
        recovered, failures = recover_all(str(tmp_path))
        assert [r.instance_id for r in recovered] == ["inst-good"]
        assert len(failures) == 1
        assert "inst-bad" in failures[0]

    def test_missing_directory_is_empty(self, tmp_path):
        recovered, failures = recover_all(str(tmp_path / "never-created"))
        assert (recovered, failures) == ([], [])

    def test_non_journal_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        recovered, failures = recover_all(str(tmp_path))
        assert (recovered, failures) == ([], [])
