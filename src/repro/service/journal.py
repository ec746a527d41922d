"""Durable per-instance journals: registration + mutation history.

PR 7's stateful endpoints keep registered instances in one process's
memory; a worker crash loses every instance and its mutation history.
This module makes that state *recoverable*: each registered instance
gets its own append-only JSONL journal recording the registration
content and every applied mutation batch, fsync'd before the response
is acknowledged.  A restarted worker replays the journal through
:mod:`repro.core.deltas` and resumes serving the same ``instance_id``
at the same ``instance_version`` — bit-identical to the pre-crash
state, which the chaos suite asserts by content fingerprint.

Format (one JSON object per line, the :mod:`repro.service.checkpoint`
idioms — header fingerprint, fsync per record, torn-tail tolerance)::

    {"kind": "header", "version": 1, "instance_id": "w0-inst-000000",
     "content_sha256": "...", "instance": { ... repro.io form ... }}
    {"kind": "mutate", "seq": 0, "mutations": [ ... wire form ... ],
     "version": 2}
    ...

* The header's ``content_sha256`` fingerprints the canonical
  registration payload; replaying a journal whose header hash disagrees
  with its own ``instance`` body raises
  :class:`~repro.service.checkpoint.JournalMismatchError` rather than
  silently recovering corrupted state.
* ``mutate`` records carry the *applied prefix* of each batch (a batch
  stopped by an invalid mutation journals only what applied) plus the
  client sequence number, so replay is idempotent: a batch journalled
  twice (crash between fsync and ack, client retried) applies once.
* A SIGKILL can tear at most the final line; replay tolerates exactly
  that — a torn *interior* line means real corruption and fails loudly.
  :meth:`InstanceJournal.reopen` cuts the torn line before appending.

Two robustness layers on top of the PR 8 format:

* **Snapshot-compaction.**  A ``snapshot`` record captures the current
  canonical instance state (plus ``instance_version`` and ``last_seq``)
  and *replaces* the replay prefix: :meth:`InstanceJournal.compact`
  writes a fresh one-record file next to the journal, fsyncs it, and
  atomically renames it over the old path.  Replay cost drops from
  O(total mutations ever) to O(churn since the last snapshot) while
  recovery stays bit-identical — a crash mid-compaction leaves either
  the old journal or the new one, never a mix.  A snapshot-first
  journal replays exactly like a header-first one.
* **Disk-fault degradation.**  All journal I/O goes through an
  injectable :class:`JournalIO` writer (see
  :func:`repro.service.faults.install_disk` for the fault-injecting
  twin).  An ``OSError`` from write/fsync/rename — EIO on fsync, ENOSPC,
  a torn mid-record write — flips the journal into a structured
  *degraded* state (:attr:`InstanceJournal.degraded` holds the reason)
  instead of propagating into the request path: the worker keeps
  serving non-durably and surfaces ``journal_degraded`` via
  ``/healthz`` and ``/stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.deltas import apply_mutation
from ..core.exceptions import InvalidInstanceError
from ..io import instance_from_dict, mutation_from_dict
from .checkpoint import JournalMismatchError, repair_tail

INSTANCE_JOURNAL_VERSION = 1

#: Journal files live as ``<dir>/<instance_id>.journal.jsonl``.
JOURNAL_SUFFIX = ".journal.jsonl"

#: Compaction scratch files (``<journal>.compact``) never match
#: :data:`JOURNAL_SUFFIX`, so a crash mid-compaction leaves a stale
#: scratch file that recovery simply ignores.
COMPACT_SUFFIX = ".compact"


def journal_path(directory: str, instance_id: str) -> str:
    """Where the journal of one instance lives under ``directory``."""
    return os.path.join(directory, instance_id + JOURNAL_SUFFIX)


def content_sha256(instance_dict: Dict) -> str:
    """Canonical hash of a registration payload (sorted-key JSON)."""
    blob = json.dumps(instance_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class JournalIO:
    """The disk operations a journal performs, as an injectable seam.

    The default implementation is the real thing; the chaos suite
    installs :class:`repro.service.faults.FaultyJournalIO` (same duck
    type) to make fsync EIO / ENOSPC / torn mid-record writes happen on
    demand.  Every method may raise :class:`OSError`; the journal
    converts that into its degraded state rather than letting it reach
    the request path.
    """

    def open(self, path: str, mode: str):
        return open(path, mode)

    def write_record(self, handle, text: str) -> None:
        """Write one full record durably (write + flush + fsync)."""
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)


_REAL_IO = JournalIO()


def _active_io() -> JournalIO:
    """The process-wide journal writer (fault-injected when armed)."""
    from . import faults  # local import: faults must not import journal

    return faults.active_disk_io() or _REAL_IO


class InstanceJournal:
    """Append-only mutation ledger of one registered instance.

    Create via :meth:`create` at registration time (writes the header
    durably before returning) or :meth:`reopen` after a replay.  Every
    :meth:`append_mutations` record is flushed and fsync'd before the
    call returns — the caller may acknowledge the batch the moment the
    method does.

    A disk fault (any :class:`OSError` out of the writer) permanently
    *degrades* the journal: :attr:`degraded` records the reason, every
    later write is a no-op returning ``False``, and the instance keeps
    serving from memory.  Degradation is one-way by design — once the
    on-disk suffix may be missing records, appending more would
    journal a state the replay can never reach.
    """

    def __init__(self, path: str, handle, io: Optional[JournalIO] = None) -> None:
        self.path = path
        self._handle = handle
        #: Pin a writer for this journal's lifetime; ``None`` resolves
        #: the active writer per operation, so a fault armed *after*
        #: the journal opened (mid-churn chaos) still strikes it.
        self._io_override = io
        #: ``None`` while healthy; a reason string once a disk fault
        #: has flipped the journal to non-durable.
        self.degraded: Optional[str] = None

    @property
    def _io(self) -> JournalIO:
        if self._io_override is not None:
            return self._io_override
        return _active_io()

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls, directory: str, instance_id: str, instance_dict: Dict
    ) -> "InstanceJournal":
        """Start a journal for a fresh registration (header fsync'd).

        Never raises on a disk fault: the returned journal is degraded
        instead, so a full disk cannot fail (or crash) registration —
        the instance just is not durable.
        """
        io = _active_io()
        path = journal_path(directory, instance_id)
        try:
            os.makedirs(directory, exist_ok=True)
            handle = io.open(path, "w")
        except OSError as exc:
            journal = cls(path, None)
            journal._degrade(f"open failed: {exc}")
            return journal
        journal = cls(path, handle)
        journal._write_line(
            {
                "kind": "header",
                "version": INSTANCE_JOURNAL_VERSION,
                "instance_id": instance_id,
                "content_sha256": content_sha256(instance_dict),
                "instance": instance_dict,
            }
        )
        return journal

    @classmethod
    def reopen(cls, path: str) -> "InstanceJournal":
        """Reattach to an existing journal for appending (after replay).

        A torn final line, which replay skipped, is cut first
        (:func:`~repro.service.checkpoint.repair_tail`): appended after
        it, the next record would be glued onto the fragment and lost.
        """
        io = _active_io()
        try:
            repair_tail(path)
            handle = io.open(path, "a")
        except OSError as exc:
            journal = cls(path, None)
            journal._degrade(f"reopen failed: {exc}")
            return journal
        return cls(path, handle)

    # -- writing -------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        self.degraded = reason
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _write_line(self, entry: Dict[str, object]) -> bool:
        if self.degraded is not None or self._handle is None:
            return False
        try:
            self._io.write_record(
                self._handle, json.dumps(entry, sort_keys=True) + "\n"
            )
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            return False
        return True

    def append_mutations(
        self,
        mutations_wire: Sequence[Dict],
        seq: Optional[int],
        version: int,
    ) -> bool:
        """Journal one applied batch (durable before returning ``True``).

        ``mutations_wire`` is the applied prefix in ``repro.io`` wire
        form; ``version`` is the instance version *after* the batch —
        replay asserts it, catching journal/state divergence early.
        Returns ``False`` (without raising) when the journal is — or
        just became — degraded: the batch applied in memory but is not
        durable.
        """
        entry: Dict[str, object] = {
            "kind": "mutate",
            "mutations": list(mutations_wire),
            "version": version,
        }
        if seq is not None:
            entry["seq"] = seq
        return self._write_line(entry)

    def compact(
        self,
        instance_dict: Dict,
        last_seq: Optional[int],
        instance_version: int,
    ) -> bool:
        """Truncate the replay prefix to one ``snapshot`` record.

        Writes a fresh journal containing a single snapshot of the
        current canonical state (write-new + fsync + atomic rename), so
        a crash at any point leaves either the full old journal or the
        compacted one — replay is bit-identical either way, just
        bounded by churn since the snapshot.  Call under the instance
        lock with ``instance_dict`` matching the live instance exactly.
        Returns ``False`` and degrades the journal on any disk fault
        (the pre-compaction file stays intact in that case).
        """
        if self.degraded is not None or self._handle is None:
            return False
        entry: Dict[str, object] = {
            "kind": "snapshot",
            "version": INSTANCE_JOURNAL_VERSION,
            "instance_id": os.path.basename(self.path)[: -len(JOURNAL_SUFFIX)],
            "content_sha256": content_sha256(instance_dict),
            "instance": instance_dict,
            "instance_version": instance_version,
        }
        if last_seq is not None:
            entry["last_seq"] = last_seq
        scratch = self.path + COMPACT_SUFFIX
        try:
            handle = self._io.open(scratch, "w")
            try:
                self._io.write_record(
                    handle, json.dumps(entry, sort_keys=True) + "\n"
                )
            finally:
                handle.close()
            self._io.replace(scratch, self.path)
            self._handle.close()
            self._handle = self._io.open(self.path, "a")
        except OSError as exc:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            self._degrade(f"compaction failed: {exc}")
            return False
        return True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        """Close and remove the file (instance evicted: state is gone
        on purpose, a restart must not resurrect it)."""
        self.close()
        for path in (self.path, self.path + COMPACT_SUFFIX):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


@dataclass
class RecoveredInstance:
    """The outcome of replaying one journal."""

    instance_id: str
    instance: object  # USEPInstance
    last_seq: Optional[int]
    batches: int
    mutations: int
    path: str


def _read_entries(path: str) -> List[Dict]:
    """All decodable records, tolerating only a torn final line."""
    entries: List[Dict] = []
    torn_at: Optional[int] = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if torn_at is not None:
                # A decodable line *after* a torn one: the tear was not
                # the SIGKILL tail but mid-file corruption.
                raise JournalMismatchError(
                    f"instance journal {path!r} is corrupt at line "
                    f"{torn_at} (torn record before end of file)"
                )
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                torn_at = lineno  # tolerated iff it stays the last line
                continue
            if not isinstance(entry, dict):
                # Decodable but not a record (e.g. a bare array spliced
                # mid-file): structured corruption, never an attribute
                # crash further down the replay.
                raise JournalMismatchError(
                    f"instance journal {path!r} is corrupt at line "
                    f"{lineno} (record is not a JSON object)"
                )
            entries.append(entry)
    return entries


def _decode_base(path: str, base: Dict) -> Tuple[str, object, Optional[int]]:
    """Validate the journal's first record (header or snapshot) and
    rebuild the instance it carries.  Returns
    ``(instance_id, instance, last_seq)``."""
    kind = base.get("kind")
    if base.get("version") != INSTANCE_JOURNAL_VERSION:
        raise JournalMismatchError(
            f"instance journal {path!r} has version "
            f"{base.get('version')!r}, expected {INSTANCE_JOURNAL_VERSION}"
        )
    instance_dict = base.get("instance")
    recorded = base.get("content_sha256")
    if recorded != content_sha256(instance_dict):
        raise JournalMismatchError(
            f"instance journal {path!r} {kind} hash mismatch — the "
            "recorded payload does not match its recorded sha256"
        )
    instance_id = base.get("instance_id")
    if not isinstance(instance_id, str):
        raise JournalMismatchError(
            f"instance journal {path!r} {kind} lacks an instance_id"
        )
    instance = instance_from_dict(instance_dict)
    last_seq: Optional[int] = None
    if kind == "snapshot":
        version = base.get("instance_version")
        if not isinstance(version, int) or version < 0:
            raise JournalMismatchError(
                f"instance journal {path!r} snapshot lacks a valid "
                "instance_version"
            )
        # ``USEPInstance.version`` is a read-only property over the
        # mutation counter; a snapshot resumes the pre-compaction count
        # so post-snapshot mutate records still version-check.
        instance._version = version  # noqa: SLF001
        seq = base.get("last_seq")
        if seq is not None and not isinstance(seq, int):
            raise JournalMismatchError(
                f"instance journal {path!r} snapshot has a non-integer "
                "last_seq"
            )
        last_seq = seq
    return instance_id, instance, last_seq


def replay_journal(path: str) -> RecoveredInstance:
    """Rebuild an instance from its journal (registration + mutations).

    Deterministic: replaying the same journal twice yields instances
    with identical content fingerprints — the recovery contract the
    chaos suite asserts.  The first record may be the original
    ``header`` or a compaction ``snapshot``; either way the mutate
    suffix replays on top.  Raises
    :class:`~repro.service.checkpoint.JournalMismatchError` on a
    missing/corrupt header and :class:`InvalidInstanceError` when a
    journalled mutation no longer applies (divergent journal).
    """
    entries = _read_entries(path)
    if not entries or entries[0].get("kind") not in ("header", "snapshot"):
        raise JournalMismatchError(
            f"instance journal {path!r} has no header line"
        )
    instance_id, instance, last_seq = _decode_base(path, entries[0])

    batches = 0
    mutations_applied = 0
    for entry in entries[1:]:
        if entry.get("kind") != "mutate":
            continue
        seq = entry.get("seq")
        if seq is not None and last_seq is not None and seq <= last_seq:
            continue  # duplicate batch (retried after a crash): idempotent
        for i, wire in enumerate(entry.get("mutations", ())):
            try:
                mutation = mutation_from_dict(wire, f"{path}[{batches}][{i}]")
                apply_mutation(instance, mutation)
            except InvalidInstanceError as exc:
                raise InvalidInstanceError(
                    f"instance journal {path!r} replay diverged: {exc}"
                ) from exc
            mutations_applied += 1
        recorded_version = entry.get("version")
        if recorded_version is not None and recorded_version != instance.version:
            raise JournalMismatchError(
                f"instance journal {path!r} replay reached version "
                f"{instance.version} but the record says {recorded_version}"
            )
        if seq is not None:
            last_seq = seq
        batches += 1
    return RecoveredInstance(
        instance_id=instance_id,
        instance=instance,
        last_seq=last_seq,
        batches=batches,
        mutations=mutations_applied,
        path=path,
    )


def recover_all(directory: str) -> Tuple[List[RecoveredInstance], List[str]]:
    """Replay every journal under ``directory`` (sorted by file name).

    Returns ``(recovered, failures)`` — a journal that fails to replay
    is reported, never fatal: one corrupt instance must not keep a
    restarted worker from serving the healthy ones.  Stale ``.compact``
    scratch files (crash mid-compaction, before the atomic rename) are
    not journals and are skipped.
    """
    recovered: List[RecoveredInstance] = []
    failures: List[str] = []
    if not os.path.isdir(directory):
        return recovered, failures
    for name in sorted(os.listdir(directory)):
        if not name.endswith(JOURNAL_SUFFIX):
            continue
        path = os.path.join(directory, name)
        try:
            recovered.append(replay_journal(path))
        except (JournalMismatchError, InvalidInstanceError, OSError) as exc:
            failures.append(f"{path}: {exc}")
    return recovered, failures
