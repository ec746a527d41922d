"""Checkpoint/resume for sweeps: a JSONL journal of completed cells.

A sweep that dies at cell 180 of 200 used to lose everything.  With a
journal attached, :func:`~repro.experiments.harness.run_sweep` appends
each completed cell row to disk *as it finishes* (one JSON object per
line, flushed and fsync'd, so a SIGKILL can lose at most the cell in
flight), and a ``--resume`` run replays the journal and executes only
the missing cells.  Records reach the disk through
:mod:`repro.service.recordlog`, as the instance journals' do.

Format (``docs/robustness.md`` has the full description)::

    {"kind": "header", "version": 1, "axis": ..., "algorithms": [...],
     "num_points": N}
    {"kind": "cell", "point": 3, "solver": "DeDPO", "row": {...}}
    ...

* The header fingerprints the sweep; resuming against a journal whose
  header disagrees with the requested sweep raises
  :class:`JournalMismatchError` rather than silently merging rows from
  a different experiment.
* Cells are keyed ``(point index, algorithm name)`` — the sweep's grid
  coordinates, stable across runs because points and algorithm lists
  are ordered.
* Rows are serialised with sorted keys; :func:`canonical_bytes` strips
  the wall-clock fields, giving the byte-identical form the chaos
  determinism suite compares across runs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .recordlog import JournalMismatchError, RecordLog, read_records, repair_tail

try:  # POSIX only; the journal degrades to unlocked elsewhere
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None

JOURNAL_VERSION = 1

#: Row fields that legitimately differ between two runs of the same
#: cell — wall-clock and allocation noise, plus run-configuration
#: metadata (worker count) — excluded from the canonical byte form and
#: from resume-equivalence comparisons.  Recovery *decisions* (status,
#: rung, retries, degraded_to) are never stripped.
TIMING_FIELDS = (
    "time_s",
    "build_time_s",
    "service_time_s",
    "peak_mem_kb",
    "jobs_effective",
)

CellKey = Tuple[int, str]


class JournalLockedError(RuntimeError):
    """Another live process holds the journal (concurrent sweep/server).

    Two writers appending to one JSONL ledger interleave torn rows; the
    advisory ``fcntl`` lock makes the second opener fail fast instead.
    """


class SweepJournal:
    """Append-only JSONL ledger of completed sweep cells.

    Open once per sweep via :meth:`open`; ``existing_rows`` then holds
    whatever a previous (interrupted) run completed.  A disk fault
    raises :class:`OSError` out of :meth:`record`; resume continues.
    """

    def __init__(
        self,
        path: str,
        header: Dict[str, object],
        existing_rows: Dict[CellKey, Dict[str, object]],
        log: RecordLog,
    ):
        self.path = path
        self.header = header
        self.existing_rows = existing_rows
        self._log = log

    # -- construction --------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        axis: str,
        algorithms: Sequence[str],
        num_points: int,
        resume: bool = False,
    ) -> "SweepJournal":
        """Open (and on resume, replay) the journal for one sweep.

        Without ``resume`` an existing journal file is an error — a
        stale ledger must never be extended by accident; delete it or
        pass ``resume=True``.

        The opened log takes an advisory exclusive ``fcntl`` lock held
        until :meth:`close`: a second sweep or server pointed at the
        same ``--journal`` raises :class:`JournalLockedError`
        immediately instead of interleaving torn rows.  Where ``fcntl``
        is unavailable (Windows) the lock is a no-op, matching the rest
        of the platform-degradation story.
        """
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "axis": axis,
            "algorithms": list(algorithms),
            "num_points": num_points,
        }
        existing: Dict[CellKey, Dict[str, object]] = {}
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists and not resume:
            raise JournalMismatchError(
                f"journal {path!r} already exists; pass resume=True "
                "(--resume) to continue it or remove the file"
            )
        log = RecordLog(path)
        try:
            log.open()
            cls._lock(log, path)
            if exists:
                on_disk_header, existing = cls._load(path)
                cls._check_header(path, on_disk_header, header)
                repair_tail(path)
            else:
                try:
                    log.append(header)
                except OSError:
                    log.delete()  # a headerless file would refuse every rerun
                    raise
        except BaseException:
            log.close()
            raise
        return cls(path, header, existing, log)

    @staticmethod
    def _lock(log: RecordLog, path: str) -> None:
        """Take the advisory exclusive lock (no-op without fcntl)."""
        if fcntl is None:
            return
        try:
            fcntl.flock(log.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:  # BlockingIOError on contention
            raise JournalLockedError(
                f"journal {path!r} is locked by another live process "
                "(a concurrent sweep or server is writing it); point the "
                "second run at its own --journal file"
            ) from exc

    @staticmethod
    def _load(
        path: str,
    ) -> Tuple[Dict[str, object], Dict[CellKey, Dict[str, object]]]:
        header: Dict[str, object] = {}
        rows: Dict[CellKey, Dict[str, object]] = {}
        for entry in _sweep_records(path):
            if entry.get("kind") == "header":
                header = entry
            elif entry.get("kind") == "cell":
                rows[(entry["point"], entry["solver"])] = entry["row"]
        return header, rows

    @staticmethod
    def _check_header(path, on_disk: Dict[str, object], want: Dict[str, object]):
        if not on_disk:
            raise JournalMismatchError(f"journal {path!r} has no header line")
        for field in ("version", "axis", "algorithms", "num_points"):
            if on_disk.get(field) != want[field]:
                raise JournalMismatchError(
                    f"journal {path!r} records {field}={on_disk.get(field)!r} "
                    f"but this sweep has {field}={want[field]!r}"
                )

    # -- writing -------------------------------------------------------
    def record(self, key: CellKey, row: Dict[str, object]) -> None:
        """Journal one completed cell (durable before returning)."""
        point, solver = key
        self._log.append(
            {"kind": "cell", "point": point, "solver": solver, "row": row}
        )
        self.existing_rows[key] = row

    def has(self, key: CellKey) -> bool:
        """Whether a cell is already journalled (skip it on resume)."""
        return key in self.existing_rows

    def row_for(self, key: CellKey) -> Optional[Dict[str, object]]:
        """The journalled row of a completed cell."""
        return self.existing_rows.get(key)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _sweep_records(path: str) -> List[Dict[str, object]]:
    """A sweep journal's records, every cell record checked for its keys."""
    entries: List[Dict[str, object]] = []
    for lineno, entry in read_records(path):
        if entry.get("kind") == "cell" and not (
            isinstance(entry.get("point"), int)
            and isinstance(entry.get("solver"), str)
            and isinstance(entry.get("row"), dict)
        ):
            raise JournalMismatchError(
                f"journal {path!r} is corrupt at line {lineno} (a cell "
                "record needs an integer point, a solver and a row object)"
            )
        entries.append(entry)
    return entries


def load_rows(path: str) -> List[Dict[str, object]]:
    """All journalled cell rows, in journal (completion) order."""
    return [
        entry["row"] for entry in _sweep_records(path)
        if entry.get("kind") == "cell"
    ]


def canonical_bytes(path: str, strip: Sequence[str] = TIMING_FIELDS) -> bytes:
    """Deterministic byte form of a journal: timing fields stripped.

    Two runs with identical inputs (and identical fault plans) must
    produce identical canonical bytes — the chaos determinism contract.
    Cell entries are kept in completion order; keys are sorted by the
    serialiser.  Read by :func:`read_records`: a torn final line is
    skipped, any other damage raises :class:`JournalMismatchError`.
    """
    lines: List[bytes] = []
    for entry in _sweep_records(path):
        if entry.get("kind") == "cell":
            entry = dict(entry, row={
                k: v for k, v in entry["row"].items() if k not in strip
            })
        lines.append(json.dumps(entry, sort_keys=True).encode())
    return b"\n".join(lines) + b"\n"


def strip_timing(row: Dict[str, object]) -> Dict[str, object]:
    """A row without its run-to-run noisy fields (for comparisons)."""
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}
