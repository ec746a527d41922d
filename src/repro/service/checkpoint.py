"""Checkpoint/resume for sweeps: a JSONL journal of completed cells.

A sweep that dies at cell 180 of 200 used to lose everything.  With a
journal attached, :func:`~repro.experiments.harness.run_sweep` appends
each completed cell row to disk *as it finishes* (one JSON object per
line, flushed and fsync'd, so a SIGKILL can lose at most the cell in
flight), and a ``--resume`` run replays the journal and executes only
the missing cells.  Before it appends, resume cuts a torn final line
(:func:`repair_tail`), so the next row starts on a line of its own.

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


class JournalMismatchError(RuntimeError):
    """The journal on disk records a different sweep than requested."""


class JournalLockedError(RuntimeError):
    """Another live process holds the journal (concurrent sweep/server).

    Two writers appending to one JSONL ledger interleave torn rows; the
    advisory ``fcntl`` lock makes the second opener fail fast instead.
    """


class SweepJournal:
    """Append-only JSONL ledger of completed sweep cells.

    Open once per sweep via :meth:`open`; ``existing_rows`` then holds
    whatever a previous (interrupted) run completed.
    """

    def __init__(
        self,
        path: str,
        header: Dict[str, object],
        existing_rows: Dict[CellKey, Dict[str, object]],
    ):
        self.path = path
        self.header = header
        self.existing_rows = existing_rows
        self._handle = None

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

        The opened handle takes an advisory exclusive ``fcntl`` lock
        held until :meth:`close`: a second sweep or server pointed at
        the same ``--journal`` raises :class:`JournalLockedError`
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
        handle = open(path, "a")
        try:
            cls._lock(handle, path)
            if exists:
                on_disk_header, existing = cls._load(path)
                cls._check_header(path, on_disk_header, header)
                repair_tail(path)
        except BaseException:
            handle.close()
            raise
        journal = cls(path, header, existing)
        journal._handle = handle
        if not exists:
            journal._write_line(header)
        return journal

    @staticmethod
    def _lock(handle, path: str) -> None:
        """Take the advisory exclusive lock (no-op without fcntl)."""
        if fcntl is None:
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
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
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write from the killed run
                if entry.get("kind") == "header":
                    header = entry
                elif entry.get("kind") == "cell":
                    key = (int(entry["point"]), str(entry["solver"]))
                    rows[key] = entry["row"]
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
    def _write_line(self, entry: Dict[str, object]) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, key: CellKey, row: Dict[str, object]) -> None:
        """Journal one completed cell (durable before returning)."""
        point, solver = key
        self._write_line(
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
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def repair_tail(path: str) -> None:
    """Make a JSONL journal end on a whole record before appending to it.

    Replay skips a final line that does not decode: the torn write of a
    killed run.  A record appended after it would be glued onto that
    fragment, so the next replay would drop it too, and once one more
    record follows, the glued line sits mid-file as corruption.  So
    before a journal is reopened for appending, an undecodable final
    line is cut, and a decodable final line that lacks its newline gets
    one.  The records on disk are then exactly the ones replay applied,
    and the next record starts on a line of its own.
    """
    with open(path, "rb+") as handle:
        data = handle.read()
        end = len(data.rstrip())
        start = data.rfind(b"\n", 0, end) + 1
        if start == end:
            return
        try:
            json.loads(data[start:end])
        except ValueError:  # JSONDecodeError, or a cut multi-byte char
            handle.truncate(start)
        else:
            if data.endswith(b"\n"):
                return
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_rows(path: str) -> List[Dict[str, object]]:
    """All journalled cell rows, in journal (completion) order."""
    rows: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("kind") == "cell":
                rows.append(entry["row"])
    return rows


def canonical_bytes(path: str, strip: Sequence[str] = TIMING_FIELDS) -> bytes:
    """Deterministic byte form of a journal: timing fields stripped.

    Two runs with identical inputs (and identical fault plans) must
    produce identical canonical bytes — the chaos determinism contract.
    Cell entries are kept in completion order; keys are sorted by the
    serialiser.  A torn final line is skipped, as :func:`load_rows`
    skips it.
    """
    with open(path) as handle:
        records = [line.strip() for line in handle if line.strip()]
    lines: List[bytes] = []
    for index, record in enumerate(records):
        try:
            entry = json.loads(record)
        except json.JSONDecodeError:
            if index == len(records) - 1:
                break  # the torn tail of a killed run
            raise
        if entry.get("kind") == "cell":
            entry = dict(entry)
            entry["row"] = {
                k: v for k, v in entry["row"].items() if k not in strip
            }
        lines.append(json.dumps(entry, sort_keys=True).encode())
    return b"\n".join(lines) + b"\n"


def strip_timing(row: Dict[str, object]) -> Dict[str, object]:
    """A row without its run-to-run noisy fields (for comparisons)."""
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}
