"""The append-only JSONL record log under both journals.

Sweep checkpoints (:mod:`repro.service.checkpoint`) and per-instance
journals (:mod:`repro.service.journal`) keep only their record schemas;
this module owns how their records reach the disk.  One JSON object
per line, keys sorted; an append is written, flushed and fsync'd before
it returns; the directory is fsync'd after a file is created or renamed
into place (an fsync of the file does not make its directory entry
durable); a torn final line is skipped on read and cut before the next
append; a rewrite replaces the log atomically.  Every record write and
directory fsync goes through :class:`JournalIO`, looked up on every
call, so a disk fault armed after a log opened
(:func:`repro.service.faults.install_disk`) still strikes it.  Every operation lets :class:`OSError` propagate: a
sweep fails on it, an instance journal degrades.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: A rewrite's scratch file (``<log>.compact``); a crash before its
#: rename leaves it next to the intact log, and readers ignore it.
COMPACT_SUFFIX = ".compact"


class JournalMismatchError(RuntimeError):
    """A journal on disk is corrupt, or records something other than
    what its reader expects (a different sweep, a diverged instance)."""


class JournalIO:
    """The durable writes of a record log, as an injectable seam.

    :class:`repro.service.faults.FaultyJournalIO` overrides
    :meth:`write_record` to make fsync EIO, ENOSPC and torn writes
    happen on demand.  Every method may raise :class:`OSError`.
    """

    def write_record(self, handle, text: str) -> None:
        """Write one full record durably (write + flush + fsync)."""
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_dir(self, path: str) -> None:
        """Make the directory entry of ``path`` durable."""
        if os.name == "nt":  # a directory cannot be opened there
            return
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


_REAL_IO = JournalIO()


def _active_io() -> JournalIO:
    from . import faults  # local import: faults subclasses JournalIO

    return faults.active_disk_io() or _REAL_IO


class RecordLog:
    """One JSONL log file, appended to durably; :meth:`open` it first.

    It takes no lock: a journal that allows one writer locks
    :meth:`fileno`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def open(self, truncate: bool = False) -> "RecordLog":
        """Open for appending, creating a missing file (``truncate``
        empties an existing one); a new file's entry is fsync'd."""
        io = _active_io()
        created = truncate or not os.path.exists(self.path)
        self._handle = open(self.path, "w" if truncate else "a")
        if created:
            io.fsync_dir(self.path)
        return self

    def fileno(self) -> int:
        return self._handle.fileno()

    def append(self, record: Dict[str, object]) -> None:
        """Write one record; it is on disk when this returns."""
        text = json.dumps(record, sort_keys=True) + "\n"
        _active_io().write_record(self._handle, text)

    def rewrite(self, record: Dict[str, object]) -> None:
        """Atomically replace the whole log with the one ``record``.

        Write ``<path>.compact``, fsync it, rename it over the log,
        fsync the directory, append after it.  If the write or the
        rename fails, the scratch file is deleted and the log is left
        as it was.
        """
        io = _active_io()
        scratch = self.path + COMPACT_SUFFIX
        try:
            with open(scratch, "w") as handle:
                io.write_record(handle, json.dumps(record, sort_keys=True) + "\n")
            os.replace(scratch, self.path)
        except OSError:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            raise
        io.fsync_dir(self.path)
        self._handle.close()
        self._handle = open(self.path, "a")

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def delete(self) -> None:
        """Close the log and remove its file and any scratch file."""
        self.close()
        for path in (self.path, self.path + COMPACT_SUFFIX):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


def repair_tail(path: str) -> None:
    """Make a journal end on a whole record before appending to it.

    A record appended after a torn final line would be glued onto the
    fragment and dropped by the next replay, and once one more record
    follows, the glued line sits mid-file as corruption.  So an
    undecodable final line is cut, and a decodable one that lacks its
    newline gets one: the records on disk are then exactly the ones
    replay applied, and the next record starts on a line of its own.
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


def read_records(path: str) -> List[Tuple[int, Dict[str, object]]]:
    """``(line number, record)`` for every record of a JSONL journal.

    The one reader of both journals.  Only a torn *final* line is
    tolerated (skipped): the write a SIGKILL cut short.  A torn line
    with a record after it, or a line that decodes to something other
    than a JSON object, is corruption and raises
    :class:`JournalMismatchError` naming the line.
    """
    records: List[Tuple[int, Dict[str, object]]] = []
    torn_at: Optional[int] = None
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if torn_at is not None:
                raise JournalMismatchError(
                    f"journal {path!r} is corrupt at line {torn_at} "
                    "(torn record before end of file)"
                )
            try:
                entry = json.loads(line)
            except ValueError:  # JSONDecodeError, or a cut multi-byte char
                torn_at = lineno  # tolerated iff it stays the last line
                continue
            if not isinstance(entry, dict):
                raise JournalMismatchError(
                    f"journal {path!r} is corrupt at line {lineno} "
                    "(record is not a JSON object)"
                )
            records.append((lineno, entry))
    return records
