"""Seeded, deterministic fault injection for the execution layer.

The chaos test suite needs to *prove* that every recovery path of the
service layer actually fires: deadline expiry on a hang, crash
detection, retry on a transient exception, oracle rejection of a
corrupted plan, and ladder fallback after a memory blow-up.  Real
faults are rare and non-reproducible, so this module injects them on
purpose, deterministically:

* a :class:`FaultPlan` maps ``(cell key, fault kind, armed attempts)``
  — either built explicitly by a test or drawn from a seeded RNG via
  :meth:`FaultPlan.random`; the same seed always yields the same plan;
* :func:`install` arms the plan in module state, which forked workers
  and supervised children inherit (the same mechanism the parallel
  harness uses for its sweep state);
* the supervised executor calls :func:`fire_pre` just before solving
  and :func:`corrupt_schedules` just after, so faults strike inside the
  supervised child where the recovery machinery must catch them.

Fault taxonomy (see ``docs/robustness.md``):

``crash``
    The worker process dies abruptly (``os._exit``) without writing a
    result — models a segfaulting native extension or an OOM kill.
``hang``
    The worker sleeps far past any reasonable deadline — models an
    unbounded DP blow-up or a livelock.  Recovered by the supervisor's
    wall-clock timeout.
``transient``
    A :class:`TransientFault` is raised for the first ``attempts``
    tries and then stops — models flaky I/O or resource contention.
    Recovered by retry with backoff.
``memory``
    A :class:`MemoryError` is raised (simulated — actually allocating
    the memory would destabilise the test host).  Treated like a crash:
    no retry, straight to the degradation ladder.
``corrupt``
    The solver runs normally but its returned schedules are mutated
    into an infeasible plan (a duplicated event, or an arbitrary pair
    on an empty planning).  Must be caught by the independent oracle,
    never reported as a result.

A fault only fires while ``attempt < spec.attempts`` (``attempts=-1``
means every attempt), so a test can express "fail twice, then
succeed" and exercise the retry path end to end.

Beyond compute faults, the module also injects *disk* faults into the
record log both journals write through (see :data:`DISK_FAULT_KINDS`
and :class:`FaultyJournalIO`): fsync EIO, ENOSPC, and torn mid-record
writes.  :func:`install_disk` arms them process-wide;
:func:`install_disk_from_env` lets the chaos tooling arm them in
worker *subprocesses* through the :data:`DISK_FAULT_ENV` variable.
An instance journal must respond by degrading (``journal_degraded``),
never by crashing the worker; a sweep fails with the ``OSError`` and
resumes from its journal.
"""

from __future__ import annotations

import errno
import os
import random
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .recordlog import JournalIO

#: Exit code a ``crash`` fault kills the worker with; the supervisor
#: reports it in the outcome's ``error`` field.
CRASH_EXIT_CODE = 113

#: Kinds :meth:`FaultPlan.random` draws from.
FAULT_KINDS = ("crash", "hang", "transient", "memory", "corrupt")

#: A cell is addressed as ``(point_index, algorithm_name)`` — the same
#: key the sweep journal uses.
CellKey = Tuple[int, str]


class TransientFault(RuntimeError):
    """The injected flaky-infrastructure exception (retryable)."""


class SimulatedCrash(BaseException):
    """Raised instead of ``os._exit`` when no supervising fork exists.

    Derives from ``BaseException`` so ordinary ``except Exception``
    solver guards cannot swallow a simulated crash, mirroring how a
    real crash is unswallowable.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        attempts: Number of attempts the fault stays armed for
            (``-1`` = every attempt, i.e. the fault is permanent).
    """

    kind: str
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )

    def armed(self, attempt: int) -> bool:
        """Whether the fault fires on this (0-based) attempt."""
        return self.attempts < 0 or attempt < self.attempts


class FaultPlan:
    """A deterministic assignment of faults to sweep cells.

    Attributes:
        faults: ``{(point_index, algorithm): FaultSpec}``.
        seed: Master seed; also seeds the corruption RNG so the *same*
            corruption is applied across runs.
        hang_seconds: How long a ``hang`` fault sleeps (the supervisor
            is expected to kill it long before).
    """

    def __init__(
        self,
        faults: Mapping[CellKey, FaultSpec],
        seed: int = 0,
        hang_seconds: float = 3600.0,
    ):
        self.faults: Dict[CellKey, FaultSpec] = dict(faults)
        self.seed = seed
        self.hang_seconds = hang_seconds

    @classmethod
    def random(
        cls,
        seed: int,
        points: int,
        algorithms: Sequence[str],
        rate: float = 0.3,
        kinds: Sequence[str] = FAULT_KINDS,
        max_attempts: int = 2,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Draw a seeded random plan over a ``points x algorithms`` grid.

        The same ``(seed, points, algorithms, rate, kinds)`` always
        produces the same plan — chaos campaigns are replayable by
        seed alone.
        """
        rng = random.Random(seed)
        faults: Dict[CellKey, FaultSpec] = {}
        for point in range(points):
            for name in algorithms:
                if rng.random() < rate:
                    kind = kinds[rng.randrange(len(kinds))]
                    attempts = rng.randint(1, max_attempts)
                    faults[(point, name)] = FaultSpec(kind, attempts)
        return cls(faults, seed=seed, hang_seconds=hang_seconds)

    def spec_for(self, cell: CellKey) -> Optional[FaultSpec]:
        """The fault planned for a cell, if any."""
        return self.faults.get(cell)

    def describe(self) -> List[str]:
        """Stable one-line-per-fault summary (for logs and tests)."""
        return [
            f"point={point} algo={name}: {spec.kind} x{spec.attempts}"
            for (point, name), spec in sorted(self.faults.items())
        ]


#: The armed plan; inherited by forked workers/children.  ``None``
#: means fault injection is disabled (the production default).
_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Arm a fault plan process-wide (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any."""
    return _ACTIVE


def fire_pre(
    cell: Optional[CellKey], attempt: int, supervised: bool
) -> None:
    """Fire any pre-solve fault armed for this cell/attempt.

    Called inside the worker immediately before ``solve``.  ``crash``
    kills the process outright when a supervisor exists to notice
    (``supervised``); without one it raises :class:`SimulatedCrash`
    so the in-process fallback path still exercises crash handling.
    """
    spec = _lookup(cell, attempt)
    if spec is None:
        return
    if spec.kind == "crash":
        if supervised:
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedCrash(f"injected crash in cell {cell}")
    if spec.kind == "hang":
        plan = _ACTIVE
        time.sleep(plan.hang_seconds if plan else 3600.0)
    elif spec.kind == "transient":
        raise TransientFault(
            f"injected transient fault in cell {cell} (attempt {attempt})"
        )
    elif spec.kind == "memory":
        # Simulated: really allocating gigabytes would destabilise the
        # host; what matters is that the recovery path sees MemoryError.
        raise MemoryError(f"injected memory blow-up in cell {cell}")


def corrupt_schedules(
    cell: Optional[CellKey],
    attempt: int,
    schedules: Dict[int, List[int]],
    num_events: int,
) -> Dict[int, List[int]]:
    """Apply a planned ``corrupt`` fault to solver output.

    The mutation is seeded by ``(plan.seed, cell)`` so the same run
    corrupts the same way every time.  It always produces a plan the
    oracle must reject: a duplicated event in some non-empty schedule
    (duplicate + capacity-overcount territory), or — when the planning
    is empty — an arbitrary pair, which at minimum double-counts
    utility against the solver-reported Omega.
    """
    spec = _lookup(cell, attempt)
    if spec is None or spec.kind != "corrupt":
        return schedules
    plan = _ACTIVE
    rng = random.Random(
        zlib.crc32(f"{plan.seed if plan else 0}:{cell}".encode())
    )
    corrupted = {user: list(events) for user, events in schedules.items()}
    non_empty = sorted(u for u, evs in corrupted.items() if evs)
    if non_empty:
        user = non_empty[rng.randrange(len(non_empty))]
        corrupted[user].append(corrupted[user][0])  # duplicate attendance
    elif num_events:
        corrupted[0] = [rng.randrange(num_events)]
    return corrupted


def _lookup(cell: Optional[CellKey], attempt: int) -> Optional[FaultSpec]:
    plan = _ACTIVE
    if plan is None or cell is None:
        return None
    spec = plan.spec_for(cell)
    if spec is None or not spec.armed(attempt):
        return None
    return spec


# ---------------------------------------------------------------------------
# Disk faults: injected into the journals' record log
# ---------------------------------------------------------------------------

#: Disk-fault kinds the record log's writer can be poisoned with:
#:
#: ``disk-eio``
#:     The record reaches the OS but fsync fails with EIO — the classic
#:     dying-disk signature.  Durability is unknowable; an instance
#:     journal must degrade.
#: ``disk-enospc``
#:     The write itself fails with ENOSPC before any byte lands.
#: ``disk-torn``
#:     Half the record is written, then the write errors — models a
#:     power cut mid-append.  The on-disk tail is exactly the torn line
#:     the replay already tolerates.
DISK_FAULT_KINDS = ("disk-eio", "disk-enospc", "disk-torn")

#: Environment variable ``install_disk_from_env`` reads, so supervised
#: worker subprocesses can be poisoned from the outside:
#: ``"<kind>"``, ``"<kind>:<after_writes>"`` or
#: ``"<kind>:<after_writes>:<attempts>"``.
DISK_FAULT_ENV = "REPRO_DISK_FAULT"


@dataclass(frozen=True)
class DiskFaultSpec:
    """One planned journal-writer fault.

    Attributes:
        kind: One of :data:`DISK_FAULT_KINDS`.
        after_writes: Successful records before the fault arms (so a
            journal can be poisoned mid-churn, not just at creation).
        attempts: Faulty writes before the disk "recovers" (``-1`` =
            permanent).  Degradation is one-way regardless — this only
            shapes what lands on disk while the fault is live.
    """

    kind: str
    after_writes: int = 0
    attempts: int = -1

    def __post_init__(self):
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(
                f"unknown disk fault kind {self.kind!r}; "
                f"known: {DISK_FAULT_KINDS}"
            )
        if self.after_writes < 0:
            raise ValueError("after_writes must be >= 0")

    def armed(self, write_index: int) -> bool:
        """Whether the fault fires on this (0-based) record write."""
        if write_index < self.after_writes:
            return False
        if self.attempts < 0:
            return True
        return write_index < self.after_writes + self.attempts

    @classmethod
    def random(
        cls,
        seed: int,
        max_after: int = 16,
        kinds: Sequence[str] = DISK_FAULT_KINDS,
    ) -> "DiskFaultSpec":
        """A seeded spec for chaos campaigns (same seed, same fault)."""
        rng = random.Random(seed)
        return cls(
            kind=kinds[rng.randrange(len(kinds))],
            after_writes=rng.randrange(max_after),
        )

    @classmethod
    def from_string(cls, text: str) -> "DiskFaultSpec":
        """Parse the ``kind[:after_writes[:attempts]]`` wire form."""
        parts = text.strip().split(":")
        kind = parts[0]
        after = int(parts[1]) if len(parts) > 1 and parts[1] else 0
        attempts = int(parts[2]) if len(parts) > 2 and parts[2] else -1
        return cls(kind=kind, after_writes=after, attempts=attempts)


class FaultyJournalIO(JournalIO):
    """The record log's :class:`~repro.service.recordlog.JournalIO`
    with a :class:`DiskFaultSpec` fired on record writes.

    One instance counts writes process-wide, so ``after_writes`` means
    "the Nth journal record this process persists", whichever journal
    it belongs to — sweep or instance — exactly how a shared disk
    fails.
    """

    def __init__(self, spec: DiskFaultSpec) -> None:
        self.spec = spec
        self.writes = 0

    def write_record(self, handle, text: str) -> None:
        index = self.writes
        self.writes += 1
        if not self.spec.armed(index):
            super().write_record(handle, text)
            return
        if self.spec.kind == "disk-enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC: no space left")
        if self.spec.kind == "disk-torn":
            handle.write(text[: max(1, len(text) // 2)])
            handle.flush()
            raise OSError(errno.EIO, "injected torn mid-record write")
        # disk-eio: the bytes reach the page cache, the fsync fails —
        # durability is unknowable, which is the whole point.
        handle.write(text)
        handle.flush()
        raise OSError(errno.EIO, "injected fsync EIO")


#: The armed disk-fault writer; ``None`` means journal I/O is real.
_DISK: Optional[FaultyJournalIO] = None


def install_disk(spec: Optional[DiskFaultSpec]) -> None:
    """Arm a disk fault process-wide (``None`` disarms)."""
    global _DISK
    _DISK = FaultyJournalIO(spec) if spec is not None else None


def active_disk_io() -> Optional[FaultyJournalIO]:
    """The armed faulty writer, if any (queried by the record log)."""
    return _DISK


def install_disk_from_env(environ: Optional[Mapping[str, str]] = None):
    """Arm a disk fault from :data:`DISK_FAULT_ENV`, if set.

    Called at worker boot so chaos tooling can poison supervised
    subprocesses it cannot reach in-process.  Returns the installed
    spec, or ``None`` when the variable is absent/empty.
    """
    env = os.environ if environ is None else environ
    text = (env.get(DISK_FAULT_ENV) or "").strip()
    if not text:
        return None
    spec = DiskFaultSpec.from_string(text)
    install_disk(spec)
    return spec
