"""Deadline-supervised solver execution in a forked child process.

:func:`run_supervised` runs one registry algorithm on one instance in a
child process created with raw ``os.fork`` and watches it from the
parent with a wall-clock deadline:

* the child inherits the already-built instance through fork
  copy-on-write (nothing is pickled *into* the child — the same trick
  the parallel harness uses for its sweep state), solves, and writes a
  pickled result record (schedules, utility, timing, counters) down a
  pipe;
* the parent reads the pipe under ``select`` with the remaining
  deadline; on expiry it ``SIGKILL``s the child and reports a
  ``timeout`` outcome — a hung DP cannot take the sweep down with it;
* a child that dies without delivering a full record (killed, crashed,
  ``os._exit`` from a fault) is reported as a ``crash`` outcome with
  its exit status.

Raw ``os.fork`` rather than ``multiprocessing.Process`` because
supervised cells must also work *inside* pool workers (which are
daemonic and may not spawn ``multiprocessing`` children), and because
the child only ever writes one blob to one pipe — no queue machinery
needed.

On platforms without ``fork`` (Windows), and wherever the caller asks
for it (``force_in_process``: the fleet workers of the planning
service), :func:`run_supervised` solves in the calling thread instead:
results and error capture are identical, the deadline is cooperative
(:mod:`repro.core.deadline`), and hard crashes cannot be contained —
the outcome's ``supervised`` flag records which mode ran, and callers
surface it.

Exceptions inside ``solve`` never escape the child; they come back as
structured ``error``/``memory`` outcomes with the full traceback, so
the caller can decide between retry (transient) and degradation
(deterministic failure).
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..algorithms.registry import make_solver
from ..core.deadline import DeadlineExceeded, deadline_at
from ..core.instance import USEPInstance
from . import faults

#: Outcome statuses a supervised run can report.
STATUSES = ("ok", "timeout", "crash", "error", "memory")

#: Pipe protocol: a 4-byte big-endian length prefix, then the pickle.
_LEN = struct.Struct(">I")


@dataclass
class ExecutionOutcome:
    """Everything the parent learns from one supervised attempt.

    Attributes:
        status: ``ok`` (result delivered), ``timeout`` (deadline hit:
            child killed, or the in-process solve stopped or finished
            late), ``crash`` (child died without a result),
            ``error`` (solver raised; retryable at the caller's
            discretion), ``memory`` (solver raised ``MemoryError``).
        solver: Registry name that ran.
        schedules: ``{user_id: [event ids]}`` on success, else None.
        utility: Solver-reported ``Omega(A)`` on success, else None.
        wall_time_s: Parent-observed wall time of the attempt (includes
            fork/IPC overhead — that overhead is what
            ``EXPERIMENTS.md`` budgets at <5%).
        solve_time_s: Child-measured time inside ``solve`` (absent for
            timeout/crash).
        peak_memory_bytes: Child tracemalloc peak when measured.
        counters: Solver counters on success.
        error: Traceback or crash/timeout description on failure.
        exit_code: Child exit status when it crashed.
        supervised: False when the attempt ran in-process.
    """

    status: str
    solver: str
    schedules: Optional[Dict[int, List[int]]] = None
    utility: Optional[float] = None
    wall_time_s: float = 0.0
    solve_time_s: Optional[float] = None
    peak_memory_bytes: Optional[int] = None
    counters: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    exit_code: Optional[int] = None
    supervised: bool = True

    @property
    def ok(self) -> bool:
        """True iff a result record was delivered."""
        return self.status == "ok"


def fork_supported() -> bool:
    """Whether supervised (forked) execution is available."""
    return hasattr(os, "fork")


def apply_memory_limit(limit_bytes: int) -> None:
    """Cap this process's data segment (the service's memory guard).

    A forked solver child applies it before solving, and a fleet worker
    once at boot; an abusive instance that tries to materialise a huge
    DP table then hits ``MemoryError`` — reported upstream as a
    structured ``memory`` outcome — instead of driving the host into
    the OOM killer.  ``RLIMIT_DATA`` rather than ``RLIMIT_AS``: since
    Linux 4.7 it counts every private writable mapping, which is what a
    solve allocates, and not the address space glibc reserves for one
    malloc arena per thread (up to 8 per core), which a threaded worker
    accumulates without using.  Best effort: platforms without
    ``resource`` (or with a lower hard cap) keep their existing limits.
    """
    try:
        import resource

        soft = limit_bytes
        _, hard = resource.getrlimit(resource.RLIMIT_DATA)
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_DATA, (soft, hard))
    except Exception:  # pragma: no cover - platform-dependent
        pass


def _solve_record(
    instance: USEPInstance,
    name: str,
    measure_memory: bool,
    cell: Optional[faults.CellKey],
    attempt: int,
    supervised: bool,
    profile: bool = False,
) -> Dict[str, object]:
    """Run one solver and build the result record (child-side body)."""
    faults.fire_pre(cell, attempt, supervised)
    solver = make_solver(name)
    run = solver.run(
        instance, measure_memory=measure_memory, validate=False, profile=profile
    )
    schedules = {
        schedule.user_id: list(schedule.event_ids)
        for schedule in run.planning.schedules
        if len(schedule)
    }
    schedules = faults.corrupt_schedules(
        cell, attempt, schedules, instance.num_events
    )
    return {
        "schedules": schedules,
        "utility": float(run.utility),
        "solve_time_s": run.wall_time_s,
        "peak_memory_bytes": run.peak_memory_bytes,
        "counters": dict(run.counters),
    }


def _write_record(fd: int, payload: Dict[str, object]) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, _LEN.pack(len(blob)))
    written = 0
    while written < len(blob):
        written += os.write(fd, blob[written:])


def _read_with_deadline(fd: int, deadline: Optional[float]) -> Optional[bytes]:
    """Read until EOF or deadline; None means the deadline expired."""
    chunks: List[bytes] = []
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _parse_record(data: bytes) -> Optional[Dict[str, object]]:
    """Decode a length-prefixed pickle; None if truncated/garbled."""
    if len(data) < _LEN.size:
        return None
    (length,) = _LEN.unpack(data[: _LEN.size])
    blob = data[_LEN.size:]
    if len(blob) < length:
        return None
    try:
        record = pickle.loads(blob[:length])
    except Exception:
        return None
    return record if isinstance(record, dict) else None


def _reap(pid: int) -> int:
    """Wait for the child and normalise its exit status."""
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return -os.WTERMSIG(status)
    return os.WEXITSTATUS(status)


def run_supervised(
    instance: USEPInstance,
    name: str,
    timeout: Optional[float] = None,
    measure_memory: bool = False,
    cell: Optional[faults.CellKey] = None,
    attempt: int = 0,
    force_in_process: bool = False,
    profile: bool = False,
    memory_limit_bytes: Optional[int] = None,
) -> ExecutionOutcome:
    """Run ``name`` on ``instance`` under supervision.

    Args:
        instance: Already-built instance (inherited by the child via
            fork; never pickled).  Pre-warming the incremental engine
            build on it (``build_cache.prepare_build``) lets every
            forked attempt inherit the arrays + candidate index through
            copy-on-write instead of rebuilding them per child.
        name: Registry algorithm name.
        timeout: Wall-clock deadline in seconds (None = unbounded).
        measure_memory: Track the solver's tracemalloc peak (in the
            child, so the measurement stays attributable).
        cell: Sweep-cell key handed to the fault-injection harness.
        attempt: 0-based attempt number (faults arm per attempt).
        force_in_process: Solve in the calling thread even where fork
            is available, under a cooperative deadline (fleet workers,
            whose schedule memo must outlive the request).
        profile: Collect the incremental engine's diagnostic counters
            into the outcome's ``counters``.
        memory_limit_bytes: Data-segment rlimit applied in the forked
            child before solving (the server's per-request memory
            guard); ignored in-process, where the process-wide limit
            holds (a fleet worker sets it once at boot).
    """
    if force_in_process or not fork_supported():
        return _run_in_process(
            instance, name, timeout, measure_memory, cell, attempt, profile
        )

    read_fd, write_fd = os.pipe()
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:  # ---- child ----------------------------------------
        # A cyclic-GC pass would traverse every inherited object and
        # fault its copy-on-write page; the child lives for one solve,
        # so leaking cycles until _exit is free and much cheaper.
        gc.disable()
        os.close(read_fd)
        if memory_limit_bytes is not None:
            apply_memory_limit(memory_limit_bytes)
        code = 0
        try:
            record = _solve_record(
                instance, name, measure_memory, cell, attempt,
                supervised=True, profile=profile,
            )
        except MemoryError:
            record = {"child_error": traceback.format_exc(), "memory": True}
        except BaseException:
            record = {"child_error": traceback.format_exc()}
        try:
            _write_record(write_fd, record)
            os.close(write_fd)
        except BaseException:  # parent gone / pipe broken
            code = 1
        os._exit(code)

    # ---- parent ------------------------------------------------------
    os.close(write_fd)
    deadline = None if timeout is None else start + timeout
    try:
        data = _read_with_deadline(read_fd, deadline)
    finally:
        os.close(read_fd)
    if data is None:  # deadline expired
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(pid)
        return ExecutionOutcome(
            status="timeout",
            solver=name,
            wall_time_s=time.monotonic() - start,
            error=f"deadline of {timeout}s expired; child killed",
        )
    exit_code = _reap(pid)
    elapsed = time.monotonic() - start
    record = _parse_record(data)
    if record is None:  # died before delivering a full record
        return ExecutionOutcome(
            status="crash",
            solver=name,
            wall_time_s=elapsed,
            error=f"worker exited with status {exit_code} without a result",
            exit_code=exit_code,
        )
    if "child_error" in record:
        return ExecutionOutcome(
            status="memory" if record.get("memory") else "error",
            solver=name,
            wall_time_s=elapsed,
            error=str(record["child_error"]),
            exit_code=exit_code,
        )
    return _ok_outcome(record, name, elapsed)


def _run_in_process(
    instance: USEPInstance,
    name: str,
    timeout: Optional[float],
    measure_memory: bool,
    cell: Optional[faults.CellKey],
    attempt: int,
    profile: bool = False,
) -> ExecutionOutcome:
    """Solve in this thread: same record, no crash containment.

    The deadline is cooperative (:mod:`repro.core.deadline`): the
    solvers' loops stop at it and the attempt reports ``timeout``.  A
    solve that never checks it (the ``hang`` fault, the ``*-seed``
    twins, ``+LS``) runs to the end and is reported as ``timeout``
    after the fact, so ladder semantics stay consistent across modes.
    """
    start = time.monotonic()
    try:
        with deadline_at(None if timeout is None else start + timeout):
            record = _solve_record(
                instance, name, measure_memory, cell, attempt,
                supervised=False, profile=profile,
            )
    except DeadlineExceeded:
        elapsed = time.monotonic() - start
        return ExecutionOutcome(
            status="timeout",
            solver=name,
            wall_time_s=elapsed,
            error=f"stopped at the {timeout}s deadline after {elapsed:.3f}s",
            supervised=False,
        )
    except MemoryError:
        return ExecutionOutcome(
            status="memory",
            solver=name,
            wall_time_s=time.monotonic() - start,
            error=traceback.format_exc(),
            supervised=False,
        )
    except faults.SimulatedCrash as exc:
        return ExecutionOutcome(
            status="crash",
            solver=name,
            wall_time_s=time.monotonic() - start,
            error=f"simulated crash (no fork available to supervise): {exc}",
            supervised=False,
        )
    except Exception:
        return ExecutionOutcome(
            status="error",
            solver=name,
            wall_time_s=time.monotonic() - start,
            error=traceback.format_exc(),
            supervised=False,
        )
    elapsed = time.monotonic() - start
    if timeout is not None and elapsed > timeout:
        return ExecutionOutcome(
            status="timeout",
            solver=name,
            wall_time_s=elapsed,
            error=f"run took {elapsed:.3f}s, past the {timeout}s deadline "
            "(this solver does not check it)",
            supervised=False,
        )
    return _ok_outcome(record, name, elapsed, supervised=False)


def _ok_outcome(
    record: Dict[str, object], name: str, elapsed: float, supervised: bool = True
) -> ExecutionOutcome:
    utility = record.get("utility")
    return ExecutionOutcome(
        status="ok",
        solver=name,
        schedules=record.get("schedules"),
        utility=None if utility is None else float(utility),
        wall_time_s=elapsed,
        solve_time_s=record.get("solve_time_s"),
        peak_memory_bytes=record.get("peak_memory_bytes"),
        counters=dict(record.get("counters") or {}),
        supervised=supervised,
    )
