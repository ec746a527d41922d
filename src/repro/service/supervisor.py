"""Spawn and babysit the worker fleet: heartbeats, restarts, backoff.

The supervisor owns N worker processes (:mod:`repro.service.worker`),
each on its own ephemeral port with its own journal directory.  Its
one job is keeping the fleet serving through worker death:

* **Heartbeat health checks** — every ``heartbeat_interval_s`` each
  worker answers ``GET /healthz`` with a 200 within
  ``probe_timeout_s``; a worker that misses ``hung_probe_failures``
  consecutive probes is declared hung and SIGKILLed (a hung worker is
  *worse* than a dead one — it holds the shard hostage; killing it
  converts the hang into the restart path, where journal replay
  recovers the state).  A worker whose in-process solve overran its
  deadline answers 503 ``stuck``, which misses the probe the same way.
* **Restart with backoff** — a dead worker is respawned with the same
  ``worker_id`` and journal directory (so
  :meth:`~repro.service.server.PlanningServer.recover_instances`
  resurrects its shard) after a jittered exponential backoff drawn
  from :class:`~repro.service.retry.RetryPolicy` — full jitter, the
  same scheme the sweep runner retries with.
* **Per-worker circuit breaker** — ``breaker_threshold`` consecutive
  failed restarts open the worker's circuit
  (:class:`~repro.service.retry.CircuitBreaker`) and the supervisor
  stops burning restarts on it; a worker that stays healthy for
  ``min_healthy_uptime_s`` closes its circuit again.
* **Rolling drain** — :meth:`drain_rolling` SIGTERMs workers one at a
  time and waits for each to finish its in-flight work and exit 0
  before touching the next, so a clean restart sheds nothing.

The supervisor never touches request routing — that is the router's
job (:mod:`repro.service.router`); the router reads worker health and
addresses from here.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .retry import CircuitBreaker, RetryPolicy

#: How long a freshly spawned worker may take to announce its port.
BOOT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Fleet-level knobs.

    Attributes:
        num_workers: Workers spawned and babysat.
        journal_root: Per-worker journal dirs live at
            ``<journal_root>/<worker_id>``; ``None`` disables
            durability (crashed workers come back empty).
        worker_args: Extra CLI args passed through to every worker
            (admission knobs, ladder, memory limit, ...).
        heartbeat_interval_s: Monitor loop cadence.
        probe_timeout_s: HTTP timeout of one ``/healthz`` probe.
        hung_probe_failures: Consecutive probe misses before a worker
            is declared hung and SIGKILLed.
        restart_backoff: Jittered exponential backoff between restart
            attempts of one worker (indexed by consecutive failures).
        breaker_threshold: Consecutive failed restarts that open a
            worker's circuit; ``record_success`` after sustained health
            closes it.
        min_healthy_uptime_s: Uptime after which a worker counts as
            stably recovered (resets its backoff and breaker).
    """

    num_workers: int = 2
    journal_root: Optional[str] = None
    worker_args: Tuple[str, ...] = ()
    heartbeat_interval_s: float = 0.2
    probe_timeout_s: float = 2.0
    hung_probe_failures: int = 5
    restart_backoff: RetryPolicy = RetryPolicy(
        max_retries=6, base_delay_s=0.05, max_delay_s=2.0, seed=0
    )
    breaker_threshold: int = 5
    min_healthy_uptime_s: float = 2.0


@dataclass
class WorkerHandle:
    """Mutable supervisor-side state of one worker slot."""

    worker_id: str
    journal_dir: Optional[str]
    proc: Optional[subprocess.Popen] = None
    base_url: Optional[str] = None
    healthy: bool = False
    probe_failures: int = 0
    restarts: int = 0
    consecutive_failures: int = 0
    started_at: float = 0.0
    backoff_until: Optional[float] = None
    gave_up: bool = False
    recovered_instances: int = 0
    #: SIGKILLs after ``hung_probe_failures`` missed probes (a frozen
    #: worker, or one whose ``/healthz`` reported a stuck solve).
    hung_kills: int = 0
    #: The worker reported ``journal_degraded`` on a probe — it is
    #: serving non-durably after a disk fault.  Sticky until the
    #: worker restarts (a fresh process gets a fresh journal writer).
    journal_degraded: bool = False
    last_lines: List[str] = field(default_factory=list)


def _src_root() -> str:
    """The directory to put on PYTHONPATH so workers can import repro."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class Supervisor:
    """Owns the worker processes; the router reads health state here."""

    def __init__(self, config: SupervisorConfig):
        self.config = config
        self._lock = threading.Lock()
        self._breaker = CircuitBreaker(threshold=config.breaker_threshold)
        self._handles: "Dict[str, WorkerHandle]" = {}
        for index in range(config.num_workers):
            worker_id = f"w{index}"
            journal_dir = (
                os.path.join(config.journal_root, worker_id)
                if config.journal_root
                else None
            )
            self._handles[worker_id] = WorkerHandle(worker_id, journal_dir)
        self._stop = threading.Event()
        self._draining = False
        self._monitor: Optional[threading.Thread] = None
        self.total_restarts = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every worker, wait until all announce, start monitoring."""
        for handle in self._handles.values():
            self._spawn(handle)
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()

    def stop(self) -> None:
        """Tear the fleet down fast (tests; rolling drain is separate)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        for handle in self._handles.values():
            proc = handle.proc
            if proc is not None and proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5
        for handle in self._handles.values():
            proc = handle.proc
            if proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    def drain_rolling(self, per_worker_timeout_s: float = 30.0) -> List[int]:
        """SIGTERM workers one at a time; each finishes in-flight work
        and exits before the next is touched.  Returns exit codes."""
        with self._lock:
            self._draining = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        codes: List[int] = []
        for handle in self._handles.values():
            proc = handle.proc
            if proc is None or proc.poll() is not None:
                codes.append(proc.poll() if proc is not None else -1)
                continue
            proc.terminate()
            try:
                codes.append(proc.wait(timeout=per_worker_timeout_s))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait(timeout=5))
            with self._lock:
                handle.healthy = False
        return codes

    # -- spawning ------------------------------------------------------
    def _spawn(self, handle: WorkerHandle) -> bool:
        """Boot one worker; parse its announce line; True on success."""
        cmd = [
            sys.executable, "-m", "repro.service.worker",
            "--host", "127.0.0.1", "--port", "0",
            "--worker-id", handle.worker_id,
        ]
        if handle.journal_dir:
            cmd += ["--journal-dir", handle.journal_dir]
        cmd += list(self.config.worker_args)
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
        # A worker solves in its handler threads, and glibc gives each
        # new thread its own malloc arena (up to 8 per core), each
        # keeping the memory its solves freed.  Two arenas hold a
        # worker's resident set and address space down; the interpreter
        # lock serialises the solves anyway.  An operator's value wins.
        env.setdefault("MALLOC_ARENA_MAX", "2")
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        base_url = None
        recovered = 0
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        lines: List[str] = []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break  # died during boot
            lines.append(line.rstrip())
            if " serving on " in line:
                base_url = line.split(" serving on ", 1)[1].split()[0].strip()
                if "(recovered " in line:
                    try:
                        recovered = int(
                            line.split("(recovered ", 1)[1].split()[0]
                        )
                    except ValueError:
                        recovered = 0
                break
        if base_url is None:
            proc.kill()
            with self._lock:
                handle.proc = proc
                handle.healthy = False
                handle.last_lines = lines[-10:]
            return False
        # Keep the pipe drained so a chatty worker can never block on it.
        threading.Thread(
            target=self._drain_pipe, args=(proc, handle), daemon=True
        ).start()
        with self._lock:
            handle.proc = proc
            handle.base_url = base_url
            handle.healthy = True
            handle.probe_failures = 0
            handle.started_at = time.monotonic()
            handle.backoff_until = None
            handle.recovered_instances = recovered
            handle.journal_degraded = False  # fresh process, fresh writer
            handle.last_lines = lines[-10:]
        return True

    @staticmethod
    def _drain_pipe(proc: subprocess.Popen, handle: WorkerHandle) -> None:
        try:
            for line in proc.stdout:
                handle.last_lines = (handle.last_lines + [line.rstrip()])[-10:]
        except (ValueError, OSError):  # pipe closed under us
            pass

    # -- monitoring ----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval_s):
            for handle in list(self._handles.values()):
                try:
                    self._check_one(handle)
                except Exception:  # never let the babysitter die
                    pass

    def _check_one(self, handle: WorkerHandle) -> None:
        with self._lock:
            if handle.gave_up or self._draining:
                return
            proc = handle.proc
            backoff_until = handle.backoff_until
        if proc is None:
            return
        now = time.monotonic()
        if backoff_until is not None:
            if now < backoff_until:
                return
            self._attempt_restart(handle)
            return
        if proc.poll() is not None:
            self._on_death(handle)
            return
        # Liveness probe: a worker that stops answering is hung.
        alive, degraded = self._probe(handle)
        if degraded and not handle.journal_degraded:
            # Loud but not fatal: a degraded journal means the worker
            # keeps serving, just without the durability promise.
            print(
                f"supervisor: worker {handle.worker_id} reports "
                "journal_degraded (disk fault; serving non-durably)",
                file=sys.stderr,
            )
        with self._lock:
            handle.journal_degraded = degraded
            if alive:
                handle.probe_failures = 0
                handle.healthy = True
                if (
                    handle.consecutive_failures
                    and now - handle.started_at >= self.config.min_healthy_uptime_s
                ):
                    handle.consecutive_failures = 0
                    self._breaker.record_success(handle.worker_id)
                return
            handle.probe_failures += 1
            hung = handle.probe_failures >= self.config.hung_probe_failures
            if hung:
                handle.healthy = False
        if hung and proc.poll() is None:
            handle.hung_kills += 1  # only this monitor thread writes it
            try:
                proc.send_signal(signal.SIGKILL)
            except OSError:
                pass
            # next tick sees the corpse and takes the restart path

    def _probe(self, handle: WorkerHandle) -> "Tuple[bool, bool]":
        """One ``/healthz`` round-trip: ``(alive, journal_degraded)``."""
        base = handle.base_url
        if base is None:
            return False, handle.journal_degraded
        try:
            with urllib.request.urlopen(
                base + "/healthz", timeout=self.config.probe_timeout_s
            ) as resp:
                if resp.status != 200:
                    return False, handle.journal_degraded
                body = json.loads(resp.read().decode() or "{}")
                degraded = bool(
                    isinstance(body, dict) and body.get("journal_degraded")
                )
                return True, degraded
        except (OSError, ValueError, json.JSONDecodeError):
            return False, handle.journal_degraded

    def _on_death(self, handle: WorkerHandle) -> None:
        """A worker process died: open the backoff window (or give up)."""
        delays = self.config.restart_backoff.preview()
        with self._lock:
            handle.healthy = False
            self._breaker.record_failure(handle.worker_id)
            handle.consecutive_failures += 1
            if self._breaker.is_open(handle.worker_id):
                handle.gave_up = True
                handle.backoff_until = None
                return
            index = min(handle.consecutive_failures - 1, len(delays) - 1)
            delay = delays[index] if delays else 0.0
            handle.backoff_until = time.monotonic() + delay

    def _attempt_restart(self, handle: WorkerHandle) -> None:
        with self._lock:
            handle.backoff_until = None
            handle.restarts += 1
            self.total_restarts += 1
        self._spawn(handle)  # failure -> next tick sees the corpse again

    # -- router-facing API --------------------------------------------
    def worker_ids(self) -> List[str]:
        """All configured worker ids, in stable order (the router's tie order)."""
        return list(self._handles)

    def healthy_workers(self) -> List[Tuple[str, str]]:
        """``(worker_id, base_url)`` of every currently healthy worker."""
        with self._lock:
            return [
                (h.worker_id, h.base_url)
                for h in self._handles.values()
                if h.healthy and h.base_url
            ]

    def base_url(self, worker_id: str) -> Optional[str]:
        with self._lock:
            handle = self._handles.get(worker_id)
            return handle.base_url if handle is not None else None

    def is_healthy(self, worker_id: str) -> bool:
        with self._lock:
            handle = self._handles.get(worker_id)
            return bool(handle is not None and handle.healthy)

    def mark_unhealthy(self, worker_id: str) -> None:
        """Router-observed transport failure: distrust the health flag now.

        The heartbeat flips ``healthy`` within one interval anyway, but
        a failover retry that trusts a pre-crash ``True`` would hit the
        corpse immediately instead of waiting for the replacement —
        the router reports what it saw and :meth:`wait_healthy` then
        genuinely waits for the respawn to announce.
        """
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.healthy = False

    def wait_healthy(self, worker_id: str, timeout_s: float) -> bool:
        """Block until a worker reports healthy (failover retry gate)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.is_healthy(worker_id):
                return True
            time.sleep(0.02)
        return False

    def handle_of(self, worker_id: str) -> WorkerHandle:
        """Direct handle access (chaos tests kill through this)."""
        return self._handles[worker_id]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-safe per-worker state for the router's ``/stats``."""
        with self._lock:
            return [
                {
                    "worker_id": h.worker_id,
                    "pid": h.proc.pid if h.proc is not None else None,
                    "base_url": h.base_url,
                    "healthy": h.healthy,
                    "restarts": h.restarts,
                    "consecutive_failures": h.consecutive_failures,
                    "breaker_open": self._breaker.is_open(h.worker_id),
                    "gave_up": h.gave_up,
                    "recovered_instances": h.recovered_instances,
                    "journal_degraded": h.journal_degraded,
                    "hung_kills": h.hung_kills,
                }
                for h in self._handles.values()
            ]
