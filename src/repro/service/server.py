"""The online planning daemon: JSON-over-HTTP, pure stdlib.

``repro-usep serve`` turns the batch solver stack into a long-running
service.  Each ``POST /solve`` request carries an instance (the
``repro.io`` JSON format), an algorithm name and an optional deadline;
the response carries an oracle-verified planning, or a structured
error.  The design goals, in order: **stay up**, **shed gracefully**,
**never return an unverified plan**, **never leak a traceback**.

Request path::

    HTTP thread ── size guard ── admission (429/503) ── harden-decode
      (400) ── slot wait (bounded queue) ── run_supervised (in-process
      under a cooperative deadline, or a forked child) ── oracle gate
      ── ladder fallback ── 200

* Admission control, the bounded queue, rate limiting and queue-
  pressure degradation live in :mod:`repro.service.admission`.
* Solving reuses :func:`repro.service.executor.run_supervised`.  With
  ``in_process=True`` — every fleet worker, and ``serve --in-process``
  — an attempt runs in the handler thread: the solvers stop at a
  cooperative deadline (:mod:`repro.core.deadline`), and
  ``GET /healthz`` answers 503 ``stuck`` once a solve that ignores it
  runs :data:`STUCK_GRACE_S` past its deadline, so the fleet
  supervisor restarts the worker; the worker's memory limit is set
  once for the process.  Otherwise (single-process ``serve``) each
  attempt runs in a forked child, killed at the deadline and capped by
  a data-segment rlimit, so a hostile instance can hang or blow up
  only its own process.
* Repeated solves are warm.  An inline instance is swapped for its
  content-identical twin in the cross-cell build cache.  A registered
  instance keeps its own arrays, candidate index and schedule memo and
  never enters the build cache: it is mutable, and a twin adopted by
  an inline request would be solved without its lock.  In-process the
  schedule memo persists, so a by-id re-solve after churn reschedules
  only the users whose candidate view changed; a forked child fills
  its memo and drops it on exit.
* Every plan is gated by the independent oracle
  (:func:`repro.verify.oracle.verify_schedules`) before it is
  returned; an infeasible plan counts as a rung failure and the next
  ladder rung runs, within the same request deadline.

Long-lived instances (``docs/dynamic.md``): ``POST /instances``
registers an instance and returns an ``instance_id``; ``POST /mutate``
applies a typed mutation stream (:mod:`repro.core.deltas`) to it in
place; ``POST /solve`` accepts ``instance_id`` instead of an inline
``instance`` and re-solves incrementally — only users dirtied since the
last solve re-run Step 1.  Each stored instance carries its own lock,
so a solve always runs against (and is tagged with) one consistent
instance version, never a half-applied mutation batch.

Endpoints: ``POST /solve``, ``POST /subsolve`` (one partition cell for
the router's scatter path — single rung, no oracle; see
``docs/partitioning.md``), ``POST /instances``, ``POST /mutate``,
``GET /healthz`` (process liveness), ``GET /readyz`` (admission open),
``GET /stats`` (admission counters + build-cache stats).  See
``docs/serving.md`` for the full API and the failure taxonomy.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union

from ..algorithms.registry import available_solvers
from ..core import build_cache
from ..core.deltas import apply_mutation
from ..core.exceptions import InvalidInstanceError
from ..io import (
    instance_from_dict,
    instance_to_dict,
    mutation_to_dict,
    mutations_from_list,
)
from ..verify.oracle import verify_schedules
from .admission import AdmissionConfig, AdmissionController, Shed, Ticket
from .executor import fork_supported, run_supervised
from .journal import InstanceJournal, recover_all
from .ladder import guarantee_of, ladder_for

#: Hard floor on the deadline handed to a solver attempt: once the
#: remaining budget is below this, the request is answered from what
#: already happened instead of starting an attempt that cannot finish.
_MIN_SOLVE_BUDGET_S = 1e-3

#: How far past its own deadline an in-flight solve may run before
#: ``GET /healthz`` answers 503 ``stuck``.  The kernels stop at a
#: cooperative deadline within one user's step or heap pop; a solve
#: still running this long after its deadline ignores it (the ``hang``
#: fault, the ``*-seed`` twins, ``+LS``) and holds its thread and slot
#: until it ends, so the fleet supervisor's probe restarts the worker.
STUCK_GRACE_S = 5.0


@dataclass(frozen=True)
class ServerConfig:
    """Server-level knobs on top of :class:`AdmissionConfig`.

    Attributes:
        admission: The admission controller's configuration.
        default_algorithm: Solver used when the request names none.
        memory_limit_bytes: Data-segment rlimit of a forked solver child
            (per request); a fleet worker applies it to itself at boot
            instead.  ``None`` disables the guard.
        in_process: Solve in the handler thread under a cooperative
            deadline instead of forking (every fleet worker, ``serve
            --in-process``, fork-less platforms); the schedule memo of
            a registered instance then survives between requests.
            Responses are identical; a hang costs the worker, not just
            its request.
        verify: Oracle-gate every plan (only tests turn this off).
        log_requests: Emit per-request lines to stderr.
        max_instances: Registered-instance store bound; the least
            recently used instance is evicted past it.
        journal_dir: When set, ``POST /instances`` and ``POST /mutate``
            append to a per-instance JSONL journal under this directory
            (fsync'd before the response) and a restarted server
            replays them via :meth:`PlanningServer.recover_instances`.
        instance_id_prefix: Prepended to generated instance ids so ids
            stay globally unique across a multi-worker fleet
            (``w0-inst-000000``).
        worker_id: This process's name in a supervised fleet; echoed in
            ``/healthz`` and ``/stats`` so the router and chaos tooling
            can tell workers apart.
        snapshot_every: Compact an instance's journal to a single
            ``snapshot`` record after this many applied batches (``0``
            disables the cadence; ``POST /compact`` still works).
            Bounds crash-recovery replay to O(churn since the last
            snapshot) instead of O(all mutations ever).
    """

    admission: AdmissionConfig = AdmissionConfig()
    default_algorithm: str = "DeDPO+RG"
    memory_limit_bytes: Optional[int] = 1 << 31  # 2 GiB
    in_process: bool = False
    verify: bool = True
    log_requests: bool = False
    max_instances: int = 64
    journal_dir: Optional[str] = None
    instance_id_prefix: str = ""
    worker_id: Optional[str] = None
    snapshot_every: int = 0


class StoredInstance:
    """One registered instance: the live object plus its mutation lock.

    The lock serialises mutations against solves on the same instance:
    ``/mutate`` applies its whole batch under it, and an
    ``instance_id`` solve snapshots the version and runs Step 1 under
    it too, so every 200 response is verifiably the planning of one
    exact instance version.

    ``last_seq`` is the highest client sequence number whose batch has
    been applied (and journalled); a retried batch with the same or an
    older ``seq`` is acknowledged without re-applying — the idempotence
    half of the crash-failover contract.  ``evicted`` flips under the
    lock when the LRU bound pushes the entry out, so a handler that
    raced the eviction answers 410 instead of mutating a zombie.
    """

    __slots__ = (
        "instance_id",
        "instance",
        "lock",
        "evicted",
        "last_seq",
        "journal",
        "batches_since_snapshot",
    )

    def __init__(
        self, instance_id: str, instance, journal: Optional[InstanceJournal] = None
    ) -> None:
        self.instance_id = instance_id
        self.instance = instance
        self.lock = threading.Lock()
        self.evicted = False
        self.last_seq: Optional[int] = None
        self.journal = journal
        #: Batches journalled since the last ``snapshot`` record — the
        #: ``snapshot_every`` compaction cadence counter.
        self.batches_since_snapshot = 0


#: Evicted-id memory bound: enough to answer 410 for any id a client
#: could reasonably still hold, without growing forever.
_MAX_EVICTED_IDS = 4096

_ID_SUFFIX = re.compile(r"inst-(\d+)$")


class InstanceStore:
    """LRU-bounded ``instance_id -> StoredInstance`` map (thread-safe).

    Eviction is safe against in-flight ``/mutate``/``/solve`` holders:
    the victim is only removed under the store lock *after* its
    per-instance lock is acquired, so a mutation batch mid-apply always
    finishes against a live entry.  Lock order is store -> instance
    everywhere (handlers release the store lock in :meth:`get` before
    taking the instance lock), so the nesting cannot deadlock.
    """

    def __init__(self, max_instances: int, id_prefix: str = "") -> None:
        self._max = max(1, int(max_instances))
        self._prefix = id_prefix
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, StoredInstance]" = OrderedDict()
        self._evicted_ids: "OrderedDict[str, None]" = OrderedDict()
        self._next_id = 0

    def register(
        self,
        instance,
        instance_id: Optional[str] = None,
        journal: Optional[InstanceJournal] = None,
    ) -> StoredInstance:
        """Insert an instance; ``instance_id`` is set on journal replay.

        Replayed ids advance the generator past their numeric suffix so
        post-recovery registrations never collide with recovered ones.
        """
        with self._lock:
            if instance_id is None:
                instance_id = f"{self._prefix}inst-{self._next_id:06d}"
                self._next_id += 1
            else:
                match = _ID_SUFFIX.search(instance_id)
                if match is not None:
                    self._next_id = max(self._next_id, int(match.group(1)) + 1)
            entry = StoredInstance(instance_id, instance, journal=journal)
            self._entries[instance_id] = entry
            while len(self._entries) > self._max:
                evicted_id, evicted = next(iter(self._entries.items()))
                # Eviction must not yank the instance out from under a
                # handler: take its lock first (store -> instance order,
                # same as every other path), flip the tombstone, then
                # drop the entry and its journal.
                with evicted.lock:
                    evicted.evicted = True
                    del self._entries[evicted_id]
                    self._evicted_ids[evicted_id] = None
                    while len(self._evicted_ids) > _MAX_EVICTED_IDS:
                        self._evicted_ids.popitem(last=False)
                    if evicted.journal is not None:
                        evicted.journal.delete()
                        evicted.journal = None
            return entry

    def get(self, instance_id: str) -> Optional[StoredInstance]:
        with self._lock:
            entry = self._entries.get(instance_id)
            if entry is not None:
                self._entries.move_to_end(instance_id)
            return entry

    def was_evicted(self, instance_id: str) -> bool:
        """Whether an id once lived here and was LRU-evicted (410)."""
        with self._lock:
            return instance_id in self._evicted_ids

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _JsonErrors:
    """Reason tags the API uses; each maps to exactly one HTTP status."""

    BAD_JSON = "bad-json"
    BAD_ENVELOPE = "bad-envelope"
    INVALID_INSTANCE = "invalid-instance"
    UNKNOWN_ALGORITHM = "unknown-algorithm"
    OVERSIZE = "payload-too-large"
    SOLVE_FAILED = "solve-failed"
    NOT_FOUND = "not-found"
    EVICTED = "instance-evicted"


class PlanningServer(ThreadingHTTPServer):
    """Threaded HTTP server wired to one admission controller."""

    daemon_threads = True
    allow_reuse_address = True
    #: Kernel listen backlog.  Must comfortably exceed the app-level
    #: queue: a connection refused here is a raw TCP reset, while one
    #: admitted and shed gets the structured 429/503 + retry_after the
    #: API promises.  Shedding is the admission controller's job.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], config: ServerConfig):
        super().__init__(address, _Handler)
        self.config = config
        self.admission = AdmissionController(config.admission)
        self.instances = InstanceStore(
            config.max_instances, id_prefix=config.instance_id_prefix
        )
        self.recovery_failures: List[str] = []
        self.recovered_ids: List[str] = []
        # Journal health: snapshot count plus the degradation registry
        # (instance_id -> reason) surfaced as ``journal_degraded`` in
        # /healthz and /stats.  Degradation is one-way, so the registry
        # only grows.
        self._journal_lock = threading.Lock()
        self.journal_snapshots = 0
        self.journal_degraded_reasons: Dict[str, str] = {}
        # Test hook: called (with the ticket) after slot acquisition,
        # before solving — lets the soak test hold slots long enough to
        # build real queue pressure without needing a slow instance.
        self.pre_solve_hook = None
        # In-flight solves for the /healthz watchdog: token -> (start,
        # deadline), both monotonic.
        self._solves_lock = threading.Lock()
        self._solves: Dict[object, Tuple[float, float]] = {}

    # -- in-flight solves -------------------------------------------------
    def begin_solve(self, deadline: float) -> object:
        """Record one in-flight solve due by ``deadline``; returns the
        token :meth:`end_solve` takes."""
        token = object()
        with self._solves_lock:
            self._solves[token] = (time.monotonic(), deadline)
        return token

    def end_solve(self, token: object) -> None:
        with self._solves_lock:
            del self._solves[token]

    def solve_watch(self) -> Tuple[float, bool]:
        """``(age of the oldest in-flight solve in seconds, 0 when idle;
        whether a solve is more than STUCK_GRACE_S past its deadline)``."""
        now = time.monotonic()
        with self._solves_lock:
            solves = list(self._solves.values())
        oldest = max((now - start for start, _ in solves), default=0.0)
        stuck = any(now - deadline > STUCK_GRACE_S for _, deadline in solves)
        return round(oldest, 3), stuck

    # -- journal health -------------------------------------------------
    def journal_degraded(self) -> bool:
        """Whether any instance's journal has hit a disk fault."""
        with self._journal_lock:
            return bool(self.journal_degraded_reasons)

    def note_journal(self, entry: StoredInstance) -> None:
        """Record a journal's degradation (idempotent, logs once)."""
        journal = entry.journal
        if journal is None or journal.degraded is None:
            return
        with self._journal_lock:
            if entry.instance_id in self.journal_degraded_reasons:
                return
            self.journal_degraded_reasons[entry.instance_id] = journal.degraded
        print(
            f"server: journal for {entry.instance_id} degraded "
            f"(serving non-durably): {journal.degraded}",
            file=sys.stderr,
        )

    def compact_entry_locked(self, entry: StoredInstance) -> bool:
        """Compact one instance's journal; caller holds ``entry.lock``.

        The snapshot is taken under the lock, so it captures exactly the
        state every acknowledged batch reached.  Returns ``False`` when
        the journal is absent, already degraded, or degrades during the
        compaction (the pre-compaction file survives in that case).
        """
        journal = entry.journal
        if journal is None:
            return False
        ok = journal.compact(
            instance_to_dict(entry.instance),
            entry.last_seq,
            entry.instance.version,
        )
        if ok:
            entry.batches_since_snapshot = 0
            with self._journal_lock:
                self.journal_snapshots += 1
        self.note_journal(entry)
        return ok

    # -- convenience for embedding (tests, tools) ----------------------
    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def drain(self) -> None:
        """Flip readiness off; in-flight requests finish."""
        self.admission.drain()

    def await_idle(self, timeout_s: float = 30.0, poll_s: float = 0.02) -> bool:
        """Block until no request is in flight or queued (drain helper)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            snapshot = self.admission.snapshot()
            if snapshot["inflight"] == 0 and snapshot["queued"] == 0:
                return True
            time.sleep(poll_s)
        return False

    def recover_instances(self) -> List[str]:
        """Replay ``journal_dir`` into the instance store (boot path).

        Every journal that replays cleanly comes back as a registered
        instance under its original ``instance_id``, at its pre-crash
        ``instance_version``, with its client-sequence high-water mark —
        so an in-flight mutation retried by the router after failover
        is deduplicated, never double-applied.  Unreplayable journals
        land in :attr:`recovery_failures` (one bad instance must not
        keep the worker down).
        """
        if not self.config.journal_dir:
            return []
        recovered, failures = recover_all(self.config.journal_dir)
        self.recovery_failures = list(failures)
        ids: List[str] = []
        for item in recovered:
            journal = InstanceJournal.reopen(item.path)
            entry = self.instances.register(
                item.instance, instance_id=item.instance_id, journal=journal
            )
            entry.last_seq = item.last_seq
            self.note_journal(entry)
            ids.append(item.instance_id)
        self.recovered_ids = ids
        return ids


def make_server(
    host: str = "127.0.0.1", port: int = 0, config: Optional[ServerConfig] = None
) -> PlanningServer:
    """Build (but do not start) a planning server; port 0 = ephemeral."""
    return PlanningServer((host, port), config or ServerConfig())


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Transport shared by the worker and router request handlers.

    HTTP/1.1 keep-alive, request logging gated on the server's
    ``config.log_requests``, and one reply writer.  A reply leaves as
    two sends, headers and then body; with Nagle's algorithm on, a
    kept-alive connection holds the body until the client's delayed ACK
    of the headers arrives, about 40 ms on Linux.  So
    ``disable_nagle_algorithm`` has ``StreamRequestHandler.setup`` set
    ``TCP_NODELAY`` on every accepted socket.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if self.server.config.log_requests:
            super().log_message(fmt, *args)

    def _send_json(
        self,
        status: int,
        body: Union[Dict[str, object], bytes],
        retry_after: Optional[float] = None,
    ) -> None:
        """Write one JSON reply; ``bytes`` (a relayed reply) go as-is."""
        blob = body if isinstance(body, bytes) else json.dumps(body).encode()
        try:
            self.send_response(status)
            if status >= 400:
                # Error paths may not have drained the request body
                # (oversize guard responds before reading); closing the
                # connection keeps keep-alive framing from desyncing.
                self.send_header("Connection", "close")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            if retry_after is not None:
                self.send_header("Retry-After", f"{retry_after:.3f}")
            self.end_headers()
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; the request is already settled

    def _send_error_json(
        self,
        status: int,
        reason: str,
        detail: str,
        retry_after: Optional[float] = None,
    ) -> None:
        body: Dict[str, object] = {"error": reason, "detail": detail}
        if retry_after is not None:
            body["retry_after"] = retry_after
        self._send_json(status, body, retry_after=retry_after)


class _Handler(JsonRequestHandler):
    server: PlanningServer  # narrowed type

    #: Socket timeout per request read — an idle or trickling client
    #: releases its handler thread instead of pinning it forever.
    timeout = 60

    # -- GET endpoints -------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            oldest, stuck = self.server.solve_watch()
            body: Dict[str, object] = {
                "status": "stuck" if stuck else "ok",
                "pid": os.getpid(),
                "oldest_solve_s": oldest,
            }
            if self.server.config.worker_id is not None:
                body["worker_id"] = self.server.config.worker_id
            if self.server.config.journal_dir:
                body["journal_degraded"] = self.server.journal_degraded()
            self._send_json(503 if stuck else 200, body)
        elif self.path == "/readyz":
            if self.server.admission.draining:
                self._send_error_json(503, "draining", "server is draining")
            else:
                self._send_json(200, {"status": "ready"})
        elif self.path == "/stats":
            stats = self.server.admission.snapshot()
            stats["build_cache"] = build_cache.stats()
            stats["fork_supported"] = fork_supported()
            stats["in_process"] = self.server.config.in_process
            stats["oldest_solve_s"] = self.server.solve_watch()[0]
            stats["instances"] = len(self.server.instances)
            stats["pid"] = os.getpid()
            if self.server.config.worker_id is not None:
                stats["worker_id"] = self.server.config.worker_id
            if self.server.config.journal_dir:
                stats["recovery"] = {
                    "recovered": len(self.server.recovered_ids),
                    "failures": len(self.server.recovery_failures),
                }
                stats["journal_degraded"] = self.server.journal_degraded()
                stats["journal"] = {
                    "snapshots": self.server.journal_snapshots,
                    "degraded": len(self.server.journal_degraded_reasons),
                    "snapshot_every": self.server.config.snapshot_every,
                }
            self._send_json(200, stats)
        else:
            self._send_error_json(
                404, _JsonErrors.NOT_FOUND, f"no such endpoint {self.path!r}"
            )

    # -- POST endpoints ------------------------------------------------
    def do_POST(self):  # noqa: N802 - stdlib casing
        handlers = {
            "/solve": self._handle_solve,
            "/subsolve": self._handle_subsolve,
            "/instances": self._handle_instances,
            "/mutate": self._handle_mutate,
            "/compact": self._handle_compact,
        }
        handler = handlers.get(self.path)
        if handler is None:
            self._send_error_json(
                404, _JsonErrors.NOT_FOUND, f"no such endpoint {self.path!r}"
            )
            return
        try:
            handler()
        except Exception as exc:  # the stay-up guarantee: no traceback
            try:
                self._send_error_json(
                    500, "internal", f"unexpected {type(exc).__name__}"
                )
            except Exception:
                pass

    def _admit_and_read(self):
        """Size guard, body read and admission — shared POST prelude.

        Returns ``(raw_body, ticket)``, or ``None`` when the request was
        already answered (oversize, bad framing, shed).  On success the
        caller owns the ticket and must settle it exactly once.
        """
        admission = self.server.admission
        config = self.server.config

        # 1. Size guard — before reading (or even admitting) anything.
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header)
        except (TypeError, ValueError):
            admission.count_invalid_unadmitted()
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                "a valid Content-Length header is required",
            )
            return None
        if length < 0 or length > config.admission.max_body_bytes:
            admission.count_invalid_unadmitted()
            self._send_error_json(
                413, _JsonErrors.OVERSIZE,
                f"body of {length} bytes exceeds the "
                f"{config.admission.max_body_bytes}-byte limit",
            )
            return None

        # 2. Read the (size-bounded) body.  Reading before any shed
        # response keeps TCP sane: responding with unread request bytes
        # in flight resets the connection under the client's read.
        raw = self.rfile.read(length)

        # 3. Admission — shed before spending parse/solve effort.
        decision = admission.admit()
        if isinstance(decision, Shed):
            self._send_error_json(
                decision.status, decision.reason,
                "request shed by admission control",
                retry_after=decision.retry_after_s,
            )
            return None
        return raw, decision

    def _parse_object(self, raw: bytes) -> Optional[Dict[str, object]]:
        """Parse the body as a JSON object; None = already responded."""
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_json(
                400, _JsonErrors.BAD_JSON, f"body is not valid JSON: {exc}"
            )
            return None
        if not isinstance(payload, dict):
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                f"expected a JSON object, got {type(payload).__name__}",
            )
            return None
        return payload

    # -- POST /instances ----------------------------------------------
    def _handle_instances(self) -> None:
        """Register an instance for mutation + instance_id solving."""
        admission = self.server.admission
        prelude = self._admit_and_read()
        if prelude is None:
            return
        raw, _ticket = prelude
        payload = self._parse_object(raw)
        if payload is None:
            admission.settle("invalid")
            return
        try:
            instance = instance_from_dict(payload.get("instance"))
        except InvalidInstanceError as exc:
            admission.settle("invalid")
            self._send_error_json(400, _JsonErrors.INVALID_INSTANCE, str(exc))
            return
        entry = self.server.instances.register(instance)
        journal_dir = self.server.config.journal_dir
        durable = False
        if journal_dir:
            # Journal the *canonical* re-encoding, not the raw client
            # payload: replay then decodes exactly what the live store
            # holds, which is what the bit-identity contract compares.
            with entry.lock:
                entry.journal = InstanceJournal.create(
                    journal_dir, entry.instance_id, instance_to_dict(instance)
                )
            durable = entry.journal.degraded is None
            self.server.note_journal(entry)
        admission.settle("ok")
        self._send_json(
            200,
            {
                "instance_id": entry.instance_id,
                "version": instance.version,
                "num_users": instance.num_users,
                "num_events": instance.num_events,
                "durable": durable,
            },
        )

    # -- POST /mutate --------------------------------------------------
    def _handle_mutate(self) -> None:
        """Apply a typed mutation stream to a registered instance.

        The batch applies sequentially under the instance lock; on the
        first invalid mutation the earlier prefix *stays applied* (churn
        stream semantics, see :func:`repro.core.deltas.apply_mutations`)
        and the 400 response reports how many applied.

        Failover contract: a batch may carry a client sequence number
        (``seq``).  A batch whose ``seq`` is at or below the instance's
        high-water mark is acknowledged without re-applying (``deduped``
        in the response) — the router retries an in-flight batch once
        after a worker crash, and exactly-once application is this
        dedupe plus the journal's replay idempotence.  When the server
        journals, the applied prefix is fsync'd *before* the response:
        an acknowledged batch survives SIGKILL.
        """
        admission = self.server.admission
        prelude = self._admit_and_read()
        if prelude is None:
            return
        raw, _ticket = prelude
        payload = self._parse_object(raw)
        if payload is None:
            admission.settle("invalid")
            return
        instance_id = payload.get("instance_id")
        if not isinstance(instance_id, str):
            admission.settle("invalid")
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                f"instance_id must be a string, got {type(instance_id).__name__}",
            )
            return
        seq = payload.get("seq")
        if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int) or seq < 0):
            admission.settle("invalid")
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                f"seq must be a non-negative integer, got {seq!r}",
            )
            return
        try:
            mutations = mutations_from_list(payload.get("mutations"))
        except InvalidInstanceError as exc:
            admission.settle("invalid")
            self._send_error_json(400, _JsonErrors.INVALID_INSTANCE, str(exc))
            return
        entry = self.server.instances.get(instance_id)
        if entry is None:
            admission.settle("invalid")
            self._send_instance_gone(instance_id)
            return
        applied = 0
        dirty: set = set()
        error_detail: Optional[str] = None
        deduped = False
        with entry.lock:
            if entry.evicted:
                admission.settle("invalid")
                self._send_instance_gone(instance_id, evicted=True)
                return
            if (
                seq is not None
                and entry.last_seq is not None
                and seq <= entry.last_seq
            ):
                deduped = True
            else:
                applied_wire: List[Dict[str, object]] = []
                try:
                    for mutation in mutations:
                        report = apply_mutation(entry.instance, mutation)
                        dirty |= report.dirty_users
                        applied += 1
                        applied_wire.append(mutation_to_dict(mutation))
                except InvalidInstanceError as exc:
                    error_detail = str(exc)
                if applied:
                    # Durable before acknowledged; the seq travels with
                    # the applied prefix so replay dedupes it too.  A
                    # partially-applied batch consumes its seq — the
                    # prefix must never apply twice.
                    if entry.journal is not None:
                        durable = entry.journal.append_mutations(
                            applied_wire, seq, entry.instance.version
                        )
                        if durable:
                            entry.batches_since_snapshot += 1
                            every = self.server.config.snapshot_every
                            if every and entry.batches_since_snapshot >= every:
                                self.server.compact_entry_locked(entry)
                        else:
                            # Disk fault: the batch applied in memory and
                            # the worker keeps serving, but the ack is no
                            # longer a durability promise.
                            self.server.note_journal(entry)
                    if seq is not None:
                        entry.last_seq = seq
            version = entry.instance.version
            journal_live = (
                entry.journal is not None and entry.journal.degraded is None
            )
        body: Dict[str, object] = {
            "instance_id": instance_id,
            "version": version,
            "applied": applied,
            "requested": len(mutations),
            # Union of per-step dirty sets; ids are post-step, so only
            # exact when the stream contains no drop_user renumbering.
            "dirty_users": sorted(dirty),
        }
        if entry.journal is not None:
            body["durable"] = journal_live
        if deduped:
            body["deduped"] = True
        if error_detail is not None:
            body["error"] = _JsonErrors.INVALID_INSTANCE
            body["detail"] = error_detail
            admission.settle("invalid")
            self._send_json(400, body)
            return
        admission.settle("ok")
        self._send_json(200, body)

    # -- POST /compact ---------------------------------------------------
    def _handle_compact(self) -> None:
        """On-demand journal compaction (maintenance endpoint).

        Truncates the named instance's replay prefix to one ``snapshot``
        record under the instance lock — the scheduled ``snapshot_every``
        cadence, but callable now (pre-deploy, after bulk churn, in
        tests).  ``compacted`` is ``false`` when the journal is degraded
        or journaling is off for this worker.
        """
        admission = self.server.admission
        prelude = self._admit_and_read()
        if prelude is None:
            return
        raw, _ticket = prelude
        payload = self._parse_object(raw)
        if payload is None:
            admission.settle("invalid")
            return
        instance_id = payload.get("instance_id")
        if not isinstance(instance_id, str):
            admission.settle("invalid")
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                f"instance_id must be a string, got {type(instance_id).__name__}",
            )
            return
        entry = self.server.instances.get(instance_id)
        if entry is None:
            admission.settle("invalid")
            self._send_instance_gone(instance_id)
            return
        with entry.lock:
            if entry.evicted:
                admission.settle("invalid")
                self._send_instance_gone(instance_id, evicted=True)
                return
            compacted = self.server.compact_entry_locked(entry)
            version = entry.instance.version
            degraded = (
                entry.journal is not None and entry.journal.degraded is not None
            )
        admission.settle("ok")
        self._send_json(
            200,
            {
                "instance_id": instance_id,
                "version": version,
                "compacted": compacted,
                "journal_degraded": degraded,
            },
        )

    def _send_instance_gone(self, instance_id: str, evicted: bool = False) -> None:
        """404 for an id never seen, structured 410 for an evicted one."""
        if evicted or self.server.instances.was_evicted(instance_id):
            self._send_error_json(
                410, _JsonErrors.EVICTED,
                f"instance {instance_id!r} was evicted by the LRU bound "
                "(max_instances); register it again",
            )
        else:
            self._send_error_json(
                404, _JsonErrors.NOT_FOUND, f"no instance {instance_id!r}"
            )

    # -- POST /solve ---------------------------------------------------
    def _handle_solve(self) -> None:
        admission = self.server.admission

        prelude = self._admit_and_read()
        if prelude is None:
            return
        raw, ticket_ = prelude
        ticket: Ticket = ticket_
        arrival = time.monotonic()

        # 4. Hardened decode of the untrusted body.
        parsed = self._decode_body(raw)
        if parsed is None:
            admission.settle("invalid")
            return  # _decode_body already responded with a 400
        instance, algorithm, deadline_s, entry = parsed
        deadline = arrival + deadline_s

        # 5. Bounded wait for a solve slot, inside the deadline.
        shed = admission.acquire_slot(ticket, deadline)
        if shed is not None:
            self._send_error_json(
                shed.status, shed.reason,
                f"deadline of {deadline_s}s exhausted while queued",
                retry_after=shed.retry_after_s,
            )
            return

        # 6. Solve (slot held) and settle exactly once.
        disposition, status = "failed", 500
        body: Dict[str, object] = {
            "error": _JsonErrors.SOLVE_FAILED,
            "detail": "solve path aborted",
        }
        watch = self.server.begin_solve(deadline)
        try:
            hook = self.server.pre_solve_hook
            if hook is not None:
                hook(ticket)
            if entry is not None:
                # Registered instance: solve under its mutation lock so
                # the planning is that of exactly one version, and tag
                # the response with it.
                with entry.lock:
                    if entry.evicted:
                        # Raced the LRU bound between lookup and lock.
                        disposition, status = "invalid", 410
                        body = {
                            "error": _JsonErrors.EVICTED,
                            "detail": (
                                f"instance {entry.instance_id!r} was evicted "
                                "by the LRU bound (max_instances); register "
                                "it again"
                            ),
                        }
                    else:
                        solved_version = entry.instance.version
                        disposition, status, body = self._solve(
                            entry.instance, algorithm, ticket, deadline,
                            deadline_s, stored=True,
                        )
                        body["instance_id"] = entry.instance_id
                        body["instance_version"] = solved_version
            else:
                disposition, status, body = self._solve(
                    instance, algorithm, ticket, deadline, deadline_s
                )
        except Exception as exc:
            disposition, status = "failed", 500
            body = {
                "error": _JsonErrors.SOLVE_FAILED,
                "detail": f"unexpected {type(exc).__name__} in solve path",
            }
        finally:
            self.server.end_solve(watch)
            admission.release(disposition)  # noqa: B012 - counter contract
        self._send_json(status, body)

    # -- POST /subsolve ------------------------------------------------
    def _handle_subsolve(self) -> None:
        """Solve one partition cell for the router's scatter path.

        A cell plan is an *input to reconciliation*, not an answer to a
        client, so this endpoint deliberately skips two ``/solve``
        stages: no degradation ladder (a silently degraded cell would
        skew the merge's utility accounting — the scatter path falls
        back to a monolithic solve instead) and no oracle gate (the
        router verifies the *merged* global plan before any 200;
        per-cell verification would only re-check a plan that boundary
        reconciliation is about to edit).  Everything else — size
        guard, admission, hardened decode, supervised execution under
        the deadline — is the ordinary solve machinery.
        """
        admission = self.server.admission
        config = self.server.config
        prelude = self._admit_and_read()
        if prelude is None:
            return
        raw, ticket_ = prelude
        ticket: Ticket = ticket_
        arrival = time.monotonic()
        parsed = self._decode_body(raw)
        if parsed is None:
            admission.settle("invalid")
            return
        instance, algorithm, deadline_s, entry = parsed
        if entry is not None:
            admission.settle("invalid")
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                "subsolve takes an inline instance, not an instance_id",
            )
            return
        deadline = arrival + deadline_s
        shed = admission.acquire_slot(ticket, deadline)
        if shed is not None:
            self._send_error_json(
                shed.status, shed.reason,
                f"deadline of {deadline_s}s exhausted while queued",
                retry_after=shed.retry_after_s,
            )
            return
        disposition, status = "failed", 500
        body: Dict[str, object] = {
            "error": _JsonErrors.SOLVE_FAILED,
            "detail": "subsolve path aborted",
        }
        watch = self.server.begin_solve(deadline)
        try:
            try:
                instance, cache_hit = build_cache.get_or_register(instance)
                build_cache.prepare_build(instance)
            except Exception:
                cache_hit = False
            remaining = deadline - time.monotonic()
            if remaining >= _MIN_SOLVE_BUDGET_S:
                outcome = run_supervised(
                    instance,
                    algorithm,
                    timeout=remaining,
                    force_in_process=config.in_process,
                    memory_limit_bytes=config.memory_limit_bytes,
                )
                if outcome.ok:
                    disposition, status = "ok", 200
                    body = {
                        "status": "ok",
                        "algorithm": algorithm,
                        "utility": round(float(outcome.utility), 6),
                        "schedules": {
                            str(uid): events
                            for uid, events in sorted(
                                (outcome.schedules or {}).items()
                            )
                        },
                        "verified": False,
                        "deadline_s": deadline_s,
                        "solve_time_s": round(
                            outcome.solve_time_s
                            if outcome.solve_time_s is not None
                            else outcome.wall_time_s,
                            6,
                        ),
                        "cache_hit": bool(cache_hit),
                        "supervised": outcome.supervised,
                    }
                else:
                    body = {
                        "error": _JsonErrors.SOLVE_FAILED,
                        "detail": f"subsolve rung failed: {outcome.status}",
                        "deadline_s": deadline_s,
                    }
        except Exception as exc:
            disposition, status = "failed", 500
            body = {
                "error": _JsonErrors.SOLVE_FAILED,
                "detail": f"unexpected {type(exc).__name__} in subsolve path",
            }
        finally:
            self.server.end_solve(watch)
            admission.release(disposition)
        self._send_json(status, body)

    def _decode_body(self, raw: bytes):
        """Validate the request body; None = already responded.

        Returns ``(instance, algorithm, deadline_s, entry)`` where
        ``entry`` is the :class:`StoredInstance` when the request named
        an ``instance_id`` (solve under its lock) and ``None`` for an
        inline instance.
        """
        payload = self._parse_object(raw)
        if payload is None:
            return None
        algorithm = payload.get("algorithm", self.server.config.default_algorithm)
        if algorithm not in available_solvers():
            self._send_error_json(
                400, _JsonErrors.UNKNOWN_ALGORITHM,
                f"unknown algorithm {algorithm!r}; available: "
                f"{', '.join(available_solvers())}",
            )
            return None
        deadline_raw = payload.get("deadline_s")
        if deadline_raw is not None and (
            isinstance(deadline_raw, bool)
            or not isinstance(deadline_raw, (int, float))
            or deadline_raw <= 0
        ):
            self._send_error_json(
                400, _JsonErrors.BAD_ENVELOPE,
                f"deadline_s must be a positive number, got {deadline_raw!r}",
            )
            return None
        entry: Optional[StoredInstance] = None
        instance_id = payload.get("instance_id")
        if instance_id is not None:
            if payload.get("instance") is not None:
                self._send_error_json(
                    400, _JsonErrors.BAD_ENVELOPE,
                    "give either instance or instance_id, not both",
                )
                return None
            if not isinstance(instance_id, str):
                self._send_error_json(
                    400, _JsonErrors.BAD_ENVELOPE,
                    "instance_id must be a string, got "
                    f"{type(instance_id).__name__}",
                )
                return None
            entry = self.server.instances.get(instance_id)
            if entry is None:
                self._send_instance_gone(instance_id)
                return None
            instance = entry.instance
        else:
            try:
                instance = instance_from_dict(payload.get("instance"))
            except InvalidInstanceError as exc:
                self._send_error_json(
                    400, _JsonErrors.INVALID_INSTANCE, str(exc)
                )
                return None
        deadline_s = self.server.config.admission.clamp_deadline(deadline_raw)
        return instance, algorithm, deadline_s, entry

    def _solve(
        self,
        instance,
        algorithm: str,
        ticket: Ticket,
        deadline: float,
        deadline_s: float,
        stored: bool = False,
    ):
        """Ladder walk under the request deadline; returns the response.

        ``stored`` marks a registered instance, solved under its lock.
        Returns ``(disposition, http_status, body)`` where disposition
        is the admission counter to settle.
        """
        config = self.server.config
        rungs = ladder_for(algorithm, config.admission.ladder)
        start_rung = min(ticket.rung_shift, len(rungs) - 1)
        rungs = rungs[start_rung:]

        cache_hit = False
        try:
            # A registered instance never enters the build cache: /mutate
            # edits it in place, so an inline twin that adopted it would
            # be solved without its lock.  It warms its own build and
            # keeps its own schedule memo instead.
            if not stored:
                instance, cache_hit = build_cache.get_or_register(instance)
            build_cache.prepare_build(instance)
        except Exception:
            pass  # the solve rebuilds; failure surfaces there

        failures: List[Dict[str, object]] = []
        solve_started = time.monotonic()
        for offset, rung in enumerate(rungs):
            remaining = deadline - time.monotonic()
            if remaining < _MIN_SOLVE_BUDGET_S:
                break
            outcome = run_supervised(
                instance,
                rung,
                timeout=remaining,
                force_in_process=config.in_process,
                memory_limit_bytes=config.memory_limit_bytes,
            )
            if not outcome.ok:
                failures.append(
                    {"rung": rung, "reason": outcome.status}
                )
                continue
            if config.verify:
                report = verify_schedules(
                    instance,
                    outcome.schedules or {},
                    reported_utility=outcome.utility,
                )
                if not report.ok:
                    failures.append(
                        {"rung": rung, "reason": "oracle-rejected"}
                    )
                    continue
            rung_index = start_rung + offset
            degraded = rung_index > 0
            body: Dict[str, object] = {
                "status": "degraded" if degraded else "ok",
                "algorithm": algorithm,
                "rung": rung_index,
                "degraded_to": rung if degraded else None,
                "guarantee": guarantee_of(rung),
                "utility": round(float(outcome.utility), 6),
                "schedules": {
                    str(uid): evs
                    for uid, evs in sorted((outcome.schedules or {}).items())
                },
                "verified": bool(config.verify),
                "deadline_s": deadline_s,
                "solve_time_s": round(
                    outcome.solve_time_s
                    if outcome.solve_time_s is not None
                    else outcome.wall_time_s,
                    6,
                ),
                "wall_time_s": round(time.monotonic() - solve_started, 6),
                "cache_hit": bool(cache_hit),
                "supervised": outcome.supervised,
            }
            if failures:
                body["failures"] = failures
            return ("degraded" if degraded else "ok"), 200, body
        return (
            "failed",
            500,
            {
                "error": _JsonErrors.SOLVE_FAILED,
                "detail": (
                    "no ladder rung produced a verified plan within the "
                    f"{deadline_s}s deadline"
                ),
                "failures": failures,
                "deadline_s": deadline_s,
            },
        )
