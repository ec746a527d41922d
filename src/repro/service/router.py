"""Front-end router of the multi-worker planning service.

``repro-usep serve --workers N`` puts this process in front of N
supervised workers (:mod:`repro.service.supervisor`).  Clients talk
only to the router; the router owns three decisions:

**Where a request goes** — *affinity by content*.  Registrations and
inline solves are routed by the instance's build-cache sha256
fingerprint through rendezvous (highest-random-weight) hashing over
the configured worker ids, so a content-identical instance always
lands on the shard whose build cache, candidate index and schedule
memo are already warm.  Requests naming an ``instance_id`` go to the
worker that registered it (the router remembers the mapping).
Unfingerprintable payloads fall back to the canonical-JSON hash, and
payloads the router cannot decode at all go to the least-loaded
healthy worker — the worker then produces the canonical 400.

**What happens when the shard is down** — *one structured retry*.  A
transport error against a worker (crashed mid-request, connection
refused during its restart window) triggers exactly one retry after
:meth:`~repro.service.supervisor.Supervisor.wait_healthy` sees the
replacement come up.  Mutation batches are safe to resend because the
router stamps every ``/mutate`` with a per-instance client sequence
number (when the client did not): the replacement worker replayed the
journal, so a batch that was applied-and-journalled before the crash
is deduplicated by ``seq``, and one that never applied applies now —
exactly-once either way.  Solves are read-only and always retryable.

**Whether to cut the work** — *scatter/gather on request*.  ``POST
/solve?partition=grid&cells=N`` routes through
:mod:`repro.service.scatter` instead of proxying: the instance is cut
into grid cells, each cell sub-solved on its affinity worker via
``POST /subsolve``, and the merged plan oracle-gated before the 200.
Any scatter failure falls back to the monolithic proxy path below —
``?partition`` can make a request faster, never less available.

**When the fleet says no** — *structured, never a raw reset*.  No
healthy worker and no recovery within the failover window yields a
503 ``worker-unavailable`` with ``Retry-After``; a draining router
yields 503 ``draining``.  Router-level sheds are counted separately
from worker admission counters so the per-worker invariant
(``ok+degraded+shed+invalid+failed == received``) stays exact and
``GET /stats`` can both sum it across the fleet and report the
router's own refusals.

See ``docs/serving.md`` for the topology and the failure taxonomy.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..core import build_cache
from ..core.exceptions import InvalidInstanceError
from ..io import instance_from_dict
from .scatter import scatter_solve
from .server import JsonRequestHandler
from .supervisor import Supervisor, SupervisorConfig, _src_root

#: Exceptions that mean "the worker did not answer", as opposed to an
#: HTTP error status (which is a worker *answer* and is relayed as-is).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass(frozen=True)
class RouterConfig:
    """Router-level knobs.

    Attributes:
        failover_wait_s: How long a request waits for a crashed shard's
            replacement before giving up with 503.
        proxy_timeout_s: Socket timeout of one proxied request; must
            exceed the worker deadline cap or slow solves look like
            transport failures.
        max_body_bytes: Size guard before buffering a request body.
        log_requests: Emit per-request lines to stderr.
    """

    failover_wait_s: float = 15.0
    proxy_timeout_s: float = 120.0
    max_body_bytes: int = 8 << 20
    log_requests: bool = False


def rendezvous_rank(key: str, worker_ids: Sequence[str]) -> List[str]:
    """Worker ids by descending rendezvous score for ``key``.

    Highest-random-weight hashing: each worker scores
    ``sha256(worker_id | key)`` and the owner is the max.  Properties
    the fleet relies on: deterministic (same key, same ranking, on
    every router restart), uniform (keys spread evenly), and minimally
    disruptive (removing a worker only moves *its* keys — the ranking
    of the survivors never changes, so a crash does not reshuffle warm
    caches fleet-wide).
    """
    def score(worker_id: str) -> str:
        return hashlib.sha256(f"{worker_id}|{key}".encode()).hexdigest()

    return sorted(worker_ids, key=score, reverse=True)


class PlanningRouter(ThreadingHTTPServer):
    """Threaded front-end: affinity routing + failover over a fleet."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        supervisor: Supervisor,
        config: Optional[RouterConfig] = None,
    ):
        super().__init__(address, _RouterHandler)
        self.supervisor = supervisor
        self.config = config or RouterConfig()
        self._lock = threading.Lock()
        #: instance_id -> worker_id of the registering shard.
        self._owners: Dict[str, str] = {}
        #: instance_id -> next router-stamped client sequence number.
        self._next_seq: Dict[str, int] = {}
        #: worker_id -> requests currently proxied there (least-loaded).
        self._outstanding: Dict[str, int] = {}
        self._draining = False
        self.counters: Dict[str, int] = {
            "received": 0,
            "proxied": 0,
            "failover_retries": 0,
            "unavailable": 0,
            "draining_rejects": 0,
            "partition_scatters": 0,
            "partition_fallbacks": 0,
            "partition_retries": 0,
            "partition_hedges": 0,
        }
        self._started = time.time()

    def count(self, key: str, n: int = 1) -> None:
        """Bump a router counter (thread-safe)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    # -- embedding ----------------------------------------------------
    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Flip readiness off; new POSTs answer 503 ``draining``."""
        self._draining = True

    # -- routing decisions --------------------------------------------
    def affinity_key(self, payload: Dict[str, object]) -> Optional[str]:
        """The routing key of an inline-instance payload.

        Build-cache fingerprint when the instance decodes and
        fingerprints (this is the exact key the worker's cache will be
        warm under); canonical-JSON sha256 when the cost model cannot be
        fingerprinted; ``None`` when the payload does not even decode —
        the caller then routes by load and lets the worker 400 it.
        """
        instance_dict = payload.get("instance")
        if not isinstance(instance_dict, dict):
            return None
        try:
            instance = instance_from_dict(instance_dict)
        except InvalidInstanceError:
            return None
        try:
            fingerprint = build_cache.instance_fingerprint(instance)
        except Exception:
            fingerprint = None
        if fingerprint is not None:
            return fingerprint
        blob = json.dumps(instance_dict, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def pick_by_key(self, key: str) -> Optional[str]:
        """The healthy worker owning ``key`` (rendezvous order).

        The rank is computed over *all* configured workers — not just
        the healthy ones — so the owner is stable across a crash: the
        moment the shard's replacement is back, its keys route home to
        the warm journals instead of staying scattered.
        """
        ranked = rendezvous_rank(key, self.supervisor.worker_ids())
        for worker_id in ranked:
            if self.supervisor.is_healthy(worker_id):
                return worker_id
        if ranked and self.supervisor.wait_healthy(
            ranked[0], self.config.failover_wait_s
        ):
            return ranked[0]
        return None

    def pick_least_loaded(
        self, exclude: Sequence[str] = ()
    ) -> Optional[str]:
        healthy = [
            wid for wid, _ in self.supervisor.healthy_workers()
            if wid not in exclude
        ]
        if not healthy:
            return None
        with self._lock:
            return min(
                healthy, key=lambda wid: self._outstanding.get(wid, 0)
            )

    def owner_of(self, instance_id: str) -> Optional[str]:
        with self._lock:
            return self._owners.get(instance_id)

    def record_owner(self, instance_id: str, worker_id: str) -> None:
        with self._lock:
            self._owners[instance_id] = worker_id

    def forget_owner(self, instance_id: str) -> None:
        with self._lock:
            self._owners.pop(instance_id, None)
            self._next_seq.pop(instance_id, None)

    def stamp_seq(self, instance_id: str, payload: Dict[str, object]) -> None:
        """Ensure the batch carries a monotone client sequence number.

        The stamp happens *before* the first send, so a failover retry
        resends the identical ``seq`` — the dedupe key of the
        exactly-once contract.  Client-supplied seqs advance the
        router's counter past themselves.
        """
        with self._lock:
            seq = payload.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                self._next_seq[instance_id] = max(
                    self._next_seq.get(instance_id, 0), seq + 1
                )
                return
            stamped = self._next_seq.get(instance_id, 0)
            payload["seq"] = stamped
            self._next_seq[instance_id] = stamped + 1

    # -- proxy plumbing -----------------------------------------------
    def proxy(
        self,
        worker_id: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP round-trip to a worker; raises TRANSPORT_ERRORS.

        ``timeout_s`` overrides the configured socket timeout for this
        call — the scatter path uses it to cap each subsolve at its
        deadline share instead of the generic proxy timeout.
        """
        base = self.supervisor.base_url(worker_id)
        if base is None:
            raise ConnectionError(f"worker {worker_id!r} has no address")
        parts = urlsplit(base)
        with self._lock:
            self._outstanding[worker_id] = self._outstanding.get(worker_id, 0) + 1
        conn = http.client.HTTPConnection(
            parts.hostname,
            parts.port,
            timeout=(
                timeout_s if timeout_s is not None else self.config.proxy_timeout_s
            ),
        )
        try:
            headers = {}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()
            with self._lock:
                self._outstanding[worker_id] -= 1

    def proxy_with_failover(
        self,
        worker_id: str,
        path: str,
        body: bytes,
        alternate_ok: bool,
    ) -> Tuple[Optional[int], bytes, str]:
        """POST to a worker; on transport error, one structured retry.

        The retry goes to the same worker id once the supervisor's
        replacement reports healthy (instance state lives in that
        shard's journals).  ``alternate_ok`` additionally allows a
        different healthy worker for stateless requests.  Returns
        ``(status, body, worker_id)``; status ``None`` means the fleet
        never answered.
        """
        try:
            status, data = self.proxy(worker_id, "POST", path, body)
            return status, data, worker_id
        except TRANSPORT_ERRORS:
            pass
        # The health flag may still be pre-crash True; distrust it so
        # wait_healthy below waits for the *replacement* to announce.
        self.supervisor.mark_unhealthy(worker_id)
        with self._lock:
            self.counters["failover_retries"] += 1
        if self.supervisor.wait_healthy(worker_id, self.config.failover_wait_s):
            try:
                status, data = self.proxy(worker_id, "POST", path, body)
                return status, data, worker_id
            except TRANSPORT_ERRORS:
                pass
        if alternate_ok:
            fallback = self.pick_least_loaded()
            if fallback is not None and fallback != worker_id:
                try:
                    status, data = self.proxy(fallback, "POST", path, body)
                    return status, data, fallback
                except TRANSPORT_ERRORS:
                    pass
        return None, b"", worker_id

    # -- stats ---------------------------------------------------------
    def fleet_stats(self) -> Dict[str, object]:
        """Router counters + per-worker ``/stats`` + fleet-summed counters."""
        workers: List[Dict[str, object]] = []
        totals: Dict[str, int] = {
            "received": 0, "ok": 0, "degraded": 0,
            "shed": 0, "invalid": 0, "failed": 0,
        }
        for worker_id, _base in self.supervisor.healthy_workers():
            try:
                status, data = self.proxy(worker_id, "GET", "/stats")
                if status != 200:
                    continue
                stats = json.loads(data)
            except TRANSPORT_ERRORS + (json.JSONDecodeError,):
                continue
            workers.append(stats)
            counters = stats.get("counters", {})
            for key in totals:
                value = counters.get(key, 0)
                if isinstance(value, int):
                    totals[key] += value
        with self._lock:
            router = dict(self.counters)
            router["known_instances"] = len(self._owners)
        return {
            "role": "router",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self._started, 3),
            "draining": self._draining,
            "router": router,
            "fleet_counters": totals,
            "workers": workers,
            "supervisor": self.supervisor.snapshot(),
        }


class _RouterHandler(JsonRequestHandler):
    server: PlanningRouter  # narrowed type

    timeout = 150

    def _send_unavailable(self, detail: str) -> None:
        with self.server._lock:
            self.server.counters["unavailable"] += 1
        self._send_error_json(503, "worker-unavailable", detail, retry_after=1.0)

    # -- GET -----------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib casing
        if self.path == "/healthz":
            healthy = len(self.server.supervisor.healthy_workers())
            self._send_json(
                200,
                {"status": "ok", "role": "router", "pid": os.getpid(),
                 "healthy_workers": healthy},
            )
        elif self.path == "/readyz":
            if self.server.draining:
                self._send_error_json(503, "draining", "router is draining")
            elif not self.server.supervisor.healthy_workers():
                self._send_error_json(
                    503, "worker-unavailable", "no healthy workers"
                )
            else:
                self._send_json(200, {"status": "ready"})
        elif self.path == "/stats":
            self._send_json(200, self.server.fleet_stats())
        else:
            self._send_error_json(
                404, "not-found", f"no such endpoint {self.path!r}"
            )

    # -- POST ----------------------------------------------------------
    def do_POST(self):  # noqa: N802 - stdlib casing
        parts = urlsplit(self.path)
        handlers = {
            "/solve": self._route_solve,
            "/instances": self._route_instances,
            "/mutate": self._route_mutate,
            "/compact": self._route_compact,
        }
        handler = handlers.get(parts.path)
        if handler is None:
            self._send_error_json(
                404, "not-found", f"no such endpoint {self.path!r}"
            )
            return
        if parts.path == "/solve" and parts.query:
            params = dict(parse_qsl(parts.query))
            scheme = params.get("partition")
            if scheme == "grid":
                handler = lambda: self._route_solve_partitioned(params)  # noqa: E731
            elif scheme is not None:
                self._send_error_json(
                    400, "bad-envelope",
                    f"unknown partition scheme {scheme!r}; "
                    "only 'grid' is supported",
                )
                return
        with self.server._lock:
            self.server.counters["received"] += 1
        if self.server.draining:
            with self.server._lock:
                self.server.counters["draining_rejects"] += 1
            self._send_error_json(
                503, "draining", "router is draining", retry_after=1.0
            )
            return
        try:
            handler()
        except Exception as exc:  # stay-up guarantee, router edition
            try:
                self._send_error_json(
                    500, "internal", f"unexpected {type(exc).__name__}"
                )
            except Exception:
                pass

    def _read_body(self) -> Optional[bytes]:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header)
        except (TypeError, ValueError):
            self._send_error_json(
                400, "bad-envelope", "a valid Content-Length header is required"
            )
            return None
        if length < 0 or length > self.server.config.max_body_bytes:
            self._send_error_json(
                413, "payload-too-large",
                f"body of {length} bytes exceeds the "
                f"{self.server.config.max_body_bytes}-byte limit",
            )
            return None
        return self.rfile.read(length)

    def _parse(self, raw: bytes) -> Optional[Dict[str, object]]:
        """Best-effort parse for routing; ``None`` = route by load."""
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _route_instances(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        payload = self._parse(raw)
        worker_id = None
        if payload is not None:
            key = self.server.affinity_key(payload)
            if key is not None:
                worker_id = self.server.pick_by_key(key)
        if worker_id is None:
            worker_id = self.server.pick_least_loaded()
        if worker_id is None:
            self._send_unavailable("no healthy worker to register on")
            return
        status, data, served_by = self.server.proxy_with_failover(
            worker_id, "/instances", raw, alternate_ok=True
        )
        if status is None:
            self._send_unavailable("registration failed: fleet unreachable")
            return
        if status == 200:
            try:
                instance_id = json.loads(data).get("instance_id")
            except json.JSONDecodeError:
                instance_id = None
            if isinstance(instance_id, str):
                self.server.record_owner(instance_id, served_by)
        with self.server._lock:
            self.server.counters["proxied"] += 1
        self._send_json(status, data)

    def _route_mutate(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        payload = self._parse(raw)
        if payload is None or not isinstance(payload.get("instance_id"), str):
            # Malformed: any worker produces the canonical 400.
            self._route_stateless(raw, "/mutate")
            return
        instance_id = payload["instance_id"]
        worker_id = self.server.owner_of(instance_id)
        if worker_id is None:
            self._send_error_json(
                404, "not-found", f"no instance {instance_id!r}"
            )
            return
        self.server.stamp_seq(instance_id, payload)
        body = json.dumps(payload).encode()
        if not self.server.supervisor.is_healthy(worker_id):
            self.server.supervisor.wait_healthy(
                worker_id, self.server.config.failover_wait_s
            )
        # Mutations are shard-bound: never rerouted to a worker that
        # does not hold the journal (alternate_ok=False).
        status, data, _ = self.server.proxy_with_failover(
            worker_id, "/mutate", body, alternate_ok=False
        )
        if status is None:
            self._send_unavailable(
                f"shard {worker_id!r} of {instance_id!r} is unreachable"
            )
            return
        if status in (404, 410):
            self.server.forget_owner(instance_id)
        with self.server._lock:
            self.server.counters["proxied"] += 1
        self._send_json(status, data)

    def _route_compact(self) -> None:
        """Maintenance: journal compaction goes to the owning shard.

        Shard-bound like ``/mutate`` (the journal lives there), but
        idempotent and unsequenced — no seq stamp, plain failover.
        """
        raw = self._read_body()
        if raw is None:
            return
        payload = self._parse(raw)
        if payload is None or not isinstance(payload.get("instance_id"), str):
            self._route_stateless(raw, "/compact")
            return
        instance_id = payload["instance_id"]
        worker_id = self.server.owner_of(instance_id)
        if worker_id is None:
            self._send_error_json(
                404, "not-found", f"no instance {instance_id!r}"
            )
            return
        if not self.server.supervisor.is_healthy(worker_id):
            self.server.supervisor.wait_healthy(
                worker_id, self.server.config.failover_wait_s
            )
        status, data, _ = self.server.proxy_with_failover(
            worker_id, "/compact", raw, alternate_ok=False
        )
        if status is None:
            self._send_unavailable(
                f"shard {worker_id!r} of {instance_id!r} is unreachable"
            )
            return
        if status in (404, 410):
            self.server.forget_owner(instance_id)
        with self.server._lock:
            self.server.counters["proxied"] += 1
        self._send_json(status, data)

    def _route_solve(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        self._route_solve_body(raw)

    def _route_solve_partitioned(self, params: Dict[str, str]) -> None:
        """``/solve?partition=grid``: scatter/gather, monolithic fallback.

        A malformed ``cells`` parameter is the only client error here;
        *every* other failure on the scatter path (see
        :mod:`repro.service.scatter`) silently degrades to the ordinary
        monolithic proxy below — the partitioned path is an
        optimisation, not a different availability contract, so the
        client never sees a 500 it would not have seen without
        ``?partition``.
        """
        raw = self._read_body()
        if raw is None:
            return
        try:
            cells = int(params.get("cells", "4"))
        except ValueError:
            self._send_error_json(
                400, "bad-envelope",
                f"cells must be an integer, got {params.get('cells')!r}",
            )
            return
        payload = self._parse(raw)
        result = None
        if payload is not None:
            try:
                result = scatter_solve(self.server, payload, cells=cells)
            except Exception:  # ScatterError and any surprise alike
                result = None
        if result is not None:
            status, body = result
            with self.server._lock:
                self.server.counters["partition_scatters"] += 1
            self._send_json(status, body)
            return
        with self.server._lock:
            self.server.counters["partition_fallbacks"] += 1
        self._route_solve_body(raw)

    def _route_solve_body(self, raw: bytes) -> None:
        payload = self._parse(raw)
        if payload is not None and isinstance(payload.get("instance_id"), str):
            instance_id = payload["instance_id"]
            worker_id = self.server.owner_of(instance_id)
            if worker_id is None:
                self._send_error_json(
                    404, "not-found", f"no instance {instance_id!r}"
                )
                return
            if not self.server.supervisor.is_healthy(worker_id):
                self.server.supervisor.wait_healthy(
                    worker_id, self.server.config.failover_wait_s
                )
            status, data, _ = self.server.proxy_with_failover(
                worker_id, "/solve", raw, alternate_ok=False
            )
            if status is None:
                self._send_unavailable(
                    f"shard {worker_id!r} of {instance_id!r} is unreachable"
                )
                return
            if status in (404, 410):
                self.server.forget_owner(instance_id)
            with self.server._lock:
                self.server.counters["proxied"] += 1
            self._send_json(status, data)
            return
        # Inline instance: affinity by content fingerprint when it
        # decodes, least-loaded otherwise.
        worker_id = None
        if payload is not None:
            key = self.server.affinity_key(payload)
            if key is not None:
                worker_id = self.server.pick_by_key(key)
        if worker_id is None:
            worker_id = self.server.pick_least_loaded()
        if worker_id is None:
            self._send_unavailable("no healthy worker to solve on")
            return
        status, data, _ = self.server.proxy_with_failover(
            worker_id, "/solve", raw, alternate_ok=True
        )
        if status is None:
            self._send_unavailable("solve failed: fleet unreachable")
            return
        with self.server._lock:
            self.server.counters["proxied"] += 1
        self._send_json(status, data)

    def _route_stateless(self, raw: bytes, path: str) -> None:
        worker_id = self.server.pick_least_loaded()
        if worker_id is None:
            self._send_unavailable("no healthy worker")
            return
        status, data, _ = self.server.proxy_with_failover(
            worker_id, path, raw, alternate_ok=True
        )
        if status is None:
            self._send_unavailable("fleet unreachable")
            return
        with self.server._lock:
            self.server.counters["proxied"] += 1
        self._send_json(status, data)


class LocalCluster:
    """A supervisor + router fleet on localhost, as a context manager.

    The harness the multi-process tests and the fleet fuzz modes
    (``verify/fuzz.py --churn-kill`` / ``--churn-disk``) ride on; the
    ``tools/`` smokes boot the real daemon through :class:`ServeDaemon`::

        with LocalCluster(workers=2, journal_root=tmp) as cluster:
            url = cluster.base_url          # the router
            cluster.kill_worker("w0")        # SIGKILL, supervisor restarts
    """

    def __init__(
        self,
        workers: int = 2,
        journal_root: Optional[str] = None,
        worker_args: Sequence[str] = (),
        supervisor_config: Optional[SupervisorConfig] = None,
        router_config: Optional[RouterConfig] = None,
        host: str = "127.0.0.1",
    ):
        self.supervisor_config = supervisor_config or SupervisorConfig(
            num_workers=workers,
            journal_root=journal_root,
            worker_args=tuple(worker_args),
        )
        self.router_config = router_config or RouterConfig(failover_wait_s=30.0)
        self.host = host
        self.supervisor: Optional[Supervisor] = None
        self.router: Optional[PlanningRouter] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        host, port = self.router.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "LocalCluster":
        self.supervisor = Supervisor(self.supervisor_config)
        self.supervisor.start()
        self.router = PlanningRouter(
            (self.host, 0), self.supervisor, self.router_config
        )
        self._thread = self.router.serve_in_thread()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.router is not None:
            self.router.shutdown()
            self.router.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self.supervisor is not None:
            self.supervisor.stop()

    def kill_worker(self, worker_id: str, sig: int = 9) -> int:
        """Send a raw signal to a worker process (chaos helper)."""
        handle = self.supervisor.handle_of(worker_id)
        pid = handle.proc.pid
        os.kill(pid, sig)
        return pid


def request_json(
    base_url: str,
    path: str,
    payload: Optional[Dict[str, object]] = None,
    raw_body: Optional[bytes] = None,
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, object]]:
    """One request to the service: ``(status, decoded JSON body)``.

    POSTs ``payload`` as JSON (or ``raw_body`` as is) when given, else
    GETs.  An HTTP error status comes back as a value; a transport
    failure raises :class:`OSError`.
    """
    data = raw_body
    if data is None and payload is not None:
        data = json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if data is not None else {}
    request = urllib.request.Request(base_url + path, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_journal_degraded(base_url: str) -> Tuple[List[str], Dict[str, object]]:
    """Poll the fleet's ``/stats`` until the supervisor reports a worker
    ``journal_degraded`` (it needs a heartbeat to notice) or 30 s pass;
    returns those worker ids and the last snapshot."""
    deadline = time.monotonic() + 30.0
    while True:
        _status, stats = request_json(base_url, "/stats")
        degraded = [
            str(worker["worker_id"])
            for worker in stats.get("supervisor", [])
            if worker.get("journal_degraded")
        ]
        if degraded or time.monotonic() >= deadline:
            return degraded, stats
        time.sleep(0.2)


class ServeDaemon:
    """``repro-usep serve`` as a real subprocess, as a context manager.

    How the ``tools/`` smokes boot the daemon an operator runs::

        with ServeDaemon(["--workers", "2", "--journal-dir", root]) as daemon:
            status, body = request_json(daemon.base_url, "/readyz")
        assert daemon.exit_code == 0    # drained cleanly on SIGTERM

    Entering spawns ``python -m repro.cli serve --port 0 <args>`` with
    ``env`` added to the environment, reads the address from its
    ``serving on`` line and waits for ``/readyz``; a daemon that exits
    or stays unready for :attr:`BOOT_TIMEOUT_S` is killed and raises
    :class:`RuntimeError`.  Its output is drained for its whole life
    and echoed, each line prefixed ``daemon:``.  Exiting sends one
    SIGTERM — the drain signal — and records :attr:`exit_code`; a
    daemon still up after :attr:`DRAIN_TIMEOUT_S` is SIGKILLed (a
    negative code).
    """

    BOOT_TIMEOUT_S = 60.0
    DRAIN_TIMEOUT_S = 60.0

    def __init__(self, args: Sequence[str] = (), env=None):
        self.args = list(args)
        self.env = dict(env or {})
        self.base_url: Optional[str] = None
        self.exit_code: Optional[int] = None

    def __enter__(self) -> "ServeDaemon":
        env = dict(os.environ, **self.env)
        env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
            + self.args,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        announced: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            for line in self.proc.stdout:
                line = line.rstrip()
                print(f"  daemon: {line}", flush=True)
                if line.startswith("serving on "):
                    announced.put(line.split("serving on ", 1)[1].strip())
            announced.put(None)  # end of output: the daemon exited

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + self.BOOT_TIMEOUT_S
        try:
            try:
                self.base_url = announced.get(timeout=self.BOOT_TIMEOUT_S)
            except queue.Empty:
                raise RuntimeError("daemon did not announce its address") from None
            if self.base_url is None:
                raise RuntimeError(f"daemon exited during boot ({self.proc.wait()})")
            while time.monotonic() < deadline:
                try:
                    if request_json(self.base_url, "/readyz", timeout=5)[0] == 200:
                        return self
                except OSError:
                    pass
                time.sleep(0.05)
            raise RuntimeError("daemon never became ready")
        except BaseException:
            self.proc.kill()
            self.exit_code = self.proc.wait()
            raise

    def __exit__(self, *exc_info) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.exit_code = self.proc.wait(timeout=self.DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.exit_code = self.proc.wait()
        self._reader.join(timeout=5)
