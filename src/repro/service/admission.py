"""Admission control for the online planning service.

The server is a thread-per-connection daemon; what keeps it up under a
traffic spike is this module, which decides — *before* any solver
runs — what happens to each incoming ``/solve`` request:

1. **Rate limit** — a token bucket (capacity = burst, steady refill
   rate).  An empty bucket sheds the request with HTTP ``429`` and a
   ``retry_after`` hint computed from the refill rate, so well-behaved
   clients back off exactly as long as needed.
2. **Bounded queue** — at most ``max_inflight`` requests solve
   concurrently; up to ``queue_depth`` more may wait for a slot.
   Anything beyond that is shed immediately with ``503`` (the queue
   estimate gives the ``retry_after`` hint) — a saturated planner must
   reject new work, not accumulate an unbounded backlog of doomed
   requests.
3. **Degradation under pressure** — a request admitted into a
   *non-empty* queue is downgraded along the service's existing
   degradation ladder (:mod:`repro.service.ladder`): the deeper the
   queue at admission time, the cheaper the starting rung, so the
   backlog drains faster exactly when it is longest.  The response is
   tagged with the rung (and approximation guarantee) that actually
   produced the plan — same contract as sweep rows.
4. **Deadline propagation** — each request carries a deadline (client
   ``deadline_s`` clamped to the server cap).  The remaining deadline
   is what the queued request may wait for a slot, and then what the
   supervised solver child gets as its wall-clock budget.  A request
   whose deadline expires while queued is shed (``503``) without ever
   touching a solver.

Every decision increments exactly one terminal counter, so the
``/stats`` endpoint satisfies ``ok + degraded + shed + invalid +
failed == received`` — the invariant the overload soak test asserts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .ladder import DEFAULT_LADDER

#: Terminal dispositions a request can reach (each counts once).
DISPOSITIONS = ("ok", "degraded", "shed", "invalid", "failed")


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller.

    Attributes:
        max_inflight: Concurrent solves (each may fork one child).
        queue_depth: Requests allowed to wait for a solve slot; beyond
            this the request is shed with 503.
        deadline_cap_s: Server-side clamp on client deadlines.
        default_deadline_s: Deadline applied when the client sends none.
        rate_burst: Token-bucket capacity; ``0`` disables rate limiting.
        rate_per_s: Steady-state tokens added per second.
        max_body_bytes: Largest acceptable ``/solve`` body (413 above).
        ladder: Fallback rungs (registry names) used both for queue-
            pressure degradation and for in-request failure fallback.
    """

    max_inflight: int = 2
    queue_depth: int = 8
    deadline_cap_s: float = 30.0
    default_deadline_s: float = 10.0
    rate_burst: float = 0.0
    rate_per_s: float = 0.0
    max_body_bytes: int = 8 * 1024 * 1024
    ladder: Tuple[str, ...] = tuple(DEFAULT_LADDER)

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.deadline_cap_s <= 0:
            raise ValueError("deadline_cap_s must be positive")

    def clamp_deadline(self, requested: Optional[float]) -> float:
        """Effective per-request deadline in seconds."""
        if requested is None:
            return min(self.default_deadline_s, self.deadline_cap_s)
        return min(float(requested), self.deadline_cap_s)


class TokenBucket:
    """Classic token bucket; monotonic-clock based, thread-safe.

    ``capacity <= 0`` disables the limiter (every take succeeds).
    """

    def __init__(self, capacity: float, refill_per_s: float, clock=time.monotonic):
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self) -> Tuple[bool, float]:
        """Take one token; returns ``(granted, retry_after_s)``."""
        if self.capacity <= 0:
            return True, 0.0
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.capacity,
                self._tokens + (now - self._stamp) * self.refill_per_s,
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            if self.refill_per_s <= 0:
                return False, 60.0  # bucket can never refill; long hint
            return False, (1.0 - self._tokens) / self.refill_per_s


@dataclass
class Ticket:
    """An admitted request's claim on the solve pipeline.

    ``rung_shift`` is how many ladder rungs the admission pressure
    pushed the request down before solving even starts (0 = primary
    algorithm at full quality).  The holder calls
    :meth:`AdmissionController.acquire_slot` before the solve and hands
    the ticket to :meth:`~AdmissionController.finish` on every exit
    path; that settles it whichever stage it reached.
    """

    rung_shift: int
    queued_at: float = field(default_factory=time.monotonic)
    #: ``"queued"``, then ``"running"`` once :meth:`~AdmissionController.
    #: acquire_slot` grants a slot, ``"settled"`` once counted.
    stage: str = "queued"


@dataclass(frozen=True)
class Shed:
    """A rejected request: HTTP status, reason tag, and retry hint."""

    status: int  # 429 or 503
    reason: str  # rate-limited | queue-full | deadline-exhausted | draining
    retry_after_s: float


class AdmissionController:
    """Gatekeeper between the HTTP layer and the solver pipeline."""

    def __init__(self, config: AdmissionConfig, clock=time.monotonic):
        self.config = config
        self._clock = clock
        self._bucket = TokenBucket(
            config.rate_burst, config.rate_per_s, clock=clock
        )
        self._lock = threading.Lock()
        self._slots_free = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._draining = False
        self._counters: Dict[str, int] = {
            "received": 0,
            "ok": 0,
            "degraded": 0,
            "shed": 0,
            "invalid": 0,
            "failed": 0,
        }
        self._shed_reasons: Dict[str, int] = {}
        self._started = time.time()

    # -- admission -----------------------------------------------------
    def admit(self):
        """Admission decision for one request: ``Ticket`` or ``Shed``.

        Must be called once per ``/solve`` request, before the body is
        parsed (shedding is cheapest when it happens first).  Increments
        ``received``; a returned ``Shed`` is already counted, a
        ``Ticket`` must be settled via :meth:`finish`.
        """
        with self._lock:
            self._counters["received"] += 1
            if self._draining:
                return self._shed_locked(Shed(503, "draining", 1.0))
            granted, retry_after = self._bucket.try_take()
            if not granted:
                return self._shed_locked(
                    Shed(429, "rate-limited", round(retry_after, 3))
                )
            pending = self._inflight + self._queued
            capacity = self.config.max_inflight + self.config.queue_depth
            if pending >= capacity:
                # Hint: how long until the head of the queue likely
                # drains — one deadline-cap's worth per queued request
                # is the pessimistic bound; the average case is much
                # shorter, so advertise a single slot's worth.
                return self._shed_locked(
                    Shed(503, "queue-full", round(self.config.deadline_cap_s, 3))
                )
            shift = self._rung_shift_locked()
            self._queued += 1
            return Ticket(rung_shift=shift, queued_at=self._clock())

    def _shed_locked(self, shed: Shed) -> Shed:
        self._counters["shed"] += 1
        self._shed_reasons[shed.reason] = (
            self._shed_reasons.get(shed.reason, 0) + 1
        )
        return shed

    def _rung_shift_locked(self) -> int:
        """Ladder shift from queue occupancy at admission time.

        An empty queue (a free solve slot now, or the very next one)
        keeps full quality.  Otherwise the shift scales linearly with
        how full the queue is, topping out at the last ladder rung when
        the queue is (nearly) full.  The ladder is ordered from dearest
        to cheapest (DeDPO+RG, then DeGreedy by default), so the
        requests most likely to time out are the ones sent to the
        cheapest solver.
        """
        if self._inflight < self.config.max_inflight or self._queued == 0:
            return 0
        if self.config.queue_depth <= 0 or not self.config.ladder:
            return 0
        occupancy = self._queued / self.config.queue_depth
        return max(1, min(len(self.config.ladder), round(occupancy * len(self.config.ladder))))

    # -- slot lifecycle ------------------------------------------------
    def acquire_slot(self, ticket: Ticket, deadline: float) -> Optional[Shed]:
        """Block until a solve slot frees up or the deadline passes.

        Returns ``None`` once the slot is held; a ``Shed`` (already
        counted) when the request's deadline expired while queued.
        """
        with self._slots_free:
            while True:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    # Covers both "expired while queued" and "arrived
                    # already expired" — a doomed request never forks.
                    self._queued -= 1
                    ticket.stage = "settled"
                    return self._shed_locked(
                        Shed(503, "deadline-exhausted", 0.5)
                    )
                if self._inflight < self.config.max_inflight:
                    break
                self._slots_free.wait(timeout=remaining)
            self._queued -= 1
            self._inflight += 1
            ticket.stage = "running"
            return None

    def finish(self, ticket: Ticket, disposition: str) -> None:
        """Settle ``ticket`` once, wherever it got to.

        Releases its solve slot when it holds one, and otherwise leaves
        the queue (a request rejected after admission but before
        solving, e.g. a body that fails decoding); a ticket already
        settled, by this or by a shed in :meth:`acquire_slot`, is left
        alone.  A handler calls it on every exit path, so an error
        between admission and settlement cannot keep a queue place.
        """
        stage, ticket.stage = ticket.stage, "settled"
        if stage == "settled":
            return
        with self._slots_free:
            if stage == "running":
                self._inflight -= 1
                self._slots_free.notify()
            else:
                self._queued -= 1
            self._settle_locked(disposition)

    def _settle_locked(self, disposition: str) -> None:
        if disposition not in DISPOSITIONS:
            raise ValueError(f"unknown disposition {disposition!r}")
        self._counters[disposition] += 1

    # -- lifecycle / introspection ------------------------------------
    def drain(self) -> None:
        """Stop admitting; readiness flips false, in-flight work finishes."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def count_invalid_unadmitted(self) -> None:
        """Count a request rejected before admission (oversize, bad envelope).

        These never held a ticket, but the stats invariant still wants
        every received request to reach exactly one disposition.
        """
        with self._lock:
            self._counters["received"] += 1
            self._counters["invalid"] += 1

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time stats for ``/stats`` (JSON-safe)."""
        with self._lock:
            counters = dict(self._counters)
            return {
                "uptime_s": round(time.time() - self._started, 3),
                "inflight": self._inflight,
                "queued": self._queued,
                "draining": self._draining,
                "counters": counters,
                "shed_reasons": dict(self._shed_reasons),
                "config": {
                    "max_inflight": self.config.max_inflight,
                    "queue_depth": self.config.queue_depth,
                    "deadline_cap_s": self.config.deadline_cap_s,
                    "default_deadline_s": self.config.default_deadline_s,
                    "rate_burst": self.config.rate_burst,
                    "rate_per_s": self.config.rate_per_s,
                    "max_body_bytes": self.config.max_body_bytes,
                    "ladder": list(self.config.ladder),
                },
            }
