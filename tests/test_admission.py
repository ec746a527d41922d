"""Unit tests for the admission controller (no HTTP involved)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    Shed,
    Ticket,
    TokenBucket,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTokenBucket:
    def test_disabled_bucket_always_grants(self):
        bucket = TokenBucket(0, 0, clock=FakeClock())
        for _ in range(100):
            granted, retry = bucket.try_take()
            assert granted and retry == 0.0

    def test_burst_then_shed_with_retry_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(2, 1.0, clock=clock)
        assert bucket.try_take()[0]
        assert bucket.try_take()[0]
        granted, retry = bucket.try_take()
        assert not granted
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(1, 2.0, clock=clock)
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token
        assert bucket.try_take()[0]

    def test_zero_refill_gives_long_hint(self):
        bucket = TokenBucket(1, 0.0, clock=FakeClock())
        bucket.try_take()
        granted, retry = bucket.try_take()
        assert not granted and retry >= 60.0


class TestDeadlineClamp:
    def test_default_applied_when_absent(self):
        config = AdmissionConfig(deadline_cap_s=30, default_deadline_s=10)
        assert config.clamp_deadline(None) == 10

    def test_client_deadline_clamped_to_cap(self):
        config = AdmissionConfig(deadline_cap_s=30, default_deadline_s=10)
        assert config.clamp_deadline(999) == 30
        assert config.clamp_deadline(5) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(deadline_cap_s=0)


class TestAdmission:
    def _controller(self, **kwargs):
        defaults = dict(max_inflight=1, queue_depth=2)
        defaults.update(kwargs)
        return AdmissionController(AdmissionConfig(**defaults))

    def test_admit_grants_ticket_at_full_quality(self):
        ctrl = self._controller()
        ticket = ctrl.admit()
        assert isinstance(ticket, Ticket)
        assert ticket.rung_shift == 0

    def test_queue_full_sheds_503(self):
        ctrl = self._controller()
        tickets = [ctrl.admit() for _ in range(3)]  # 1 inflight + 2 queue
        assert all(isinstance(t, Ticket) for t in tickets)
        shed = ctrl.admit()
        assert isinstance(shed, Shed)
        assert shed.status == 503
        assert shed.reason == "queue-full"
        assert shed.retry_after_s > 0

    def test_rung_shift_grows_with_queue_depth(self):
        ctrl = self._controller(max_inflight=1, queue_depth=4)
        first = ctrl.admit()
        assert ctrl.acquire_slot(first, time.monotonic() + 5) is None
        shifts = [ctrl.admit().rung_shift for _ in range(4)]
        assert shifts[0] == 0  # empty queue keeps full quality
        assert shifts[-1] >= 1  # deep queue degrades
        assert shifts == sorted(shifts)  # pressure only pushes down

    def test_rate_limit_sheds_429(self):
        ctrl = self._controller(rate_burst=1, rate_per_s=0.5)
        assert isinstance(ctrl.admit(), Ticket)
        shed = ctrl.admit()
        assert isinstance(shed, Shed)
        assert shed.status == 429
        assert shed.reason == "rate-limited"
        assert 0 < shed.retry_after_s <= 2.0 + 1e-6

    def test_past_deadline_shed_even_with_free_slot(self):
        ctrl = self._controller()
        ticket = ctrl.admit()
        shed = ctrl.acquire_slot(ticket, time.monotonic() - 1)
        assert isinstance(shed, Shed)
        assert shed.status == 503
        assert shed.reason == "deadline-exhausted"

    def test_deadline_exhausted_while_queued(self):
        ctrl = self._controller()
        holder = ctrl.admit()
        assert ctrl.acquire_slot(holder, time.monotonic() + 5) is None
        queued = ctrl.admit()
        shed = ctrl.acquire_slot(queued, time.monotonic() + 0.05)
        assert isinstance(shed, Shed)
        assert shed.reason == "deadline-exhausted"
        ctrl.finish(holder, "ok")

    def test_release_wakes_queued_waiter(self):
        ctrl = self._controller()
        holder = ctrl.admit()
        assert ctrl.acquire_slot(holder, time.monotonic() + 5) is None
        queued = ctrl.admit()
        got = []

        def waiter():
            got.append(ctrl.acquire_slot(queued, time.monotonic() + 5))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        ctrl.finish(holder, "ok")
        thread.join(timeout=5)
        assert got == [None]
        ctrl.finish(queued, "degraded")

    def test_drain_sheds_new_requests(self):
        ctrl = self._controller()
        ctrl.drain()
        shed = ctrl.admit()
        assert isinstance(shed, Shed)
        assert shed.status == 503
        assert shed.reason == "draining"

    def test_counters_always_sum_to_received(self):
        ctrl = self._controller(max_inflight=1, queue_depth=1)
        t1 = ctrl.admit()
        assert ctrl.acquire_slot(t1, time.monotonic() + 5) is None
        t2 = ctrl.admit()  # queued ticket -> settle as invalid below
        ctrl.admit()  # queue full -> shed
        ctrl.finish(t2, "invalid")
        ctrl.finish(t1, "ok")
        snap = ctrl.snapshot()
        counters = snap["counters"]
        assert counters["received"] == 3
        assert (
            counters["ok"]
            + counters["degraded"]
            + counters["shed"]
            + counters["invalid"]
            + counters["failed"]
            == counters["received"]
        )
        assert snap["inflight"] == 0 and snap["queued"] == 0

    def test_unknown_disposition_rejected(self):
        ctrl = self._controller()
        ticket = ctrl.admit()
        assert ctrl.acquire_slot(ticket, time.monotonic() + 5) is None
        with pytest.raises(ValueError):
            ctrl.finish(ticket, "mystery")
