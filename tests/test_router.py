"""Router unit tests: seq stamping, routing picks, request placement.

Everything here runs in-process against a stub supervisor; the
multi-process behaviour (real workers, real SIGKILL) lives in
tests/test_multiworker.py.
"""

import json
import threading
import time

import pytest

from repro.io import instance_to_dict
from repro.paper_example import build_example_instance
from repro.service.router import PlanningRouter, RouterConfig, request_json


class StubSupervisor:
    """The slice of the Supervisor API the router reads."""

    def __init__(self, ids, healthy=None):
        self._ids = list(ids)
        self.healthy = set(ids if healthy is None else healthy)

    def worker_ids(self):
        return list(self._ids)

    def healthy_workers(self):
        return [
            (wid, f"http://127.0.0.1:1/{wid}")
            for wid in self._ids
            if wid in self.healthy
        ]

    def is_healthy(self, worker_id):
        return worker_id in self.healthy

    def wait_healthy(self, worker_id, timeout_s):
        return worker_id in self.healthy

    def base_url(self, worker_id):
        return f"http://127.0.0.1:1/{worker_id}"

    def mark_unhealthy(self, worker_id):
        self.healthy.discard(worker_id)


@pytest.fixture
def router():
    supervisor = StubSupervisor(["w0", "w1", "w2", "w3"])
    instance = PlanningRouter(
        ("127.0.0.1", 0), supervisor, RouterConfig(failover_wait_s=0.01)
    )
    yield instance
    instance.server_close()


class TestSeqStamping:
    def test_stamps_monotone_sequence(self, router):
        payloads = [{"instance_id": "w0-inst-000000"} for _ in range(3)]
        for payload in payloads:
            router.stamp_seq("w0-inst-000000", payload)
        assert [p["seq"] for p in payloads] == [0, 1, 2]

    def test_sequences_are_per_instance(self, router):
        a, b = {}, {}
        router.stamp_seq("inst-a", a)
        router.stamp_seq("inst-b", b)
        assert (a["seq"], b["seq"]) == (0, 0)

    def test_client_seq_advances_the_counter(self, router):
        supplied = {"seq": 41}
        router.stamp_seq("inst-a", supplied)
        assert supplied["seq"] == 41  # client value kept verbatim
        stamped = {}
        router.stamp_seq("inst-a", stamped)
        assert stamped["seq"] == 42

    def test_forget_owner_resets_the_sequence(self, router):
        router.record_owner("inst-a", "w0")
        router.stamp_seq("inst-a", {})
        router.forget_owner("inst-a")
        fresh = {}
        router.stamp_seq("inst-a", fresh)
        assert fresh["seq"] == 0
        assert router.owner_of("inst-a") is None


class TestPicks:
    def test_pick_least_loaded_prefers_idle_worker(self, router):
        with router._lock:
            router._outstanding.update({"w0": 3, "w1": 0, "w2": 5, "w3": 2})
        assert router.pick_least_loaded() == "w1"

    def test_pick_least_loaded_skips_unhealthy(self, router):
        with router._lock:
            router._outstanding.update({"w0": 0, "w1": 1, "w2": 2, "w3": 3})
        router.supervisor.healthy.discard("w0")
        assert router.pick_least_loaded() == "w1"

    def test_pick_least_loaded_none_when_fleet_is_down(self, router):
        router.supervisor.healthy.clear()
        assert router.pick_least_loaded() is None

    def test_ties_are_taken_in_turn(self, router):
        picks = [router.pick_least_loaded() for _ in range(6)]
        assert picks == ["w0", "w1", "w2", "w3", "w0", "w1"]

    def test_exclude_is_respected(self, router):
        assert router.pick_least_loaded(exclude=("w0", "w1", "w3")) == "w2"
        assert router.pick_least_loaded(exclude=("w0", "w1", "w2", "w3")) is None


class TestPlacement:
    """Where the router's HTTP handlers send each request.

    The router serves real HTTP against the stub supervisor; its
    ``proxy_with_failover`` is replaced by a recorder that answers for
    the worker it was handed, so each test reads the placement
    decision directly.
    """

    @pytest.fixture
    def fleet(self, router):
        sent = []

        def answer(worker_id, path, body, alternate_ok):
            sent.append((worker_id, path, body))
            reply = {"status": "ok"}
            if path == "/instances":
                reply["instance_id"] = f"{worker_id}-inst-{len(sent):06d}"
            return 200, json.dumps(reply).encode(), worker_id

        router.proxy_with_failover = answer
        router.serve_in_thread()
        host, port = router.server_address[:2]
        yield router, f"http://{host}:{port}", sent
        router.shutdown()

    def test_idle_fleet_alternates_registrations_and_inline_solves(self, fleet):
        router, base, sent = fleet
        wire = {"instance": instance_to_dict(build_example_instance())}
        for path in ("/instances", "/solve", "/instances", "/solve"):
            assert request_json(base, path, wire)[0] == 200
        assert [worker for worker, _, _ in sent] == ["w0", "w1", "w2", "w3"]
        # Identical content is placed by load, not by what it contains.
        assert len({body for _, _, body in sent}) == 1

    def test_workers_with_more_outstanding_are_skipped(self, fleet):
        router, base, sent = fleet
        with router._lock:
            router._outstanding.update({"w0": 2, "w1": 1, "w2": 0, "w3": 1})
        for capacity in (2, 3, 4):
            wire = instance_to_dict(build_example_instance())
            wire["events"][0]["capacity"] = capacity
            for path in ("/solve", "/instances"):
                assert request_json(base, path, {"instance": wire})[0] == 200
        # Six requests, three contents: every one goes to the idle worker.
        assert {worker for worker, _, _ in sent} == {"w2"}
        assert len(sent) == 6

    def test_malformed_body_is_placed_by_load(self, fleet):
        router, base, sent = fleet
        with router._lock:
            router._outstanding.update({"w0": 1, "w1": 1, "w2": 0, "w3": 1})
        status, _ = request_json(base, "/solve", raw_body=b"{not json")
        assert status == 200
        assert sent[0][0] == "w2"

    def test_unowned_request_waits_for_a_healthy_worker(self, fleet):
        router, base, sent = fleet
        router.config = RouterConfig(failover_wait_s=10.0)
        router.supervisor.healthy.clear()
        revive = threading.Timer(
            0.3, lambda: router.supervisor.healthy.add("w3")
        )
        revive.start()
        try:
            started = time.monotonic()
            status, _ = request_json(
                base, "/instances",
                {"instance": instance_to_dict(build_example_instance())},
            )
            waited = time.monotonic() - started
        finally:
            revive.cancel()
        assert status == 200
        assert sent[0][0] == "w3"
        assert 0.25 <= waited < 10.0

    def test_unowned_request_answers_503_once_the_wait_runs_out(self, fleet):
        router, base, sent = fleet
        router.config = RouterConfig(failover_wait_s=0.3)
        router.supervisor.healthy.clear()
        wire = {"instance": instance_to_dict(build_example_instance())}
        for path in ("/instances", "/solve"):
            started = time.monotonic()
            status, body = request_json(base, path, wire)
            assert time.monotonic() - started >= 0.3
            assert (status, body["error"]) == (503, "worker-unavailable")
        assert sent == []

    def test_owned_requests_go_to_the_owner(self, fleet):
        router, base, sent = fleet
        router.record_owner("w2-inst-000000", "w2")
        with router._lock:
            router._outstanding.update({"w0": 0, "w1": 0, "w2": 5, "w3": 0})
        owned = {"instance_id": "w2-inst-000000"}
        for path in ("/mutate", "/compact", "/solve"):
            assert request_json(base, path, dict(owned))[0] == 200
        assert [(worker, path) for worker, path, _ in sent] == [
            ("w2", "/mutate"), ("w2", "/compact"), ("w2", "/solve"),
        ]

    @pytest.mark.parametrize("path", ["/mutate", "/compact", "/solve"])
    def test_owner_routed_paths_share_one_contract(self, fleet, path):
        router, base, sent = fleet
        unknown = {"instance_id": "w1-inst-000009"}
        status, body = request_json(base, path, unknown)
        assert (status, body["error"]) == (404, "not-found")
        assert sent == []

        owned = {"instance_id": "w1-inst-000001"}
        router.record_owner(owned["instance_id"], "w1")
        assert request_json(base, path, dict(owned))[0] == 200
        ((worker, sent_path, forwarded),) = sent
        assert (worker, sent_path) == ("w1", path)
        # Only /mutate is stamped with a seq; the rest go as sent.
        assert ("seq" in json.loads(forwarded)) == (path == "/mutate")

        router.proxy_with_failover = lambda *args, **kwargs: (None, b"", "w1")
        status, body = request_json(base, path, dict(owned))
        assert (status, body["error"]) == (503, "worker-unavailable")
        assert router.owner_of(owned["instance_id"]) == "w1"

        evicted = json.dumps({"error": "instance-evicted"}).encode()
        router.proxy_with_failover = lambda *args, **kwargs: (410, evicted, "w1")
        assert request_json(base, path, dict(owned))[0] == 410
        assert router.owner_of(owned["instance_id"]) is None
