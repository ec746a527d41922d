"""End-to-end tests of the online planning daemon.

Covers the tentpole contracts of the serving layer:

* well-formed JSON on every path — success, shed, invalid, failed —
  and never an unhandled traceback;
* admission semantics over real HTTP: 429 with ``Retry-After`` from
  the rate limiter, 503 from queue overflow and exhausted deadlines,
  degradation tagged with the ladder rung that produced the plan;
* every ``200`` passes the independent oracle, re-checked here from
  the raw response body;
* the overload soak: N ≫ queue capacity concurrent requests, zero
  server crashes, and ``/stats`` counters that sum exactly to N.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io import instance_to_dict
from repro.paper_example import build_example_instance
from repro.service.admission import AdmissionConfig
from repro.service.server import ServerConfig, make_server
from repro.verify.oracle import verify_schedules
from tests.conftest import (
    KEPT_ALIVE_MEDIAN_LIMIT_S,
    error_reply_closing,
    kept_alive_median_s,
)


@pytest.fixture
def example_payload():
    return {
        "instance": instance_to_dict(build_example_instance()),
        "algorithm": "DeDP",
        "deadline_s": 10,
    }


def _start(config: ServerConfig):
    server = make_server(port=0, config=config)
    server.serve_in_thread()
    return server


def _request(server, path, payload=None, raw_body=None, timeout=30):
    """One HTTP round trip; returns (status, parsed JSON body, headers)."""
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = raw_body
    if payload is not None:
        data = json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, json.loads(body), dict(exc.headers)


@pytest.fixture
def server():
    srv = _start(ServerConfig())
    yield srv
    srv.shutdown()


@pytest.fixture
def in_process_server():
    srv = _start(ServerConfig(in_process=True, memory_limit_bytes=None))
    yield srv
    srv.shutdown()


class TestEndpoints:
    def test_healthz(self, server):
        status, body, _ = _request(server, "/healthz")
        assert (status, body["status"]) == (200, "ok")

    def test_readyz_flips_on_drain(self, server):
        assert _request(server, "/readyz")[0] == 200
        server.drain()
        status, body, _ = _request(server, "/readyz")
        assert status == 503
        assert body["error"] == "draining"

    def test_stats_shape(self, server):
        status, body, _ = _request(server, "/stats")
        assert status == 200
        for key in ("counters", "inflight", "queued", "config", "build_cache"):
            assert key in body
        assert set(body["counters"]) == {
            "received", "ok", "degraded", "shed", "invalid", "failed",
        }

    def test_unknown_path_404_json(self, server):
        status, body, _ = _request(server, "/nope")
        assert status == 404
        assert body["error"] == "not-found"
        status, body, _ = _request(server, "/nope", payload={})
        assert status == 404


class TestKeptAliveTransport:
    """Replies on a held connection: no Nagle stall, errors still close."""

    def test_kept_alive_requests_do_not_stall(self, server):
        median = kept_alive_median_s(server.server_address)
        assert median < KEPT_ALIVE_MEDIAN_LIMIT_S, f"median {median * 1e3:.1f} ms"

    def test_error_reply_closes_kept_alive_connection(self, server):
        error = error_reply_closing(server.server_address)
        assert b"\r\nConnection: close\r\n" in error


class TestSolve:
    def test_solve_ok_and_oracle_verified(self, server, example_payload):
        status, body, _ = _request(server, "/solve", payload=example_payload)
        assert status == 200
        assert body["status"] == "ok"
        assert body["rung"] == 0 and body["degraded_to"] is None
        assert body["guarantee"] == "1/2-approx"
        # Re-check the returned plan with the independent oracle.
        schedules = {int(u): evs for u, evs in body["schedules"].items()}
        report = verify_schedules(
            build_example_instance(), schedules, reported_utility=body["utility"]
        )
        assert report.ok, report.summary()

    def test_repeat_solve_hits_build_cache(self, server, example_payload):
        first = _request(server, "/solve", payload=example_payload)[1]
        second = _request(server, "/solve", payload=example_payload)[1]
        assert first["utility"] == second["utility"]
        assert second["cache_hit"] is True

    def test_deadline_clamped_to_cap(self, example_payload):
        srv = _start(
            ServerConfig(admission=AdmissionConfig(deadline_cap_s=3.0))
        )
        try:
            example_payload["deadline_s"] = 999
            status, body, _ = _request(srv, "/solve", payload=example_payload)
            assert status == 200
            assert body["deadline_s"] == 3.0
        finally:
            srv.shutdown()

    def test_default_algorithm_when_absent(self, server, example_payload):
        del example_payload["algorithm"]
        status, body, _ = _request(server, "/solve", payload=example_payload)
        assert status == 200
        assert body["algorithm"] == server.config.default_algorithm


class TestUntrustedInput:
    def test_malformed_json_is_typed_400(self, server):
        status, body, _ = _request(server, "/solve", raw_body=b"{nope")
        assert status == 400
        assert body["error"] == "bad-json"

    def test_invalid_instance_carries_json_path(self, server, example_payload):
        example_payload["instance"]["users"][1]["budget"] = "plenty"
        status, body, _ = _request(server, "/solve", payload=example_payload)
        assert status == 400
        assert body["error"] == "invalid-instance"
        assert "users[1].budget" in body["detail"]

    def test_non_object_body_400(self, server):
        status, body, _ = _request(server, "/solve", payload=[1, 2, 3])
        assert status == 400
        assert body["error"] == "bad-envelope"

    def test_unknown_algorithm_400(self, server, example_payload):
        example_payload["algorithm"] = "Clairvoyant"
        status, body, _ = _request(server, "/solve", payload=example_payload)
        assert status == 400
        assert body["error"] == "unknown-algorithm"

    def test_bad_deadline_400(self, server, example_payload):
        for bad in (0, -3, "soon", True):
            example_payload["deadline_s"] = bad
            status, body, _ = _request(server, "/solve", payload=example_payload)
            assert status == 400
            assert body["error"] == "bad-envelope"

    def test_oversize_payload_413(self, example_payload):
        srv = _start(
            ServerConfig(admission=AdmissionConfig(max_body_bytes=64))
        )
        try:
            status, body, _ = _request(srv, "/solve", payload=example_payload)
            assert status == 413
            assert body["error"] == "payload-too-large"
            # the guard still counts toward the stats invariant
            counters = _request(srv, "/stats")[1]["counters"]
            assert counters["received"] == counters["invalid"] == 1
        finally:
            srv.shutdown()

    def test_fuzz_corpus_never_crashes_http_path(self, server, example_payload):
        """A sample of hostile bodies: every response is typed JSON."""
        hostile = [
            b"",
            b"null",
            b"[]",
            b'"instance"',
            b"{\"instance\": 5}",
            b'{"instance": {"format_version": 1}}',
            b'{"instance": {"format_version": 99, "events": []}}',
            json.dumps(
                {"instance": {**example_payload["instance"], "events": None}}
            ).encode(),
            b"\xff\xfe\x00garbage",
        ]
        for raw in hostile:
            status, body, _ = _request(server, "/solve", raw_body=raw)
            assert status == 400
            assert body["error"] in ("bad-json", "bad-envelope", "invalid-instance")
        assert _request(server, "/healthz")[0] == 200


class TestAdmissionOverHTTP:
    def test_rate_limited_429_with_retry_after(self, example_payload):
        srv = _start(
            ServerConfig(
                admission=AdmissionConfig(rate_burst=1, rate_per_s=0.01)
            )
        )
        try:
            assert _request(srv, "/solve", payload=example_payload)[0] == 200
            status, body, headers = _request(
                srv, "/solve", payload=example_payload
            )
            assert status == 429
            assert body["error"] == "rate-limited"
            assert body["retry_after"] > 0
            assert "Retry-After" in headers
        finally:
            srv.shutdown()

    def test_past_deadline_shed_503(self, server, example_payload):
        example_payload["deadline_s"] = 1e-6
        status, body, _ = _request(server, "/solve", payload=example_payload)
        assert status == 503
        assert body["error"] == "deadline-exhausted"
        assert body["retry_after"] > 0

    def test_queue_pressure_degrades_with_rung_tag(self, example_payload):
        """Deterministic degrade: hold the only slot, stack the queue."""
        srv = _start(
            ServerConfig(
                in_process=True,
                memory_limit_bytes=None,
                admission=AdmissionConfig(max_inflight=1, queue_depth=2),
            )
        )
        release = threading.Event()
        first_entered = threading.Event()
        calls = []

        def hook(_ticket):
            calls.append(1)
            if len(calls) == 1:
                first_entered.set()
                release.wait(timeout=30)

        srv.pre_solve_hook = hook
        results = []

        def post(payload):
            results.append(_request(srv, "/solve", payload=payload))

        try:
            t1 = threading.Thread(target=post, args=(example_payload,))
            t1.start()
            assert first_entered.wait(timeout=10)
            # Slot held: next two requests queue; the second of them
            # lands in a non-empty queue and must be degraded.
            t2 = threading.Thread(target=post, args=(example_payload,))
            t2.start()
            time.sleep(0.2)  # let t2 reach the queue before t3 admits
            t3 = threading.Thread(target=post, args=(example_payload,))
            t3.start()
            time.sleep(0.2)
            release.set()
            for thread in (t1, t2, t3):
                thread.join(timeout=30)
            statuses = sorted(r[0] for r in results)
            assert statuses == [200, 200, 200]
            degraded = [r[1] for r in results if r[1]["status"] == "degraded"]
            assert degraded, "queue pressure produced no degraded response"
            for body in degraded:
                assert body["rung"] >= 1
                assert body["degraded_to"] is not None
                assert body["guarantee"]
        finally:
            release.set()
            srv.shutdown()


class TestOverloadSoak:
    def test_2x_queue_capacity_sheds_cleanly(self, example_payload):
        """N = 2 x (inflight + queue) concurrent solves: stay up, shed
        structured, verify every accepted plan, counters sum to N."""
        admission = AdmissionConfig(max_inflight=2, queue_depth=4)
        srv = _start(
            ServerConfig(
                in_process=True, memory_limit_bytes=None, admission=admission
            )
        )
        srv.pre_solve_hook = lambda _ticket: time.sleep(0.15)
        capacity = admission.max_inflight + admission.queue_depth
        n = 2 * capacity + 12  # well past 2x saturation
        barrier = threading.Barrier(n)
        results = []
        lock = threading.Lock()

        def client():
            barrier.wait(timeout=30)
            try:
                outcome = _request(srv, "/solve", payload=example_payload)
            except Exception as exc:  # transport failure = test failure
                outcome = ("transport-error", str(exc), {})
            with lock:
                results.append(outcome)

        try:
            threads = [threading.Thread(target=client) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert len(results) == n
            assert not [r for r in results if r[0] == "transport-error"]

            accepted = [r for r in results if r[0] == 200]
            shed = [r for r in results if r[0] in (429, 503)]
            assert len(accepted) + len(shed) == n
            assert shed, "overload produced no shedding"
            instance = build_example_instance()
            for _, body, _ in accepted:
                assert body["status"] in ("ok", "degraded")
                if body["status"] == "degraded":
                    assert body["rung"] >= 1 and body["degraded_to"]
                schedules = {
                    int(u): evs for u, evs in body["schedules"].items()
                }
                report = verify_schedules(
                    instance, schedules, reported_utility=body["utility"]
                )
                assert report.ok, report.summary()
            for _, body, headers in shed:
                assert body["retry_after"] > 0
                assert "Retry-After" in headers
                assert body["error"] in ("queue-full", "deadline-exhausted")

            stats = _request(srv, "/stats")[1]
            counters = stats["counters"]
            assert counters["received"] == n
            assert (
                counters["ok"]
                + counters["degraded"]
                + counters["shed"]
                + counters["invalid"]
                + counters["failed"]
                == n
            )
            assert counters["failed"] == 0
            assert counters["shed"] == len(shed)
            assert counters["ok"] + counters["degraded"] == len(accepted)
            assert stats["inflight"] == 0 and stats["queued"] == 0
            # the server is still healthy after the storm
            assert _request(srv, "/healthz")[0] == 200
        finally:
            srv.shutdown()


class TestHostileInstanceContainment:
    def test_memory_guard_contains_allocation_in_child(self):
        """The per-request rlimit makes a large allocation fail inside
        the forked worker instead of driving the host toward OOM."""
        import os

        import repro.service.executor as executor

        if not executor.fork_supported():
            pytest.skip("fork-less platform: no child to contain")
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: guard, then try to allocate 512 MiB
            os.close(read_fd)
            executor.apply_memory_limit(64 << 20)
            try:
                blob = bytearray(512 << 20)
                blob[0] = 1
                verdict = b"allocated"
            except MemoryError:
                verdict = b"contained"
            os.write(write_fd, verdict)
            os._exit(0)
        os.close(write_fd)
        try:
            verdict = os.read(read_fd, 32)
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert verdict == b"contained"

    def test_all_rungs_failing_yields_structured_500(
        self, example_payload, monkeypatch
    ):
        """Every rung failing produces a typed 500 with per-rung
        reasons — never a traceback — and the server stays healthy."""
        import repro.service.server as server_mod
        from repro.service.executor import ExecutionOutcome

        def always_crash(instance, name, **kwargs):
            return ExecutionOutcome(
                status="crash", solver=name, error="synthetic crash"
            )

        monkeypatch.setattr(server_mod, "run_supervised", always_crash)
        srv = _start(ServerConfig())
        try:
            status, body, _ = _request(srv, "/solve", payload=example_payload)
            assert status == 500
            assert body["error"] == "solve-failed"
            rungs = [f["rung"] for f in body["failures"]]
            assert rungs[0] == "DeDP"  # the requested algorithm
            assert len(rungs) == len(set(rungs)) >= 2  # ladder walked
            assert all(f["reason"] == "crash" for f in body["failures"])
            assert _request(srv, "/healthz")[0] == 200
            counters = _request(srv, "/stats")[1]["counters"]
            assert counters["failed"] == 1
            assert counters["received"] == 1
        finally:
            srv.shutdown()


# ----------------------------------------------------------------------
# long-lived instances: /instances + /mutate + instance_id solves
# ----------------------------------------------------------------------


class TestInstanceStore:
    def test_register_solve_mutate_solve_roundtrip(self, in_process_server):
        server = in_process_server
        instance = build_example_instance()
        status, body, _ = _request(
            server, "/instances", {"instance": instance_to_dict(instance)}
        )
        assert status == 200
        assert body["version"] == 0
        assert (body["num_events"], body["num_users"]) == (
            instance.num_events,
            instance.num_users,
        )
        instance_id = body["instance_id"]

        status, solve1, _ = _request(
            server, "/solve", {"instance_id": instance_id, "algorithm": "DeDP"}
        )
        assert status == 200
        assert solve1["instance_id"] == instance_id
        assert solve1["instance_version"] == 0

        status, mutated, _ = _request(
            server,
            "/mutate",
            {
                "instance_id": instance_id,
                "mutations": [
                    {"op": "budget_change", "user_id": 0, "budget": 0.0}
                ],
            },
        )
        assert status == 200
        assert mutated["applied"] == 1
        assert mutated["version"] == 1
        assert mutated["dirty_users"] == [0]

        status, solve2, _ = _request(
            server, "/solve", {"instance_id": instance_id, "algorithm": "DeDP"}
        )
        assert status == 200
        assert solve2["instance_version"] == 1
        # user 0 can afford nothing now; the plan must have changed
        assert solve2["schedules"].get("0", []) == []

    def test_solve_response_verified_against_stored_content(
        self, in_process_server
    ):
        server = in_process_server
        instance = build_example_instance()
        _, body, _ = _request(
            server, "/instances", {"instance": instance_to_dict(instance)}
        )
        instance_id = body["instance_id"]
        _request(
            server,
            "/mutate",
            {
                "instance_id": instance_id,
                "mutations": [
                    {"op": "capacity_change", "event_id": 0, "capacity": 1}
                ],
            },
        )
        status, solved, _ = _request(
            server, "/solve", {"instance_id": instance_id, "algorithm": "DeDP"}
        )
        assert status == 200
        entry = server.instances.get(instance_id)
        report = verify_schedules(
            entry.instance,
            {int(uid): evs for uid, evs in solved["schedules"].items()},
            reported_utility=solved["utility"],
        )
        assert report.ok, report.summary()

    def test_unknown_instance_404(self, in_process_server):
        status, body, _ = _request(
            in_process_server, "/solve", {"instance_id": "inst-404404"}
        )
        assert status == 404
        assert body["error"] == "not-found"
        status, body, _ = _request(
            in_process_server,
            "/mutate",
            {"instance_id": "inst-404404", "mutations": []},
        )
        assert status == 404

    def test_instance_and_id_together_rejected(self, in_process_server, example_payload):
        payload = dict(example_payload)
        payload["instance_id"] = "inst-000000"
        status, body, _ = _request(in_process_server, "/solve", payload)
        assert status == 400
        assert body["error"] == "bad-envelope"

    def test_invalid_mutation_keeps_applied_prefix(self, in_process_server):
        server = in_process_server
        _, body, _ = _request(
            server,
            "/instances",
            {"instance": instance_to_dict(build_example_instance())},
        )
        instance_id = body["instance_id"]
        status, body, _ = _request(
            server,
            "/mutate",
            {
                "instance_id": instance_id,
                "mutations": [
                    {"op": "budget_change", "user_id": 0, "budget": 3.5},
                    {"op": "budget_change", "user_id": 9999, "budget": 1.0},
                ],
            },
        )
        assert status == 400
        assert body["applied"] == 1
        assert body["requested"] == 2
        assert body["error"] == "invalid-instance"
        entry = server.instances.get(instance_id)
        assert entry.instance.users[0].budget == 3.5

    def test_malformed_mutation_typed_400(self, in_process_server):
        _, body, _ = _request(
            in_process_server,
            "/instances",
            {"instance": instance_to_dict(build_example_instance())},
        )
        status, body, _ = _request(
            in_process_server,
            "/mutate",
            {
                "instance_id": body["instance_id"],
                "mutations": [{"op": "become-sentient"}],
            },
        )
        assert status == 400
        assert body["error"] == "invalid-instance"
        assert "mutations[0]" in body["detail"]

    def test_store_is_lru_bounded(self):
        server = _start(
            ServerConfig(in_process=True, memory_limit_bytes=None, max_instances=2)
        )
        try:
            ids = []
            for _ in range(3):
                _, body, _ = _request(
                    server,
                    "/instances",
                    {"instance": instance_to_dict(build_example_instance())},
                )
                ids.append(body["instance_id"])
            assert server.instances.get(ids[0]) is None  # evicted
            assert server.instances.get(ids[1]) is not None
            assert server.instances.get(ids[2]) is not None
            _, stats, _ = _request(server, "/stats")
            assert stats["instances"] == 2
        finally:
            server.shutdown()


class TestChurnUnderConcurrency:
    """Interleave /mutate and /solve; every 200 must be the planning of
    the exact instance version it was admitted under."""

    def test_interleaved_mutate_solve_verified_per_version(self):
        from repro.core.deltas import BudgetChange, apply_mutation
        from repro.io import instance_from_dict

        server = _start(
            ServerConfig(
                in_process=True,
                memory_limit_bytes=None,
                admission=AdmissionConfig(max_inflight=4, queue_depth=32),
            )
        )
        try:
            base = build_example_instance()
            _, body, _ = _request(
                server, "/instances", {"instance": instance_to_dict(base)}
            )
            instance_id = body["instance_id"]

            # Client-side mirror: version v = budgets[0] set to 10 + v.
            # Strictly increasing values are never no-ops, so each
            # single-mutation batch bumps the version by exactly one.
            mirror = instance_from_dict(instance_to_dict(base))
            snapshots = {0: instance_to_dict(mirror)}
            num_mutations = 12
            for v in range(1, num_mutations + 1):
                apply_mutation(mirror, BudgetChange(0, 10.0 + v))
                snapshots[v] = instance_to_dict(mirror)

            solve_results = []
            errors = []

            def mutator():
                for v in range(1, num_mutations + 1):
                    status, body, _ = _request(
                        server,
                        "/mutate",
                        {
                            "instance_id": instance_id,
                            "mutations": [
                                {
                                    "op": "budget_change",
                                    "user_id": 0,
                                    "budget": 10.0 + v,
                                }
                            ],
                        },
                    )
                    if status != 200 or body["version"] != v:
                        errors.append(("mutate", status, body))

            def solver():
                for _ in range(8):
                    status, body, _ = _request(
                        server,
                        "/solve",
                        {"instance_id": instance_id, "algorithm": "DeDP"},
                    )
                    if status == 200:
                        solve_results.append(body)
                    elif status not in (429, 503):
                        errors.append(("solve", status, body))

            threads = [threading.Thread(target=mutator)] + [
                threading.Thread(target=solver) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors, errors[:3]
            assert solve_results
            for solved in solve_results:
                version = solved["instance_version"]
                assert 0 <= version <= num_mutations
                admitted_under = instance_from_dict(snapshots[version])
                report = verify_schedules(
                    admitted_under,
                    {
                        int(uid): evs
                        for uid, evs in solved["schedules"].items()
                    },
                    reported_utility=solved["utility"],
                )
                assert report.ok, (version, report.summary())

            # counters invariant: every request reached one disposition
            _, stats, _ = _request(server, "/stats")
            counters = stats["counters"]
            assert (
                counters["ok"]
                + counters["degraded"]
                + counters["shed"]
                + counters["invalid"]
                + counters["failed"]
                == counters["received"]
            )
        finally:
            server.shutdown()


class TestEvictionAndSeq:
    """PR 8 fixes: structured 410 for evicted ids, seq-based dedupe."""

    def _small_store_server(self, tmp_path=None):
        return _start(
            ServerConfig(
                in_process=True,
                memory_limit_bytes=None,
                max_instances=2,
                journal_dir=str(tmp_path) if tmp_path is not None else None,
            )
        )

    def test_evicted_instance_mutate_is_410(self):
        server = self._small_store_server()
        try:
            ids = []
            for _ in range(3):
                _, body, _ = _request(
                    server,
                    "/instances",
                    {"instance": instance_to_dict(build_example_instance())},
                )
                ids.append(body["instance_id"])
            status, body, _ = _request(
                server,
                "/mutate",
                {"instance_id": ids[0], "mutations": []},
            )
            assert status == 410
            assert body["error"] == "instance-evicted"
            assert "register it again" in body["detail"]
        finally:
            server.shutdown()

    def test_evicted_instance_solve_is_410(self):
        server = self._small_store_server()
        try:
            ids = []
            for _ in range(3):
                _, body, _ = _request(
                    server,
                    "/instances",
                    {"instance": instance_to_dict(build_example_instance())},
                )
                ids.append(body["instance_id"])
            status, body, _ = _request(
                server, "/solve", {"instance_id": ids[0], "deadline_s": 5}
            )
            assert status == 410
            assert body["error"] == "instance-evicted"
            # a never-registered id is still the plain 404
            status, body, _ = _request(
                server, "/solve", {"instance_id": "inst-999999"}
            )
            assert (status, body["error"]) == (404, "not-found")
        finally:
            server.shutdown()

    def test_eviction_deletes_the_journal(self, tmp_path):
        server = self._small_store_server(tmp_path)
        try:
            ids = []
            for _ in range(3):
                _, body, _ = _request(
                    server,
                    "/instances",
                    {"instance": instance_to_dict(build_example_instance())},
                )
                assert body["durable"] is True
                ids.append(body["instance_id"])
            from repro.service.journal import journal_path

            assert not os.path.exists(journal_path(str(tmp_path), ids[0]))
            assert os.path.exists(journal_path(str(tmp_path), ids[1]))
        finally:
            server.shutdown()

    def test_mutate_seq_dedupes_replayed_batch(self, in_process_server):
        server = in_process_server
        _, body, _ = _request(
            server,
            "/instances",
            {"instance": instance_to_dict(build_example_instance())},
        )
        instance_id = body["instance_id"]
        batch = {
            "instance_id": instance_id,
            "seq": 0,
            "mutations": [
                {"op": "utility_change", "user_id": 0, "event_id": 1,
                 "utility": 0.123456}
            ],
        }
        status, body, _ = _request(server, "/mutate", batch)
        assert (status, body["applied"], body["version"]) == (200, 1, 1)
        # the retry: same seq, acknowledged without re-applying
        status, body, _ = _request(server, "/mutate", batch)
        assert status == 200
        assert body["deduped"] is True
        assert (body["applied"], body["version"]) == (0, 1)
        # a later seq applies normally (a fresh value, not the no-op)
        batch["seq"] = 1
        batch["mutations"][0]["utility"] = 0.654321
        status, body, _ = _request(server, "/mutate", batch)
        assert (status, body["applied"], body["version"]) == (200, 1, 2)

    def test_mutate_rejects_bad_seq(self, in_process_server):
        server = in_process_server
        _, body, _ = _request(
            server,
            "/instances",
            {"instance": instance_to_dict(build_example_instance())},
        )
        for bad in (-1, True, "zero", 1.5):
            status, body2, _ = _request(
                server,
                "/mutate",
                {"instance_id": body["instance_id"], "seq": bad,
                 "mutations": []},
            )
            assert status == 400, bad
            assert body2["error"] == "bad-envelope"


class TestJournalRecovery:
    """A restarted server resumes journalled instances bit-identically."""

    def test_restart_resumes_same_ids_and_versions(self, tmp_path):
        from repro.core import build_cache
        from repro.service.server import make_server as _make

        config = ServerConfig(
            in_process=True, memory_limit_bytes=None,
            journal_dir=str(tmp_path),
        )
        first = _start(config)
        try:
            _, body, _ = _request(
                first,
                "/instances",
                {"instance": instance_to_dict(build_example_instance())},
            )
            instance_id = body["instance_id"]
            _request(
                first,
                "/mutate",
                {"instance_id": instance_id, "seq": 0, "mutations": [
                    {"op": "utility_change", "user_id": 2, "event_id": 3,
                     "utility": 0.77},
                    {"op": "capacity_change", "event_id": 0, "capacity": 2},
                ]},
            )
            live = first.instances.get(instance_id)
            live_fingerprint = build_cache.instance_fingerprint(live.instance)
            live_version = live.instance.version
        finally:
            first.shutdown()

        second = _make(port=0, config=config)
        recovered = second.recover_instances()
        second.serve_in_thread()
        try:
            assert recovered == [instance_id]
            assert second.recovery_failures == []
            entry = second.instances.get(instance_id)
            assert entry.instance.version == live_version
            assert entry.last_seq == 0
            assert build_cache.instance_fingerprint(
                entry.instance
            ) == live_fingerprint
            # the high-water mark survives: the pre-crash batch dedupes
            status, body, _ = _request(
                second,
                "/mutate",
                {"instance_id": instance_id, "seq": 0, "mutations": [
                    {"op": "capacity_change", "event_id": 0, "capacity": 9}
                ]},
            )
            assert (status, body.get("deduped")) == (200, True)
            # and the recovered instance solves under its original id
            status, body, _ = _request(
                second,
                "/solve",
                {"instance_id": instance_id, "algorithm": "DeDP",
                 "deadline_s": 10},
            )
            assert status == 200
            assert body["instance_version"] == live_version
            # stats surface the recovery
            _, stats, _ = _request(second, "/stats")
            assert stats["recovery"] == {"recovered": 1, "failures": 0}
            # fresh registrations never collide with recovered ids
            _, body, _ = _request(
                second,
                "/instances",
                {"instance": instance_to_dict(build_example_instance())},
            )
            assert body["instance_id"] != instance_id
        finally:
            second.shutdown()

    def test_recovery_replays_identically_twice(self, tmp_path):
        """Determinism satellite at the server level: two fresh servers
        recovering the same journal dir hold fingerprint-identical
        instances."""
        from repro.core import build_cache
        from repro.service.server import make_server as _make

        config = ServerConfig(
            in_process=True, memory_limit_bytes=None,
            journal_dir=str(tmp_path),
        )
        first = _start(config)
        try:
            _, body, _ = _request(
                first,
                "/instances",
                {"instance": instance_to_dict(build_example_instance())},
            )
            instance_id = body["instance_id"]
            _request(
                first,
                "/mutate",
                {"instance_id": instance_id, "mutations": [
                    {"op": "utility_change", "user_id": 1, "event_id": 1,
                     "utility": 0.31}
                ]},
            )
        finally:
            first.shutdown()

        fingerprints = []
        for _ in range(2):
            replica = _make(port=0, config=config)
            replica.recover_instances()
            entry = replica.instances.get(instance_id)
            fingerprints.append(
                build_cache.instance_fingerprint(entry.instance)
            )
            replica.server_close()
        assert fingerprints[0] is not None
        assert fingerprints[0] == fingerprints[1]


# ----------------------------------------------------------------------
# in-process solving: the stuck-solve watchdog and by-id isolation
# ----------------------------------------------------------------------


class TestStuckSolveWatchdog:
    """A solve that overruns its deadline by more than the grace turns
    ``/healthz`` into 503 ``stuck``; the fleet supervisor's probe
    counts that as a missed probe and restarts the worker."""

    DEADLINE_S = 1.0
    GRACE_S = 0.5

    @pytest.fixture
    def overrunning(self, monkeypatch, example_payload):
        """A server whose one solve waits in ``pre_solve_hook`` until
        released: ``(server, release event, replies, request thread)``."""
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "STUCK_GRACE_S", self.GRACE_S)
        release = threading.Event()
        srv = _start(ServerConfig(in_process=True, memory_limit_bytes=None))
        srv.pre_solve_hook = lambda _ticket: release.wait(60)
        replies = []
        payload = {**example_payload, "deadline_s": self.DEADLINE_S}
        thread = threading.Thread(
            target=lambda: replies.append(_request(srv, "/solve", payload))
        )
        thread.start()
        try:
            yield srv, release, replies, thread
        finally:
            release.set()
            thread.join(timeout=60)
            srv.shutdown()

    @staticmethod
    def _healthz_until(srv, wanted_status, timeout_s=20.0):
        deadline = time.monotonic() + timeout_s
        while True:
            status, body, _ = _request(srv, "/healthz")
            if status == wanted_status or time.monotonic() > deadline:
                return status, body
            time.sleep(0.05)

    def test_healthz_turns_stuck_past_the_grace_and_recovers(self, overrunning):
        srv, release, replies, thread = overrunning
        deadline = time.monotonic() + 20
        while srv.solve_watch()[0] == 0.0 and time.monotonic() < deadline:
            time.sleep(0.01)
        status, body, _ = _request(srv, "/healthz")
        assert (status, body["status"]) == (200, "ok")  # within the grace
        assert body["oldest_solve_s"] > 0

        status, body = self._healthz_until(srv, 503)
        assert (status, body["status"]) == (503, "stuck")
        # Age counts from slot acquisition, the deadline from arrival.
        assert body["oldest_solve_s"] > self.DEADLINE_S
        stats = _request(srv, "/stats")[1]
        assert stats["oldest_solve_s"] > self.DEADLINE_S
        assert stats["in_process"] is True

        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        status, body, _ = _request(srv, "/healthz")
        assert (status, body["status"], body["oldest_solve_s"]) == (200, "ok", 0)
        assert _request(srv, "/stats")[1]["oldest_solve_s"] == 0
        # The overrun request itself still got its structured reply.
        status, body, _ = replies[0]
        assert (status, body["error"]) == (500, "solve-failed")

    def test_supervisor_probe_treats_503_stuck_as_not_alive(self):
        """A worker's 503 ``stuck`` reply is a missed probe, whatever
        else the body says."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.service.supervisor import Supervisor, SupervisorConfig

        class Stuck(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib casing
                blob = json.dumps(
                    {"status": "stuck", "oldest_solve_s": 7.0,
                     "journal_degraded": False}
                ).encode()
                self.send_response(503)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *_args):
                pass

        stub = ThreadingHTTPServer(("127.0.0.1", 0), Stuck)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            supervisor = Supervisor(SupervisorConfig(num_workers=1))
            handle = supervisor.handle_of("w0")
            host, port = stub.server_address[:2]
            handle.base_url = f"http://{host}:{port}"
            alive, _degraded = supervisor._probe(handle)
            assert alive is False
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=10)


class TestByIdSolveIsolation:
    """A registered instance never enters the build cache, so an inline
    request of equal content can never adopt it and solve it without
    its lock while ``/mutate`` edits it."""

    @pytest.mark.parametrize("in_process", [True, False], ids=["in-process", "fork"])
    def test_inline_solve_unaffected_by_concurrent_mutate(
        self, monkeypatch, in_process
    ):
        from repro.algorithms import make_solver
        from repro.core import build_cache
        from repro.io import (
            canonical_planning_bytes,
            instance_from_dict,
            planning_from_serialised,
        )

        if not in_process:
            import repro.service.executor as executor

            if not executor.fork_supported():
                pytest.skip("fork-less platform")
        build_cache.clear()
        real = build_cache.get_or_register
        armed, adopted, release = (threading.Event() for _ in range(3))

        def holding(instance):
            result = real(instance)
            if armed.is_set():
                armed.clear()
                adopted.set()
                release.wait(60)
            return result

        monkeypatch.setattr(build_cache, "get_or_register", holding)
        config = ServerConfig(in_process=in_process)
        wire = instance_to_dict(build_example_instance())
        srv = _start(config)
        try:
            _, body, _ = _request(srv, "/instances", {"instance": wire})
            instance_id = body["instance_id"]
            status, _, _ = _request(srv, "/solve", {"instance_id": instance_id})
            assert status == 200
            armed.set()
            replies = []
            thread = threading.Thread(
                target=lambda: replies.append(
                    _request(srv, "/solve", {"instance": wire})
                )
            )
            thread.start()
            assert adopted.wait(60)
            status, body, _ = _request(
                srv, "/mutate",
                {"instance_id": instance_id, "mutations": [
                    {"op": "budget_change", "user_id": 0, "budget": 0.0}
                ]},
            )
            assert (status, body["applied"]) == (200, 1)
            release.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            release.set()
            srv.shutdown()
        status, body, _ = replies[0]
        assert (status, body["status"]) == (200, "ok")
        own = instance_from_dict(wire)
        cold = make_solver(config.default_algorithm).solve(own)
        served = planning_from_serialised(own, {"schedules": body["schedules"]})
        assert canonical_planning_bytes(served) == canonical_planning_bytes(cold)


class TestUnrepresentableNumbersKeepAdmission:
    """A number no float can hold is a 400, and never keeps a queue
    place: before, each such body got a 500 and left ``queued`` one
    higher until the queue was full and every request was shed."""

    HUGE = 10**400  # json.dumps writes all 401 digits

    def test_daemon_answers_400s_then_serves_and_drains(self, example_payload):
        from repro.service.router import ServeDaemon, request_json

        instance = instance_to_dict(build_example_instance())
        bad_instance = json.loads(json.dumps(instance))
        bad_instance["users"][0]["budget"] = self.HUGE
        bodies = [("/solve", {"instance": bad_instance, "algorithm": "DeDP"})] * 8
        bodies += [("/instances", {"instance": bad_instance})] * 2
        bodies += [
            (
                "/mutate",
                {
                    "instance_id": "unregistered",
                    "mutations": [
                        {"op": "budget_change", "user_id": 0, "budget": self.HUGE}
                    ],
                },
            )
        ] * 2
        # more bodies than the default admission capacity (2 + 8)
        assert len(bodies) == 12
        with ServeDaemon() as daemon:
            for path, payload in bodies:
                status, body = request_json(daemon.base_url, path, payload)
                assert status == 400, (path, body)
                assert body["error"] == "invalid-instance"
                assert "integer too large" in body["detail"]
            status, body = request_json(daemon.base_url, "/solve", example_payload)
            assert (status, body["status"]) == (200, "ok")
            status, stats = request_json(daemon.base_url, "/stats")
            assert status == 200
            assert (stats["queued"], stats["inflight"]) == (0, 0)
            counters = stats["counters"]
            assert counters["invalid"] == 12 and counters["ok"] == 1
            assert counters["received"] == 13 and counters["shed"] == 0
        assert daemon.exit_code == 0

    def test_escaped_error_settles_its_ticket(self, monkeypatch, example_payload):
        """Whatever a handler fails to answer, its ticket is settled."""
        import repro.service.server as server_mod

        def broken(_payload):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(server_mod, "instance_from_dict", broken)
        srv = _start(ServerConfig(in_process=True, memory_limit_bytes=None))
        try:
            for _ in range(12):
                status, body, _ = _request(srv, "/solve", payload=example_payload)
                assert (status, body["error"]) == (500, "internal")
            stats = _request(srv, "/stats")[1]
            assert (stats["queued"], stats["inflight"]) == (0, 0)
            assert stats["counters"]["failed"] == 12
        finally:
            srv.shutdown()
