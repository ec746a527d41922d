"""Multi-process fleet tests: placement, chaos recovery, rolling drain.

These boot real worker subprocesses through
:class:`repro.service.router.LocalCluster` and kill them with real
signals — the process-level half of the robustness contract:

* SIGKILL a worker holding registered instances mid-mutation-stream;
  after the supervisor restarts it, the same ``instance_id`` serves
  ``/solve`` with a plan byte-identical to an uninterrupted run, and
  the client saw zero transport errors and zero 500s throughout.
* The ``/stats`` counter invariant
  (``ok+degraded+shed+invalid+failed == received``) holds on every
  worker under concurrent mixed traffic.
* A rolling drain (router first, then workers one at a time) sheds
  nothing and every worker exits 0.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import build_cache
from repro.core.deltas import apply_mutation
from repro.io import instance_from_dict, instance_to_dict, mutation_from_dict
from repro.paper_example import build_example_instance
from repro.service.journal import JOURNAL_SUFFIX, replay_journal
from repro.service.router import LocalCluster
from repro.service.supervisor import SupervisorConfig
from tests.conftest import (
    KEPT_ALIVE_MEDIAN_LIMIT_S,
    error_reply_closing,
    kept_alive_median_s,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)


def _post(base_url, path, payload, timeout=60):
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(base_url, path, timeout=30):
    try:
        with urllib.request.urlopen(base_url + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _canonical_example():
    """The example instance in wire-canonical form (what a worker holds)."""
    return instance_from_dict(instance_to_dict(build_example_instance()))


def _mutation_stream(count):
    """A deterministic stream of single-mutation batches."""
    stream = []
    for i in range(count):
        stream.append(
            {
                "op": "utility_change",
                "user_id": i % 5,
                "event_id": i % 4,
                "utility": round((5 + i * 37 % 91) / 101.0, 6),
            }
        )
    return stream


def _worker_of(instance_id):
    return instance_id.split("-inst-")[0]


def _find_journal(journal_root, instance_id):
    worker_dir = os.path.join(journal_root, _worker_of(instance_id))
    return os.path.join(worker_dir, instance_id + JOURNAL_SUFFIX)


class TestFleetBasics:
    def test_boot_health_and_stats_shape(self, tmp_path):
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            status, body = _get(cluster.base_url, "/healthz")
            assert (status, body["role"]) == (200, "router")
            assert body["healthy_workers"] == 2
            assert _get(cluster.base_url, "/readyz")[0] == 200
            status, stats = _get(cluster.base_url, "/stats")
            assert status == 200
            assert set(stats["fleet_counters"]) == {
                "received", "ok", "degraded", "shed", "invalid", "failed",
            }
            assert {w["worker_id"] for w in stats["supervisor"]} == {"w0", "w1"}
            assert all(w["healthy"] for w in stats["supervisor"])
            assert {w["worker_id"] for w in stats["workers"]} == {"w0", "w1"}

    def test_registrations_alternate_across_shards(self, tmp_path):
        """Placement is by load, not content: on an idle fleet the same
        instance registered three times lands on w0, w1, w0."""
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            ids = []
            for _ in range(3):
                status, body = _post(
                    cluster.base_url, "/instances", {"instance": wire}
                )
                assert status == 200
                assert body["durable"] is True
                ids.append(body["instance_id"])
            assert [_worker_of(instance_id) for instance_id in ids] == [
                "w0", "w1", "w0",
            ]

    def test_mutate_and_solve_route_to_the_owner(self, tmp_path):
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            _, body = _post(cluster.base_url, "/instances", {"instance": wire})
            instance_id = body["instance_id"]
            status, body = _post(
                cluster.base_url, "/mutate",
                {"instance_id": instance_id,
                 "mutations": _mutation_stream(2)},
            )
            assert (status, body["applied"], body["version"]) == (200, 2, 2)
            status, body = _post(
                cluster.base_url, "/solve",
                {"instance_id": instance_id, "algorithm": "DeDP",
                 "deadline_s": 15},
            )
            assert status == 200
            assert body["instance_id"] == instance_id
            assert body["instance_version"] == 2

    def test_router_kept_alive_requests_do_not_stall(self):
        """The router's kept-alive replies skip the Nagle stall, and an
        error reply still closes the connection."""
        with LocalCluster(workers=1) as cluster:
            address = cluster.router.server_address
            median = kept_alive_median_s(address)
            assert median < KEPT_ALIVE_MEDIAN_LIMIT_S, f"median {median * 1e3:.1f} ms"
            assert b"\r\nConnection: close\r\n" in error_reply_closing(address)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/limits"), reason="reads /proc/<pid>/limits"
    )
    def test_worker_solves_in_process_under_its_memory_limit(self):
        """Each fleet worker solves in its own process, and
        ``--memory-limit-mb`` caps that process's data segment."""
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(
            workers=1, worker_args=("--memory-limit-mb", "1536")
        ) as cluster:
            _, stats = _get(cluster.base_url, "/stats")
            assert stats["workers"][0]["in_process"] is True
            pid = stats["supervisor"][0]["pid"]
            with open(f"/proc/{pid}/limits") as handle:
                row = next(line for line in handle if line.startswith("Max data size"))
            assert row.split()[3] == str(1536 << 20)
            status, body = _post(
                cluster.base_url, "/solve",
                {"instance": wire, "algorithm": "DeDP", "deadline_s": 15},
            )
            assert (status, body["supervised"]) == (200, False)

    def test_unknown_instance_is_a_router_404(self, tmp_path):
        with LocalCluster(workers=2) as cluster:
            status, body = _post(
                cluster.base_url, "/mutate",
                {"instance_id": "w9-inst-999999", "mutations": []},
            )
            assert (status, body["error"]) == (404, "not-found")


class TestStatsInvariant:
    def test_invariant_under_concurrent_mixed_traffic(self, tmp_path):
        """The satellite: every worker's counters balance exactly even
        with solves, registrations, mutations and garbage interleaving
        across the fleet."""
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            url = cluster.base_url
            _, registered = _post(url, "/instances", {"instance": wire})
            instance_id = registered["instance_id"]
            failures = []

            def solver():
                for _ in range(4):
                    status, _body = _post(
                        url, "/solve",
                        {"instance": wire, "algorithm": "DeDP",
                         "deadline_s": 15},
                    )
                    if status == 500:
                        failures.append("solve-500")

            def mutator():
                for i in range(4):
                    status, _body = _post(
                        url, "/mutate",
                        {"instance_id": instance_id,
                         "mutations": [_mutation_stream(8)[i]]},
                    )
                    if status == 500:
                        failures.append("mutate-500")

            def registrant():
                for _ in range(3):
                    status, _body = _post(
                        url, "/instances", {"instance": wire}
                    )
                    if status == 500:
                        failures.append("register-500")

            def vandal():
                for _ in range(3):
                    status, _body = _post(url, "/solve", {"instance": 42})
                    if status not in (400, 503):
                        failures.append(f"vandal-{status}")

            threads = [
                threading.Thread(target=target)
                for target in (solver, solver, mutator, registrant, vandal)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert failures == []
            _, stats = _get(url, "/stats")
            fleet_received = 0
            for worker in stats["workers"]:
                counters = worker["counters"]
                settled = (
                    counters["ok"] + counters["degraded"] + counters["shed"]
                    + counters["invalid"] + counters["failed"]
                )
                assert settled == counters["received"], worker["worker_id"]
                fleet_received += counters["received"]
            totals = stats["fleet_counters"]
            assert totals["received"] == fleet_received
            assert totals["received"] == (
                totals["ok"] + totals["degraded"] + totals["shed"]
                + totals["invalid"] + totals["failed"]
            )


class TestChaosRecovery:
    STREAM_LEN = 20
    KILL_AFTER = 8

    def _run_stream(self, journal_root, kill_after=None):
        """Register + 20 single-mutation batches (+ optional SIGKILL of
        the shard mid-stream) + final solve.  Returns the evidence."""
        wire = instance_to_dict(build_example_instance())
        stream = _mutation_stream(self.STREAM_LEN)
        statuses = []
        with LocalCluster(workers=2, journal_root=journal_root) as cluster:
            url = cluster.base_url
            status, body = _post(url, "/instances", {"instance": wire})
            assert status == 200
            instance_id = body["instance_id"]
            for index, mutation in enumerate(stream):
                if index == kill_after:
                    cluster.kill_worker(_worker_of(instance_id))
                status, body = _post(
                    url, "/mutate",
                    {"instance_id": instance_id, "mutations": [mutation]},
                )
                statuses.append(status)
            solve_status, solve_body = _post(
                url, "/solve",
                {"instance_id": instance_id, "algorithm": "DeDP",
                 "deadline_s": 30},
            )
            _, stats = _get(url, "/stats")
        return {
            "instance_id": instance_id,
            "statuses": statuses,
            "solve_status": solve_status,
            "solve": solve_body,
            "stats": stats,
        }

    def test_sigkill_mid_stream_recovers_bit_identical(self, tmp_path):
        """The acceptance criterion, end to end."""
        calm = self._run_stream(str(tmp_path / "calm"))
        chaos = self._run_stream(
            str(tmp_path / "chaos"), kill_after=self.KILL_AFTER
        )

        # Zero transport errors / zero 500s during kill-and-recover:
        # every mutation batch in the chaotic run was acknowledged 200.
        assert chaos["statuses"] == [200] * self.STREAM_LEN
        assert calm["statuses"] == [200] * self.STREAM_LEN
        assert chaos["solve_status"] == 200

        # The same instance_id kept serving across the crash...
        assert chaos["solve"]["instance_id"] == chaos["instance_id"]
        assert chaos["solve"]["instance_version"] == self.STREAM_LEN

        # ...with a plan byte-identical to the uninterrupted run.
        for key in ("schedules", "utility", "status", "algorithm"):
            assert chaos["solve"][key] == calm["solve"][key], key

        # The supervisor really did restart the shard (exactly once —
        # the kill window is deterministic) and replayed its journal.
        snapshot = {
            w["worker_id"]: w for w in chaos["stats"]["supervisor"]
        }
        shard = snapshot[_worker_of(chaos["instance_id"])]
        assert shard["restarts"] == 1
        assert shard["recovered_instances"] >= 1
        assert shard["healthy"] is True

        # And exactly one failover retry was needed, no double-apply:
        # the journal replays to the offline twin's fingerprint.
        journal = _find_journal(
            str(tmp_path / "chaos"), chaos["instance_id"]
        )
        recovered = replay_journal(journal)
        twin = _canonical_example()
        for wire_mutation in _mutation_stream(self.STREAM_LEN):
            apply_mutation(
                twin, mutation_from_dict(wire_mutation, "twin")
            )
        assert recovered.instance.version == twin.version
        assert recovered.mutations == self.STREAM_LEN
        assert build_cache.instance_fingerprint(
            recovered.instance
        ) == build_cache.instance_fingerprint(twin)

    def test_hung_worker_is_killed_and_restarted(self, tmp_path):
        """SIGSTOP freezes a worker: heartbeats time out, the supervisor
        SIGKILLs the zombie and the replacement replays the journal."""
        config = SupervisorConfig(
            num_workers=2,
            journal_root=str(tmp_path),
            heartbeat_interval_s=0.15,
            probe_timeout_s=0.4,
            hung_probe_failures=2,
        )
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(supervisor_config=config) as cluster:
            url = cluster.base_url
            _, body = _post(url, "/instances", {"instance": wire})
            instance_id = body["instance_id"]
            cluster.kill_worker(_worker_of(instance_id), sig=signal.SIGSTOP)
            deadline = time.monotonic() + 30
            shard = None
            while time.monotonic() < deadline:
                _, stats = _get(url, "/stats")
                shard = {
                    w["worker_id"]: w for w in stats["supervisor"]
                }[_worker_of(instance_id)]
                if shard["restarts"] >= 1 and shard["healthy"]:
                    break
                time.sleep(0.2)
            assert shard is not None and shard["restarts"] >= 1
            assert shard["hung_kills"] >= 1
            # the replacement serves the journalled instance again
            status, body = _post(
                url, "/mutate",
                {"instance_id": instance_id,
                 "mutations": [_mutation_stream(1)[0]]},
            )
            assert (status, body["version"]) == (200, 1)


class TestRollingDrain:
    def test_drain_sheds_nothing_and_workers_exit_zero(self, tmp_path):
        wire = instance_to_dict(build_example_instance())
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            url = cluster.base_url
            responses = []
            stop = threading.Event()

            def traffic():
                while not stop.is_set():
                    try:
                        status, body = _post(
                            url, "/solve",
                            {"instance": wire, "algorithm": "DeDP",
                             "deadline_s": 15},
                        )
                    except OSError:
                        responses.append(("transport", None))
                        return
                    responses.append((status, body.get("error")))
                    if status == 503:
                        return  # the draining signal: back off for good

            thread = threading.Thread(target=traffic)
            thread.start()
            time.sleep(1.0)  # let some requests land
            cluster.router.drain()
            thread.join(timeout=60)
            stop.set()
            # Workers finished their in-flight solves and saw no new
            # traffic: their shed counters never moved.
            _, stats = _get(url, "/stats")
            for worker in stats["workers"]:
                assert worker["counters"]["shed"] == 0, worker["worker_id"]
            codes = cluster.supervisor.drain_rolling()
            assert codes == [0, 0]
            # The client never saw a raw failure: 200s, then one
            # structured 503 "draining" at the cut.
            assert responses, "traffic thread never got a response in"
            assert all(status == 200 for status, _ in responses[:-1])
            final_status, final_error = responses[-1]
            assert final_status in (200, 503)
            if final_status == 503:
                assert final_error == "draining"
            assert _get(url, "/readyz")[0] == 503


class TestSingleProcessSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The satellite fix: a single-process serve must exit 0 on
        SIGTERM instead of dying with a KeyboardInterrupt traceback."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--in-process", "--journal-dir", str(tmp_path / "journals")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            base_url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "serving on " in line:
                    base_url = line.split("serving on ", 1)[1].strip()
                    break
            assert base_url, "server never announced"
            status, _ = _get(base_url, "/readyz")
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0
            stderr = proc.stderr.read()
            assert "Traceback" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigint_also_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--in-process"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            announced = False
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "serving on " in line:
                    announced = True
                    break
            assert announced
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestChurnKillFuzz:
    """The --churn-kill fuzz mode survives a seeded stream end to end."""

    def test_one_stream_survives_and_reports_ok(self):
        from repro.verify.fuzz import run_churn_kill_fuzz

        report = run_churn_kill_fuzz(
            seed=1, streams=1, mutations_per_stream=5, workers=2
        )
        assert report.ok, [f.message for f in report.findings]
        assert report.mode == "churn-kill"
        assert report.instances_run == 1
        assert "streams" in report.summary()


class TestFleetScatter:
    """``POST /solve?partition=grid``: scatter, oracle gate, degrade.

    The router's aggregator path (docs/partitioning.md): a clustered
    instance is cut into grid cells, fanned to the workers' ``POST
    /subsolve`` by load, merged, and oracle-verified before
    the 200.  Any partition-path failure — an unknown scheme aside,
    which is the client's error — must degrade to the monolithic proxy
    path, never surface as a 500.
    """

    def _clustered(self):
        from repro.datagen.clustered import (
            ClusteredConfig,
            generate_clustered_instance,
        )

        instance = generate_clustered_instance(
            ClusteredConfig(num_events=40, num_users=400, num_clusters=4, seed=7)
        )
        return instance, {
            "instance": instance_to_dict(instance),
            "algorithm": "DeDPO",
        }

    def test_partitioned_solve_verifies_and_counts(self, tmp_path):
        from repro.verify.oracle import verify_schedules

        instance, payload = self._clustered()
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            status, body = _post(
                cluster.base_url, "/solve?partition=grid&cells=4", payload,
                timeout=120,
            )
            assert status == 200
            assert body["status"] == "ok"
            assert body["verified"] is True
            assert body["partition"]["cells"] >= 2
            schedules = {
                int(uid): events for uid, events in body["schedules"].items()
            }
            assert verify_schedules(instance, schedules).ok
            _, stats = _get(cluster.base_url, "/stats")
            assert stats["router"]["partition_scatters"] == 1
            assert stats["router"]["partition_fallbacks"] == 0

    def test_every_solve_path_shares_the_reply_contract(self, tmp_path):
        """Inline, by-id and partitioned 200s carry one key set, and a
        merged plan claims no approximation guarantee."""
        shared = {
            "status", "rung", "degraded_to", "guarantee", "utility",
            "schedules", "verified", "wall_time_s",
        }
        _instance, payload = self._clustered()
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            _, registered = _post(
                cluster.base_url, "/instances", {"instance": payload["instance"]}
            )
            by_id = {"instance_id": registered["instance_id"], "algorithm": "DeDPO"}
            replies = {
                "inline": _post(cluster.base_url, "/solve", payload, timeout=120),
                "by-id": _post(cluster.base_url, "/solve", by_id, timeout=120),
                "partitioned": _post(
                    cluster.base_url, "/solve?partition=grid&cells=4", payload,
                    timeout=120,
                ),
            }
        for path, (status, body) in replies.items():
            assert status == 200, path
            assert shared <= set(body), (path, shared - set(body))
        merged = replies["partitioned"][1]
        assert "partition" in merged
        assert (merged["rung"], merged["degraded_to"], merged["guarantee"]) == (
            0, None, "heuristic",
        )

    def test_subsolve_answers_a_single_unverified_rung(self, tmp_path):
        _instance, payload = self._clustered()
        with LocalCluster(workers=1, journal_root=str(tmp_path)) as cluster:
            _worker_id, worker_url = cluster.supervisor.healthy_workers()[0]
            status, body = _post(worker_url, "/subsolve", payload, timeout=120)
            assert status == 200
            assert body["status"] == "ok"
            assert body["verified"] is False  # the router gates the merge
            assert body["algorithm"] == "DeDPO"
            assert body["schedules"]

    def test_unknown_scheme_is_a_400(self, tmp_path):
        _instance, payload = self._clustered()
        with LocalCluster(workers=1, journal_root=str(tmp_path)) as cluster:
            status, body = _post(
                cluster.base_url, "/solve?partition=quadtree", payload
            )
            assert status == 400
            assert "grid" in body["detail"]

    def test_unparseable_cells_is_a_400(self, tmp_path):
        _instance, payload = self._clustered()
        with LocalCluster(workers=1, journal_root=str(tmp_path)) as cluster:
            status, _body = _post(
                cluster.base_url, "/solve?partition=grid&cells=zebra", payload
            )
            assert status == 400

    def test_refused_cut_degrades_to_monolithic(self, tmp_path):
        from repro.core.partition import PartitionError, partition_instance
        from repro.datagen.clustered import (
            ClusteredConfig,
            generate_clustered_instance,
        )

        instance = generate_clustered_instance(
            ClusteredConfig(
                num_events=12, num_users=120, num_clusters=1, seed=3
            )
        )
        with pytest.raises(PartitionError):  # the premise: guard refuses
            partition_instance(instance, cells=9)
        payload = {"instance": instance_to_dict(instance), "algorithm": "DeDPO"}
        with LocalCluster(workers=2, journal_root=str(tmp_path)) as cluster:
            status, body = _post(
                cluster.base_url, "/solve?partition=grid&cells=9", payload,
                timeout=120,
            )
            assert status == 200  # monolithic fallback, never a 500
            assert body["status"] == "ok"
            assert "partition" not in body
            _, stats = _get(cluster.base_url, "/stats")
            assert stats["router"]["partition_fallbacks"] == 1
            assert stats["router"]["partition_scatters"] == 0

    def test_sigkill_mid_scatter_retries_the_lost_cells(self, tmp_path):
        """SIGKILL a worker while its subsolves are in flight: the lost
        cells are re-dispatched to the survivors (``partition_retries``)
        and the request still returns an oracle-verified 200 — via the
        scatter path, not the monolithic fallback, and with zero 500s.
        """
        from repro.verify.oracle import verify_schedules

        instance, payload = self._clustered()
        payload["deadline_s"] = 120.0
        result = {}
        with LocalCluster(workers=3, journal_root=str(tmp_path)) as cluster:
            def fire():
                result["resp"] = _post(
                    cluster.base_url,
                    "/solve?partition=grid&cells=6",
                    payload,
                    timeout=180,
                )

            thread = threading.Thread(target=fire)
            thread.start()
            try:
                # Kill the busiest worker the moment subsolves are in
                # flight — its cells die mid-request.
                victim = None
                deadline = time.monotonic() + 60
                while victim is None and time.monotonic() < deadline:
                    with cluster.router._lock:
                        busy = {
                            wid: n
                            for wid, n in cluster.router._outstanding.items()
                            if n > 0
                        }
                    if busy:
                        victim = max(busy, key=busy.get)
                    else:
                        time.sleep(0.005)
                assert victim is not None, "scatter never reached a worker"
                cluster.kill_worker(victim)
            finally:
                thread.join(timeout=180)
            assert not thread.is_alive(), "scatter request never returned"
            status, body = result["resp"]
            assert status == 200
            assert body["status"] == "ok"
            assert body["verified"] is True
            assert "partition" in body, "must not fall back to monolithic"
            schedules = {
                int(uid): events for uid, events in body["schedules"].items()
            }
            assert verify_schedules(instance, schedules).ok
            _, stats = _get(cluster.base_url, "/stats")
            assert stats["router"]["partition_retries"] >= 1
            assert stats["router"]["partition_fallbacks"] == 0

    def test_bad_instance_falls_back_to_the_canonical_400(self, tmp_path):
        with LocalCluster(workers=1, journal_root=str(tmp_path)) as cluster:
            status, body = _post(
                cluster.base_url, "/solve?partition=grid", {"instance": 17}
            )
            assert status == 400  # the worker's invalid-instance answer
            assert "error" in body or "message" in body
