"""The ``serve_mixed`` workload: the production fleet over one connection.

The fleet is booted through the production CLI (``repro.cli serve
--workers 2 --journal-dir``: router, two supervised workers, fork
supervision and journals on) and driven over one kept-alive HTTP
connection, as a client that holds its connection open would.  One op
is one round: ``POST /mutate`` on one of a few registered instances
(rotating), ``POST /solve`` of that instance by id, and ``POST /solve``
of a fresh inline instance.  Whole rounds are timed so the latency
distribution keeps one mode when one request kind moves past another.

Every reply is re-checked outside the timed interval against an
in-process twin that applies the same mutations; every
``COMPARE_EVERY``-th by-id plan must equal the twin's own solve byte
for byte.  Teardown is a SIGTERM drain that must exit 0 with zero 5xx
replies, zero supervisor restarts and no process left behind.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
from local import SOLVER, Check, independent_check, load_program
from measure import Tracer, pid_alive, pid_peak_rss_mb

BOOT_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0


class KeepAlive:
    """One HTTP/1.1 connection reused for every request."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.server_errors = 0

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, decoded reply, seconds)`` of one request."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        if response.status >= 500:
            self.server_errors += 1
        return response.status, json.loads(data), elapsed

    def close(self) -> None:
        self.conn.close()


class ServeMixed:
    name = "serve_mixed"
    #: A stream, not a replayed set: every round mutates the fleet's
    #: instances, so no round can be run twice.
    inputs = 0
    #: Rounds always run, so the tail percentile and ``utility_ratio``
    #: cover a fixed set of inputs.
    min_ops = 40
    requests_per_op = 3
    #: Set-ups per untraced run (each boots and drains a fleet);
    #: ``setup_s`` is their median.
    setup_samples = 3
    INSTANCES = 3
    EVENTS, USERS, CAPACITY = 40, 600, 15
    INLINE_EVENTS, INLINE_USERS, INLINE_CAPACITY = 20, 150, 8
    MUTATIONS_PER_ROUND = 3
    #: Compact every instance journal after this many batches, so each
    #: registered instance compacts several times in a run.
    SNAPSHOT_EVERY = 4
    COMPARE_EVERY = 8
    #: The requests that together make up a round's wall time.
    covering = ("service.mutate", "service.resolve", "service.inline")

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[KeepAlive] = None

    # -- inputs --------------------------------------------------------
    def generate(self) -> None:
        self.drawn = [
            inputs.uniform_instance(
                inputs.CITY_SEED, 10 + k, self.EVENTS, self.USERS, self.CAPACITY
            )
            for k in range(self.INSTANCES)
        ]
        self.wires = [json.dumps({"instance": d.to_wire()}).encode() for d in self.drawn]
        self.mirrors = [
            inputs.ChurnMirror(d, self.seed, 20 + k) for k, d in enumerate(self.drawn)
        ]
        self.warmup = self.prepare(-1)

    def prepare(self, i: int):
        k = (i + 1) % self.INSTANCES
        mirror = self.mirrors[k]
        mutations = [mirror.draw() for _ in range(self.MUTATIONS_PER_ROUND)]
        inline = inputs.uniform_instance(
            self.seed, 1000 + i + 1, self.INLINE_EVENTS, self.INLINE_USERS,
            self.INLINE_CAPACITY,
        )
        return {
            "k": k,
            "mutations": mutations,
            "inline": inline,
            "inline_body": json.dumps({"instance": inline.to_wire()}).encode(),
            "bound": mirror.bound(),
            "inline_bound": inline.bound(),
        }

    # -- set-up and teardown -------------------------------------------
    def setup(self) -> None:
        run_dir = self.root / ".bench_run" / f"{self.name}-{os.getpid()}-{time.monotonic_ns()}"
        self.run_dir = run_dir
        self.journal_dir = run_dir / "journal"
        run_dir.mkdir(parents=True)
        log = open(run_dir / "fleet.log", "w")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--workers", "2", "--port", "0",
                "--journal-dir", str(self.journal_dir),
                "--snapshot-every", str(self.SNAPSHOT_EVERY),
            ],
            cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        log.close()
        port = self._await_port(run_dir / "fleet.log")
        self._await_ready(port)
        self.client = KeepAlive(port)
        self.ids: List[str] = []
        for wire in self.wires:
            status, body, _ = self.client.call("POST", "/instances", wire)
            if status != 200:
                raise RuntimeError(f"registration failed: {status} {body}")
            self.ids.append(body["instance_id"])
            status, body, _ = self.client.call(
                "POST", "/solve", json.dumps({"instance_id": self.ids[-1]}).encode()
            )
            if status != 200:
                raise RuntimeError(f"first solve failed: {status} {body}")
        self.run_op(self.warmup, None)

    def _await_port(self, log_path: Path) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in log_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("fleet did not announce its port")

    def _await_ready(self, port: int) -> None:
        """Poll ``/readyz`` on throwaway connections (a 503 closes its
        connection, so the kept-alive one is opened only once ready)."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.05)
        raise RuntimeError("fleet never became ready")

    def attach_twins(self) -> None:
        """In-process twins of the registered instances, for the gates."""
        load_program(self.root)
        self.io = importlib.import_module("repro.io")
        self.deltas = importlib.import_module("repro.core.deltas")
        self.registry = importlib.import_module("repro.algorithms.registry")
        self.oracle = importlib.import_module("repro.verify.oracle")
        self.twins = [
            self.io.instance_from_dict(json.loads(w)["instance"]) for w in self.wires
        ]
        self.apply_to_twin(self.warmup)

    def apply_to_twin(self, inp) -> None:
        mutations = self.io.mutations_from_list(inp["mutations"])
        self.deltas.apply_mutations(self.twins[inp["k"]], mutations)

    def fleet_stats(self) -> Dict[str, object]:
        status, body, _ = self.client.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def peak_rss_mb(self) -> float:
        stats = self.fleet_stats()
        pids = [stats["pid"]] + [w["pid"] for w in stats["supervisor"]]
        return sum(pid_peak_rss_mb(pid) for pid in pids if pid)

    def run_counts(self) -> Dict[str, float]:
        """Build-cache hits and lookups summed over the workers."""
        hits = lookups = 0
        for worker in self.fleet_stats()["workers"]:
            cache = worker.get("build_cache", {})
            hits += cache.get("hits", 0)
            lookups += cache.get("hits", 0) + cache.get("misses", 0)
        return {"build_cache_hits": hits, "build_cache_lookups": lookups}

    def close(self) -> List[str]:
        """SIGTERM drain plus the hygiene assertions; returns failures."""
        problems: List[str] = []
        pids: List[int] = []
        if self.proc is None:
            return problems
        try:
            if self.client is not None:
                stats = self.fleet_stats()
                pids = [stats["pid"]] + [w["pid"] for w in stats["supervisor"] if w["pid"]]
                restarts = sum(w["restarts"] for w in stats["supervisor"])
                if restarts:
                    problems.append(f"{restarts} supervisor restarts")
                failed = stats["fleet_counters"].get("failed", 0)
                if failed:
                    problems.append(f"{failed} failed requests counted by the fleet")
                if self.client.server_errors:
                    problems.append(f"{self.client.server_errors} 5xx replies")
        except (OSError, http.client.HTTPException, RuntimeError, KeyError) as exc:
            problems.append(f"final /stats failed: {exc!r}")
        finally:
            if self.client is not None:
                self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            if code != 0:
                problems.append(f"fleet exited {code} after SIGTERM")
        except subprocess.TimeoutExpired:
            problems.append("fleet did not drain within the timeout")
        deadline = time.monotonic() + 5.0
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [p for p in pids if pid_alive(p)]
        if leaked:
            problems.append(f"processes left behind: {leaked}")
        # Whatever is left of the fleet's session goes now, so no later
        # run shares the box with a leaked worker.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if self.journal_dir.exists():
            problems.append("journal directory not removed")
        try:
            self.run_dir.parent.rmdir()
        except OSError:
            pass
        self.proc = None
        return problems

    # -- the op --------------------------------------------------------
    def stage(self, inp):
        return inp

    def run_op(self, inp, tracer: Optional[Tracer]):
        """One round; returns the three replies and their latencies."""
        instance_id = self.ids[inp["k"]]
        call = self.client.call
        mutate = call("POST", "/mutate", json.dumps(
            {"instance_id": instance_id, "mutations": inp["mutations"]}
        ).encode())
        resolve = call("POST", "/solve", json.dumps({"instance_id": instance_id}).encode())
        inline = call("POST", "/solve", inp["inline_body"])
        return mutate, resolve, inline

    def check(self, i: int, inp, result) -> Check:
        mutate, resolve, inline = result
        twin = self.twins[inp["k"]]
        self.apply_to_twin(inp)
        mirror = self.mirrors[inp["k"]]
        check = Check(attempted=self.requests_per_op)
        failed = 0
        status, body, _ = mutate
        if (
            status != 200
            or body.get("applied") != len(inp["mutations"])
            or body.get("version") != twin.version
        ):
            failed += 1
            check.notes.append(f"mutate answered {status}: {body}")
        plans = (
            ("by-id", resolve, twin, twin.version, mirror.mu, mirror.capacities,
             inp["bound"]),
            ("inline", inline, self.io.instance_from_dict(inp["inline"].to_wire()),
             None, inp["inline"].mu, inp["inline"].capacities, inp["inline_bound"]),
        )
        for kind, (status, body, _), instance, version, mu, capacities, bound in plans:
            sub = Check(bound=bound)
            if status != 200 or body.get("status") != "ok" or body.get("rung") != 0:
                sub.fail(f"{kind} solve answered {status}: "
                         f"{body.get('error', body.get('status'))}")
            elif body.get("instance_version") != version:
                sub.fail(f"{kind} plan is of version {body.get('instance_version')}")
            else:
                schedules = {int(u): evs for u, evs in body["schedules"].items()}
                report = self.oracle.verify_schedules(
                    instance, schedules, reported_utility=body["utility"]
                )
                if not report.ok:
                    sub.fail(f"{kind} plan rejected by the oracle: {report.summary()}")
                sub.omega = independent_check(
                    sub, schedules, mu, capacities, body["utility"], bound
                )
                if not sub.failed and kind == "by-id" and i % self.COMPARE_EVERY == 0:
                    own = self.registry.make_solver(SOLVER).solve(twin)
                    served = self.io.planning_from_serialised(
                        twin, {"schedules": body["schedules"]}
                    )
                    if (self.io.canonical_planning_bytes(own)
                            != self.io.canonical_planning_bytes(served)):
                        sub.fail("by-id plan differs from the twin's own solve")
            failed += sub.failed
            check.notes.extend(sub.notes)
            check.omega += sub.omega
            check.bound += sub.bound
        check.failed = failed
        return check

    def counts(self, result) -> Dict[str, float]:
        return {"dirty_users": len(result[0][1].get("dirty_users", []))}

    def layer_seconds(self, result) -> Dict[str, float]:
        """Per-request split of a traced round from latencies and reply
        fields, plus one ``GET /healthz`` on the same connection after
        the round: the transport floor under every request."""
        mutate, resolve, inline = result
        out = {
            "service.mutate": mutate[2],
            "service.resolve": resolve[2],
            "service.inline": inline[2],
        }
        front = overhead = solve = 0.0
        for _, body, latency in (resolve, inline):
            wall = body.get("wall_time_s", 0.0)
            inner = body.get("solve_time_s", 0.0)
            front += latency - wall
            overhead += wall - inner
            solve += inner
        out["service.front"] = front
        out["service.executor.overhead"] = overhead
        out["service.worker.solve"] = solve
        out["service.transport"] = self.client.call("GET", "/healthz")[2]
        return out
