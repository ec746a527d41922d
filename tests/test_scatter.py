"""Unit tests for the scatter partial-failure policy (PR 10).

These drive :func:`repro.service.scatter.scatter_solve` against a fake
router so the retry / hedge / fair-share scheduler can be exercised
deterministically, without subprocesses or sockets.  The end-to-end
SIGKILL-mid-scatter path lives in ``tests/test_multiworker.py``.
"""

import json
import math
import threading
import time

import pytest

from repro.core.partition import partition_instance
from repro.datagen.clustered import ClusteredConfig, generate_clustered_instance
from repro.io import instance_to_dict
from repro.service import scatter
from repro.service.scatter import (
    DEFAULT_SCATTER_BUDGET_S,
    RPC_SLACK_S,
    ScatterError,
    scatter_solve,
)


class FakeSupervisor:
    def __init__(self, worker_ids):
        self._ids = list(worker_ids)
        self.unhealthy = set()

    def worker_ids(self):
        return list(self._ids)

    def is_healthy(self, worker_id):
        return worker_id not in self.unhealthy

    def mark_unhealthy(self, worker_id):
        self.unhealthy.add(worker_id)


class FakeRouter:
    """Just enough router: a fleet, counters, recording proxy.

    ``behavior(index, worker_id, payload)`` decides each subsolve call's
    fate (``index`` is the global call order); the default answers every
    cell instantly with an empty plan, which reconciles and verifies.
    """

    def __init__(self, worker_ids=("w0", "w1", "w2"), behavior=None):
        self.supervisor = FakeSupervisor(worker_ids)
        self.counters = {"partition_retries": 0, "partition_hedges": 0}
        self.calls = []  # (worker_id, payload, timeout_s)
        self.behavior = behavior
        self._lock = threading.Lock()

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def pick_least_loaded(self, exclude=()):
        for worker_id in self.supervisor.worker_ids():
            if worker_id not in exclude and self.supervisor.is_healthy(
                worker_id
            ):
                return worker_id
        return None

    def proxy(self, worker_id, method, path, body, timeout_s=None):
        assert method == "POST" and path == "/subsolve"
        payload = json.loads(body)
        with self._lock:
            index = len(self.calls)
            self.calls.append((worker_id, payload, timeout_s))
        if self.behavior is not None:
            return self.behavior(index, worker_id, payload)
        return 200, json.dumps({"schedules": {}}).encode()


@pytest.fixture(scope="module")
def instance():
    return generate_clustered_instance(
        ClusteredConfig(num_events=12, num_users=60, num_clusters=4, seed=7)
    )


@pytest.fixture(scope="module")
def payload(instance):
    return {"instance": instance_to_dict(instance)}


def _populated_cells(instance, cells=4):
    partition = partition_instance(instance, cells=cells)
    return len([sub for sub in partition.cells if len(sub.user_ids)])


class TestFairDeadlineShare:
    def test_share_is_budget_over_waves_not_verbatim(
        self, instance, payload, monkeypatch
    ):
        """The PR 10 bugfix: each subsolve gets a fair share of the
        remaining budget, never the client's full ``deadline_s``."""
        monkeypatch.setattr(scatter, "MAX_SCATTER_CONCURRENCY", 2)
        budget = 8.0
        router = FakeRouter()
        status, body = scatter_solve(
            router, dict(payload, deadline_s=budget), cells=4
        )
        assert status == 200 and body["verified"]
        populated = _populated_cells(instance)
        waves = math.ceil(populated / 2)
        assert waves >= 2, "config must force multiple dispatch waves"
        assert len(router.calls) == populated
        for _, sent, timeout_s in router.calls:
            share = sent["deadline_s"]
            assert 0 < share <= budget / waves + 1e-6
            assert timeout_s == pytest.approx(share + RPC_SLACK_S, abs=1e-4)

    def test_default_budget_when_client_names_none(self, instance, payload):
        router = FakeRouter()
        status, _ = scatter_solve(router, dict(payload), cells=4)
        assert status == 200
        for _, sent, _ in router.calls:
            assert 0 < sent["deadline_s"] <= DEFAULT_SCATTER_BUDGET_S

    @pytest.mark.parametrize("bad", ["soon", -1, 0, True, float("inf")])
    def test_malformed_deadline_degrades_to_monolithic(self, payload, bad):
        """A deadline the worker would 400 must raise ScatterError so
        the monolithic path produces the canonical error."""
        with pytest.raises(ScatterError, match="deadline_s"):
            scatter_solve(FakeRouter(), dict(payload, deadline_s=bad), cells=4)


class TestPerCellRetry:
    def test_lost_cell_is_retried_on_alternate_worker(self, payload):
        """One transport death retries the cell elsewhere instead of
        failing the whole scatter."""
        def behavior(index, worker_id, sent):
            if index == 0:
                raise ConnectionError("injected transport loss")
            return 200, json.dumps({"schedules": {}}).encode()

        router = FakeRouter(behavior=behavior)
        status, body = scatter_solve(router, dict(payload), cells=4)
        assert status == 200 and body["verified"]
        assert router.counters["partition_retries"] == 1
        assert body["partition"]["retries"] == 1
        assert body["partition"]["hedges"] == 0
        dead_worker = router.calls[0][0]
        assert dead_worker in router.supervisor.unhealthy
        retried_on = {w for w, _, _ in router.calls[1:]}
        assert retried_on, "retry must have been dispatched"

    def test_non_200_reply_is_retried(self, payload):
        def behavior(index, worker_id, sent):
            if index == 0:
                return 500, b'{"error": "injected"}'
            return 200, json.dumps({"schedules": {}}).encode()

        router = FakeRouter(behavior=behavior)
        status, body = scatter_solve(router, dict(payload), cells=4)
        assert status == 200
        assert router.counters["partition_retries"] == 1
        # An HTTP error is the worker *answering*; health is untouched.
        assert not router.supervisor.unhealthy

    def test_exhausted_retries_raise_scatter_error(self, payload):
        """When every attempt of a cell dies, the scatter gives up and
        the router's caller owns the monolithic fallback."""
        def behavior(index, worker_id, sent):
            raise ConnectionError("injected: whole fleet dark")

        router = FakeRouter(behavior=behavior)
        with pytest.raises(ScatterError):
            scatter_solve(router, dict(payload), cells=4)


class TestHedging:
    def test_straggler_gets_hedged_and_first_reply_wins(self, payload):
        """The first-dispatched cell stalls; once siblings return, a
        hedge twin answers and the response never waits the stall out."""
        stall_s = 1.5

        def behavior(index, worker_id, sent):
            if index == 0:
                time.sleep(stall_s)
            return 200, json.dumps({"schedules": {}}).encode()

        router = FakeRouter(behavior=behavior)
        started = time.monotonic()
        status, body = scatter_solve(router, dict(payload), cells=4)
        elapsed = time.monotonic() - started
        assert status == 200 and body["verified"]
        assert router.counters["partition_hedges"] >= 1
        assert body["partition"]["hedges"] >= 1
        assert body["partition"]["retries"] == 0
        assert elapsed < stall_s, "hedge must beat the straggler"

    def test_fast_fleet_never_hedges(self, payload):
        router = FakeRouter()
        status, body = scatter_solve(router, dict(payload), cells=4)
        assert status == 200
        assert router.counters["partition_hedges"] == 0
        assert body["partition"]["hedges"] == 0
