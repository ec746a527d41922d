#!/usr/bin/env python
"""Chaos smoke of the multi-worker service — the CI `worker-chaos` job.

Boots a real ``repro-usep serve --workers 2 --journal-dir ...`` process
(router + supervisor + worker subprocesses, exactly what an operator
runs), registers an instance on each shard, then drives a mutation
churn stream over real HTTP while **SIGKILLing the worker that owns the
stream mid-flight** — the pid comes from the ``/stats`` supervisor
section, same as an operator's ``kill -9`` would.

Asserted contract (the ISSUE's acceptance criterion):

* every request in the stream is answered — zero transport errors and
  zero 5xx, including the batches that hit the dying worker (the router
  stamps sequence numbers, waits for the supervisor's restart and
  retries exactly once);
* after the kill the supervisor reports the shard restarted and the
  replacement replayed its journals (``restarts >= 1``,
  ``recovered_instances >= 1``, healthy again);
* the same ``instance_id`` keeps serving ``/solve`` at exactly the
  version the uninterrupted mutation count implies — nothing lost,
  nothing double-applied;
* the untouched shard's instance never blinks;
* the fleet counter invariant (``ok+degraded+shed+invalid+failed ==
  received``) holds on every worker after the dust settles, and every
  worker reports ``in_process: true`` (fleet workers never fork);
* SIGTERM drains the whole fleet to exit code 0.

Usage::

    python tools/chaos_serve_smoke.py [--keep DIR] [--stats-out FILE]

``--keep DIR`` places the journal root at DIR and preserves it (CI
uploads it as an artifact when the job fails); without it a temporary
directory is used and removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.io import instance_to_dict  # noqa: E402
from repro.paper_example import build_example_instance  # noqa: E402
from repro.service.admission import DISPOSITIONS  # noqa: E402
from repro.service.router import ServeDaemon, request_json  # noqa: E402

NUM_BATCHES = 20
KILL_BEFORE_BATCH = 8


def _register_on_each_shard(base, failures):
    """Register instances until both shards hold one; returns {shard: id}."""
    wire = instance_to_dict(build_example_instance())
    by_shard = {}
    # Same content always routes to the same shard (affinity), so vary
    # the content: bump an event capacity to move the fingerprint.
    for attempt in range(16):
        body = json.loads(json.dumps(wire))
        body["events"][0]["capacity"] = 40 + attempt
        status, reply = request_json(base, "/instances", {"instance": body})
        if status != 200:
            failures.append(f"registration {attempt} -> {status}: {reply}")
            return by_shard
        instance_id = reply["instance_id"]
        shard = instance_id.split("-inst-")[0]
        by_shard.setdefault(shard, instance_id)
        if len(by_shard) == 2:
            break
    return by_shard


def _worker_pid(base, shard):
    _status, stats = request_json(base, "/stats")
    for worker in stats.get("supervisor", []):
        if worker.get("worker_id") == shard:
            return worker.get("pid")
    return None


def _churn_and_check(base, check, failures):
    """Kill the victim shard mid-churn; returns the final fleet /stats."""
    shards = _register_on_each_shard(base, failures)
    check("one instance registered per shard", len(shards) == 2,
          f"got shards {sorted(shards)}")
    if len(shards) < 2:
        return None
    victim_shard, victim_id = sorted(shards.items())[0]
    bystander_id = [iid for s, iid in shards.items() if s != victim_shard][0]
    victim_pid = _worker_pid(base, victim_shard)
    check(f"victim pid for shard {victim_shard} from /stats",
          isinstance(victim_pid, int), f"got {victim_pid!r}")

    print(f"churn: {NUM_BATCHES} batches, SIGKILL pid {victim_pid} "
          f"before batch {KILL_BEFORE_BATCH}")
    bad_statuses = []
    for step in range(NUM_BATCHES):
        if step == KILL_BEFORE_BATCH:
            os.kill(victim_pid, signal.SIGKILL)
        mutation = {
            "op": "utility_change", "user_id": 0, "event_id": 1,
            "utility": round((5 + step * 37 % 91) / 101.0, 6),
        }
        for instance_id in (victim_id, bystander_id):
            try:
                status, reply = request_json(
                    base, "/mutate",
                    {"instance_id": instance_id, "mutations": [mutation]},
                )
            except OSError as exc:
                bad_statuses.append(
                    f"step {step} {instance_id}: transport "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if status != 200:
                bad_statuses.append(
                    f"step {step} {instance_id}: {status} {reply}"
                )
    check("zero transport errors / zero non-200s in churn",
          not bad_statuses, "; ".join(bad_statuses[:4]))

    for label, instance_id in (("victim", victim_id),
                               ("bystander", bystander_id)):
        status, reply = request_json(
            base, "/solve",
            {"instance_id": instance_id, "algorithm": "DeDP",
             "deadline_s": 15},
        )
        check(f"{label} instance still solves", status == 200,
              f"{status} {reply}")
        if status == 200:
            check(
                f"{label} at the uninterrupted version",
                reply.get("instance_version") == NUM_BATCHES,
                f"version {reply.get('instance_version')} "
                f"!= {NUM_BATCHES}",
            )

    status, stats = request_json(base, "/stats")
    check("final /stats answers", status == 200, str(status))
    for worker in stats.get("supervisor", []):
        if worker.get("worker_id") == victim_shard:
            check("victim shard restarted", worker.get("restarts", 0) >= 1,
                  json.dumps(worker))
            check("replacement replayed its journals",
                  worker.get("recovered_instances", 0) >= 1,
                  json.dumps(worker))
            check("victim shard healthy again", worker.get("healthy"),
                  json.dumps(worker))
    check("both workers report /stats", len(stats.get("workers", [])) == 2,
          str([w.get("worker_id") for w in stats.get("workers", [])]))
    for worker in stats.get("workers", []):
        counters = worker.get("counters", {})
        total = sum(counters.get(k, 0) for k in DISPOSITIONS)
        check(
            f"counter invariant on {worker.get('worker_id')}",
            total == counters.get("received"),
            json.dumps(counters),
        )
        check(
            f"{worker.get('worker_id')} solves in-process",
            worker.get("in_process") is True,
            f"in_process={worker.get('in_process')!r}",
        )
    router = stats.get("router", {})
    check("router performed a failover retry",
          router.get("failover_retries", 0) >= 1, json.dumps(router))
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="journal root to use and preserve (CI failure artifact); "
        "default: a temporary directory, removed on exit",
    )
    parser.add_argument(
        "--stats-out",
        default="chaos_serve_stats.json",
        help="where to write the final fleet /stats snapshot",
    )
    args = parser.parse_args(argv)

    journal_root = args.keep or tempfile.mkdtemp(prefix="chaos-journals-")
    os.makedirs(journal_root, exist_ok=True)
    failures = []

    def check(label, ok, detail=""):
        print(f"  {label:44s} -> {'ok' if ok else f'FAIL {detail}'}")
        if not ok:
            failures.append(f"{label}: {detail}")

    with ServeDaemon(
        ["--workers", "2", "--journal-dir", journal_root]
    ) as daemon:
        stats = _churn_and_check(daemon.base_url, check, failures)
    if stats is not None:
        with open(args.stats_out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
        print(f"fleet stats snapshot written to {args.stats_out}")
    check("SIGTERM drained the fleet to exit 0", daemon.exit_code == 0,
          f"exit code {daemon.exit_code}")
    if args.keep is None and not failures:
        shutil.rmtree(journal_root, ignore_errors=True)
    elif args.keep is None:
        print(f"journals preserved at {journal_root} for inspection")

    if failures:
        print(f"\nFAILED: {failures}")
        return 1
    print("\nworker chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
