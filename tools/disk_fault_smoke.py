#!/usr/bin/env python
"""Disk-fault smoke of the multi-worker service — CI `worker-chaos` job.

Boots a real ``repro-usep serve --workers 2 --journal-dir ...`` daemon
with ``REPRO_DISK_FAULT`` in its environment, so every supervised
worker arms the injected journal-writer fault at boot
(:func:`repro.service.faults.install_disk_from_env`).  The default
fault is ``disk-enospc:12``: the shard's 13th journal record — i.e.
mid-churn, well after registration — fails with ENOSPC, exactly what a
filled disk does to a healthy fleet.

Asserted contract (the ISSUE's acceptance criterion — an injected disk
fault must *degrade*, never kill):

* every request in the churn stream is answered — zero transport
  errors and zero 5xx, before and after the disk "fills";
* the fault surfaces structurally: mutation replies flip to
  ``durable: false`` and the supervisor's ``/stats`` snapshot reports
  ``journal_degraded`` for the poisoned shard;
* no worker dies for it: ``restarts == 0`` on every shard, and the
  degraded shard still answers ``/solve`` for its instance;
* the fleet counter invariant (``ok+degraded+shed+invalid+failed ==
  received``) still holds on every worker;
* SIGTERM drains the degraded fleet to exit code 0.

Usage::

    python tools/disk_fault_smoke.py [--fault disk-enospc:12]
        [--batches 30] [--keep DIR] [--stats-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.io import instance_to_dict  # noqa: E402
from repro.paper_example import build_example_instance  # noqa: E402
from repro.service.admission import DISPOSITIONS  # noqa: E402
from repro.service.faults import DISK_FAULT_ENV, DiskFaultSpec  # noqa: E402
from repro.service.router import (  # noqa: E402
    ServeDaemon,
    request_json,
    wait_journal_degraded,
)


def _mutation(index):
    return {
        "op": "capacity_change",
        "event_id": index % 4,
        "capacity": 2 + index,
    }


def run(base, batches, failures):
    status, reply = request_json(
        base, "/instances",
        {"instance": instance_to_dict(build_example_instance())},
    )
    if status != 200:
        failures.append(f"registration -> {status}: {reply}")
        return
    instance_id = reply["instance_id"]
    shard = instance_id.split("-inst-")[0]
    print(f"  registered {instance_id} on {shard} (durable={reply['durable']})")

    durable_flips = 0
    for index in range(batches):
        try:
            status, reply = request_json(
                base, "/mutate",
                {"instance_id": instance_id, "mutations": [_mutation(index)]},
            )
        except OSError as exc:
            failures.append(f"batch {index}: transport error {exc}")
            continue
        if status != 200:
            failures.append(f"batch {index} -> {status}: {reply}")
        elif reply.get("durable") is False:
            durable_flips += 1
    print(f"  churn: {batches} batches, {durable_flips} non-durable replies")
    if durable_flips == 0:
        failures.append(
            "no mutation reply flipped to durable=false — the injected "
            "disk fault never fired"
        )

    # The supervisor's next heartbeat sees the degradation via /healthz.
    degraded, stats = wait_journal_degraded(base)
    if degraded:
        print(f"  supervisor reports journal_degraded on: {degraded}")
    else:
        failures.append(
            "supervisor never surfaced journal_degraded for any worker"
        )
    for worker in stats.get("supervisor", []):
        if worker.get("restarts"):
            failures.append(
                f"worker {worker['worker_id']} restarted "
                f"{worker['restarts']}x — a disk fault must degrade, "
                "never kill"
            )
        if not worker.get("healthy"):
            failures.append(f"worker {worker['worker_id']} is unhealthy")
    for worker in stats.get("workers", []):
        counters = worker.get("counters", {})
        settled = sum(counters.get(key, 0) for key in DISPOSITIONS)
        if settled != counters.get("received"):
            failures.append(
                f"{worker.get('worker_id')}: counter invariant broke "
                f"({settled} settled != {counters.get('received')} received)"
            )

    # The degraded shard keeps solving from memory.
    status, reply = request_json(
        base, "/solve",
        {"instance_id": instance_id, "algorithm": "DeDP", "deadline_s": 30},
    )
    if status != 200 or reply.get("status") != "ok":
        failures.append(f"post-degradation solve -> {status}: {reply}")
    else:
        print("  post-degradation solve ok")
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fault", default="disk-enospc:12",
        help="REPRO_DISK_FAULT wire form: kind[:after_writes[:attempts]]",
    )
    parser.add_argument("--batches", type=int, default=30)
    parser.add_argument("--keep", default=None, metavar="DIR")
    parser.add_argument("--stats-out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    DiskFaultSpec.from_string(args.fault)  # validate before booting

    journal_root = args.keep or tempfile.mkdtemp(prefix="disk-fault-smoke-")
    failures = []
    stats = None
    print(f"disk-fault smoke: fault={args.fault}, journals in {journal_root}")
    with ServeDaemon(
        [
            "--workers", "2", "--journal-dir", journal_root,
            # Scheduled compaction would reset the journal to one record
            # and make the fault's write index moot; keep it linear.
            "--snapshot-every", "0",
        ],
        env={DISK_FAULT_ENV: args.fault},
    ) as daemon:
        stats = run(daemon.base_url, args.batches, failures)
    print(f"  SIGTERM drained the daemon to exit {daemon.exit_code}")
    if daemon.exit_code != 0:
        failures.append(f"SIGTERM drained the daemon to exit {daemon.exit_code}")
    if args.keep is None:
        shutil.rmtree(journal_root, ignore_errors=True)
    if args.stats_out and stats is not None:
        with open(args.stats_out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
    if failures:
        print("\nFAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("disk-fault smoke passed: degraded, surfaced, nobody died")
    return 0


if __name__ == "__main__":
    sys.exit(main())
