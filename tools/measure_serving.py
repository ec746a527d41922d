#!/usr/bin/env python
"""Measure the serving layer: throughput, latency, shed behaviour.

Reproduces the EXPERIMENTS.md `EX-SRV` entry.  Boots an in-thread
:class:`~repro.service.server.PlanningServer` on an ephemeral port,
warms the build cache with one solve, then measures over real HTTP:

1. **at capacity** — for each queue depth in ``--depths``, fires
   ``--requests`` solves at concurrency ``max_inflight + depth`` (the
   largest load the admission controller accepts without shedding) and
   reports throughput and p50/p99 latency;
2. **at 2x saturation** — doubles the concurrency and reports the shed
   rate and the breakdown of structured 429/503 responses, i.e. how the
   server behaves when it must refuse work.

**Recovery mode** (``--recovery``) measures journal replay instead of
HTTP: it churns ``--recovery-mutations`` mutations into a per-instance
journal, times a full replay of the un-compacted journal, compacts it
to a single snapshot record
(:meth:`~repro.service.journal.InstanceJournal.compact`) and times the
replay again — the ``serving_recovery`` block of ``BENCH_solvers.json``
(speedup = un-compacted / compacted replay time; both replays must be
bit-identical to the live instance or the run aborts).

**Multi-worker mode** (``--workers 1,2,4``) measures the supervised
fleet instead: for each fleet size it boots a
:class:`~repro.service.router.LocalCluster` (router + real worker
subprocesses), fires ``--requests`` stateless solves at fleet capacity
(``workers * (max_inflight + depth)`` concurrent clients) and then at
2x that, reporting throughput, p50/p99 and the shed rate under
overload — the ``serving_multiworker`` block of ``BENCH_solvers.json``
(``--update-bench`` rewrites it in place).

Usage::

    python tools/measure_serving.py [--depths 1,8,32] [--requests 200]
        [--out serving_measurements.json] [--in-process]
    python tools/measure_serving.py --workers 1,2,4 \
        [--update-bench BENCH_solvers.json]
    python tools/measure_serving.py --recovery \
        [--recovery-mutations 10000] [--update-bench BENCH_solvers.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.datagen.synthetic import SyntheticConfig, generate_instance  # noqa: E402
from repro.io import instance_to_dict  # noqa: E402
from repro.service.admission import AdmissionConfig  # noqa: E402
from repro.service.server import ServerConfig, make_server  # noqa: E402


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _fire(base, payload, num_requests, concurrency):
    """Fire requests from `concurrency` worker threads; collect stats."""
    latencies = []
    statuses = {}
    lock = threading.Lock()
    remaining = list(range(num_requests))

    def worker():
        while True:
            with lock:
                if not remaining:
                    return
                remaining.pop()
            started = time.perf_counter()
            try:
                request = urllib.request.Request(base + "/solve", data=payload)
                with urllib.request.urlopen(request, timeout=120) as resp:
                    resp.read()
                    status = resp.status
            except urllib.error.HTTPError as exc:
                exc.read()
                status = exc.code
            elapsed = time.perf_counter() - started
            with lock:
                statuses[status] = statuses.get(status, 0) + 1
                if status == 200:
                    latencies.append(elapsed)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "statuses": statuses,
        "throughput_rps": round(num_requests / wall, 2),
        "p50_ms": round(1e3 * _percentile(latencies, 0.50), 2) if latencies else None,
        "p99_ms": round(1e3 * _percentile(latencies, 0.99), 2) if latencies else None,
    }


def measure_recovery(
    mutations: int = 10000,
    batch_size: int = 10,
    events: int = 12,
    users: int = 60,
) -> dict:
    """The ``serving_recovery`` block: replay time with vs. without
    snapshot-compaction after ``mutations`` journalled mutations.

    Importable (not just a CLI mode) so the CI perf guard can
    fresh-measure it the way it fresh-measures the churn block.  Both
    sides of the speedup are measured in the same process on the same
    disk, so runner speed cancels out of the ratio.  Aborts (exit 2)
    if either replay diverges from the live instance — the speedup of
    a wrong recovery is meaningless.
    """
    import random
    import tempfile

    from repro.core import build_cache
    from repro.core.deltas import apply_mutation
    from repro.io import (
        instance_from_dict,
        mutation_from_dict,
        mutation_to_dict,
    )
    from repro.service.journal import InstanceJournal, replay_journal

    instance = generate_instance(
        SyntheticConfig(num_events=events, num_users=users, seed=20260806)
    )
    live = instance_from_dict(instance_to_dict(instance))
    rng = random.Random(20260807)
    with tempfile.TemporaryDirectory() as tmp:
        journal = InstanceJournal.create(
            tmp, "inst-recovery-bench", instance_to_dict(live)
        )
        seq = 0
        applied = 0
        while applied < mutations:
            wire = []
            for _ in range(min(batch_size, mutations - applied)):
                mutation = mutation_from_dict(
                    {
                        "op": "utility_change",
                        "user_id": rng.randrange(live.num_users),
                        "event_id": rng.randrange(live.num_events),
                        "utility": round(rng.random(), 6),
                    },
                    "bench",
                )
                apply_mutation(live, mutation)
                wire.append(mutation_to_dict(mutation))
                applied += 1
            if not journal.append_mutations(wire, seq, live.version):
                raise SystemExit(
                    f"journal degraded during bench churn: {journal.degraded}"
                )
            seq += 1

        live_fingerprint = build_cache.instance_fingerprint(live)

        started = time.perf_counter()
        uncompacted = replay_journal(journal.path)
        uncompacted_s = time.perf_counter() - started
        if (
            build_cache.instance_fingerprint(uncompacted.instance)
            != live_fingerprint
        ):
            raise SystemExit("un-compacted replay diverged from live state")

        if not journal.compact(
            instance_to_dict(live), seq - 1, live.version
        ):
            raise SystemExit(f"compaction failed: {journal.degraded}")
        started = time.perf_counter()
        compacted = replay_journal(journal.path)
        compacted_s = time.perf_counter() - started
        journal.close()
        if (
            build_cache.instance_fingerprint(compacted.instance)
            != live_fingerprint
            or compacted.instance.version != live.version
        ):
            raise SystemExit("compacted replay diverged from live state")

    return {
        "instance": {"events": events, "users": users},
        "mutations": mutations,
        "batch_size": batch_size,
        "replay_uncompacted_s": round(uncompacted_s, 6),
        "replay_compacted_s": round(compacted_s, 6),
        "speedup": round(uncompacted_s / max(compacted_s, 1e-9), 2),
        "bit_identical": True,
    }


def _measure_multiworker(args, payload):
    """The ``serving_multiworker`` block: rps/p50/p99/shed per fleet size."""
    from repro.service.router import LocalCluster  # noqa: E402 (lazy)

    depth = 8
    worker_args = (
        "--max-inflight", str(args.max_inflight),
        "--queue-depth", str(depth),
        "--deadline-cap", "60",
        "--default-deadline", "30",
    )
    block = {
        "instance": {"events": args.events, "users": args.users},
        "algorithm": args.algorithm,
        "requests_per_point": args.requests,
        "max_inflight_per_worker": args.max_inflight,
        "queue_depth_per_worker": depth,
        "mode": "in-process workers behind the affinity router",
        # Stamped so readers can tell real scaling loss from a fleet
        # that simply outnumbered the recording box's cores — the CI
        # guard skips the scaling-efficiency assertion for fleets
        # larger than this (ROADMAP item 1).
        "cpu_count": os.cpu_count(),
        "fleets": {},
    }
    header = (
        f"{'workers':>7} {'conc':>5} {'rps':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'shed@2x':>8} {'scaling':>8}"
    )
    print(header)
    print("-" * len(header))
    base_rps = None
    for workers in [int(w) for w in args.workers.split(",")]:
        with LocalCluster(workers=workers, worker_args=worker_args) as fleet:
            base = fleet.base_url
            _fire(base, payload, 2 * workers, workers)  # warm every shard
            capacity = workers * (args.max_inflight + depth)
            at_capacity = _fire(base, payload, args.requests, capacity)
            over = _fire(base, payload, args.requests, 2 * capacity)
        shed = sum(
            count
            for status, count in over["statuses"].items()
            if status in (429, 503)
        )
        over["shed_rate"] = round(shed / args.requests, 3)
        rps = at_capacity["throughput_rps"]
        if base_rps is None:
            base_rps = rps / workers  # per-worker rps of the first point
        scaling = round(rps / (base_rps * workers), 3)
        block["fleets"][str(workers)] = {
            "concurrency": capacity,
            "at_capacity": at_capacity,
            "at_2x": over,
            "scaling_efficiency": scaling,
        }
        print(
            f"{workers:>7} {capacity:>5} {rps:>8} "
            f"{at_capacity['p50_ms']:>8} {at_capacity['p99_ms']:>8} "
            f"{over['shed_rate']:>8} {scaling:>8}"
        )
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depths", default="1,8,32")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--max-inflight", type=int, default=2)
    parser.add_argument("--events", type=int, default=12)
    parser.add_argument("--users", type=int, default=60)
    parser.add_argument("--algorithm", default="DeDPO")
    parser.add_argument("--out", default="serving_measurements.json")
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="skip fork-per-request (isolates admission overhead)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="N,N,...",
        help="measure the multi-worker fleet at these sizes "
        "(e.g. 1,2,4) instead of the single-server depth sweep",
    )
    parser.add_argument(
        "--update-bench",
        default=None,
        metavar="BENCH_JSON",
        help="with --workers/--recovery: rewrite this file's "
        "serving_multiworker/serving_recovery block in place",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="measure journal replay with vs. without snapshot-"
        "compaction instead of HTTP serving",
    )
    parser.add_argument("--recovery-mutations", type=int, default=10000)
    parser.add_argument("--recovery-batch", type=int, default=10)
    args = parser.parse_args(argv)

    if args.recovery:
        print(
            f"recovery measurement: |V|={args.events} |U|={args.users}, "
            f"{args.recovery_mutations} mutations in batches of "
            f"{args.recovery_batch}"
        )
        block = measure_recovery(
            mutations=args.recovery_mutations,
            batch_size=args.recovery_batch,
            events=args.events,
            users=args.users,
        )
        print(
            f"replay un-compacted {block['replay_uncompacted_s']:.3f} s vs "
            f"compacted {block['replay_compacted_s']:.3f} s -> "
            f"{block['speedup']:.1f}x (bit-identical)"
        )
        with open(args.out, "w") as handle:
            json.dump({"serving_recovery": block}, handle,
                      indent=2, sort_keys=True)
        print(f"measurements written to {args.out}")
        if args.update_bench:
            with open(args.update_bench) as handle:
                bench = json.load(handle)
            bench["serving_recovery"] = block
            with open(args.update_bench, "w") as handle:
                json.dump(bench, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"serving_recovery block updated in {args.update_bench}")
        return 0

    instance = generate_instance(
        SyntheticConfig(
            num_events=args.events, num_users=args.users, seed=20260806
        )
    )
    payload = json.dumps(
        {
            "instance": instance_to_dict(instance),
            "algorithm": args.algorithm,
            "deadline_s": 30,
        }
    ).encode()

    if args.workers:
        print(
            f"multi-worker serving measurement: |V|={args.events} "
            f"|U|={args.users} {args.algorithm}, {args.requests} "
            f"requests/point, fleets {args.workers}"
        )
        block = _measure_multiworker(args, payload)
        with open(args.out, "w") as handle:
            json.dump({"serving_multiworker": block}, handle,
                      indent=2, sort_keys=True)
        print(f"\nmeasurements written to {args.out}")
        if args.update_bench:
            with open(args.update_bench) as handle:
                bench = json.load(handle)
            bench["serving_multiworker"] = block
            with open(args.update_bench, "w") as handle:
                json.dump(bench, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"serving_multiworker block updated in {args.update_bench}")
        return 0

    results = {
        "instance": {"events": args.events, "users": args.users},
        "algorithm": args.algorithm,
        "requests_per_point": args.requests,
        "max_inflight": args.max_inflight,
        "mode": "in-process" if args.in_process else "forked",
        "depths": {},
    }
    print(
        f"serving measurement: |V|={args.events} |U|={args.users} "
        f"{args.algorithm}, {args.requests} requests/point, "
        f"max_inflight={args.max_inflight}, mode={results['mode']}"
    )
    header = (
        f"{'depth':>6} {'conc':>5} {'rps':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'shed@2x':>8}"
    )
    print(header)
    print("-" * len(header))

    for depth in [int(d) for d in args.depths.split(",")]:
        server = make_server(
            port=0,
            config=ServerConfig(
                in_process=args.in_process,
                memory_limit_bytes=None,
                admission=AdmissionConfig(
                    max_inflight=args.max_inflight,
                    queue_depth=depth,
                    deadline_cap_s=60.0,
                    default_deadline_s=30.0,
                ),
            ),
        )
        server.serve_in_thread()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _fire(base, payload, 2, 1)  # warm the build cache
            capacity = args.max_inflight + depth
            at_capacity = _fire(base, payload, args.requests, capacity)
            over = _fire(base, payload, args.requests, 2 * capacity)
            shed = sum(
                count
                for status, count in over["statuses"].items()
                if status in (429, 503)
            )
            over["shed_rate"] = round(shed / args.requests, 3)
            results["depths"][str(depth)] = {
                "at_capacity": at_capacity,
                "at_2x": over,
            }
            print(
                f"{depth:>6} {capacity:>5} {at_capacity['throughput_rps']:>8} "
                f"{at_capacity['p50_ms']:>8} {at_capacity['p99_ms']:>8} "
                f"{over['shed_rate']:>8}"
            )
        finally:
            server.shutdown()

    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"\nmeasurements written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
