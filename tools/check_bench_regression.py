"""CI perf-regression guard: re-run the bench ledger and compare speedups.

Re-measures every (scale, solver) cell of ``BENCH_solvers.json`` with
the same harness that recorded it (``benchmarks/record_bench.py``) and
fails when any solver's *speedup over its seed twin* regressed by more
than the tolerance versus the committed ledger.  The committed ledger
must cover the ``large`` scale plus the ``churn`` and ``partition``
blocks (missing rows are a setup error, exit 2).  The fresh run
re-measures the churn block too — 1% user churn at |U| = 10k, delta
re-solve after every mutation (docs/dynamic.md) — and fails when the
delta-vs-cold speedup drops below the hard 10x floor the ledger
promises; it likewise re-measures the partition block — the huge
clustered instance cut into grid cells (docs/partitioning.md) — and
fails when the merged plan fails the oracle or keeps less than 95% of
the monolithic utility.  The block's partitioned-vs-monolithic
speedup is printed and recorded but not asserted: since the cost
matrices are built in bulk, the partitioned path is no faster than the
monolithic one on one box (it is for the fleet's scatter path).  The committed
``serving_multiworker`` block's scaling efficiency is asserted where
the recording box had the cores to scale (fleets larger than the
stamped ``cpu_count`` are hardware-capped, not regressions, and are
skipped).  Finally the compacted journal replay must stay 5x faster
than the uncompacted one at 10k mutations (the recovery floor).

Speedup ratios — seed time / kernel time measured in the **same**
process on the **same** machine — are what gets compared, never
absolute wall times: CI runners are slower and noisier than the machine
that recorded the committed ledger, but both twins slow down together,
so the ratio transfers.  A real regression (the kernel losing its edge
over the seed baseline) moves the ratio regardless of machine.  Every
twin cell is timed cold, as the median ratio of interleaved (kernel,
seed) pairs on fresh instances (see ``benchmarks/record_bench.py``), so
every cell is ratio-guarded; none is exempt.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py \
        [--ledger BENCH_solvers.json] [--out fresh-ledger.json] \
        [--repeats 25] [--tolerance 0.20]

Exit codes: 0 = no regression, 1 = regression detected, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

import record_bench  # noqa: E402  (path bootstrap above)


def _speedups(payload: Dict[str, object]) -> Dict[Tuple[str, str], float]:
    """``{(scale, solver): speedup}`` of one ledger payload."""
    return {
        (str(e["scale"]), str(e["after"]["solver"])): float(e["speedup"])
        for e in payload.get("results", [])
    }


#: Hard floor on the churn block's delta-vs-cold speedup.  Unlike the
#: twin ratios this is absolute, not relative to the committed ledger:
#: the 10x claim is the dynamic layer's contract (ROADMAP, ISSUE 7),
#: and both sides of the ratio are measured in the same process on the
#: same machine, so runner speed cancels out of it.
CHURN_SPEEDUP_FLOOR = 10.0

#: Hard floor on the partition block: the merged plan of the huge
#: clustered instance must keep >= 95% of the monolithic utility
#: (docs/partitioning.md).  Its one-box speedup is recorded, not
#: asserted: it measured the per-pair cost build the monolithic side
#: no longer pays (EXPERIMENTS.md, EX-PART).
PARTITION_UTILITY_FLOOR = 0.95

#: Hard floor on the recovery block's compacted-vs-uncompacted journal
#: replay speedup at 10k mutations (docs/serving.md).  Absolute like
#: the churn floor: both replays run in the same process against the
#: same disk, so runner speed cancels out of the ratio.
RECOVERY_SPEEDUP_FLOOR = 5.0

#: Floor on the measured multi-worker scaling efficiency, applied only
#: to fleet sizes the recording box could actually parallelise
#: (``workers <= cpu_count``).  The committed block carries the
#: recording box's ``cpu_count`` stamp; a 4-worker fleet measured on a
#: 1-core box is hardware-capped (ROADMAP item 1), not a serving-layer
#: regression, and is skipped with a note.
SERVING_SCALING_FLOOR = 0.5


def check_partition(fresh: Dict[str, object]) -> Optional[str]:
    """Guard the fresh partition block; returns a failure message or None."""
    block = fresh.get("partition")
    if not isinstance(block, dict):
        return "fresh ledger has no partition block"
    speedup = float(block["speedup"])
    ratio = float(block["utility_ratio"])
    print(
        f"\npartition guard [{block['algorithm']}+grid[{block['cells']}]]: "
        f"partitioned {float(block['partitioned_s']):.1f} s vs monolithic "
        f"{float(block['monolithic_s']):.1f} s -> {speedup:.2f}x "
        f"(recorded, not asserted), utility ratio "
        f"{ratio:.4f} (floor {PARTITION_UTILITY_FLOOR})"
    )
    if not block.get("oracle_ok"):
        return "partition block's merged plan lost oracle feasibility"
    if ratio < PARTITION_UTILITY_FLOOR:
        return (
            f"partitioned solve kept only {ratio:.4f} of the monolithic "
            f"utility (floor {PARTITION_UTILITY_FLOOR})"
        )
    return None


def check_serving(committed: Dict[str, object]) -> Optional[str]:
    """Guard the committed serving block's scaling efficiency.

    The serving block is not re-measured here (booting worker fleets
    belongs to ``tools/measure_serving.py``); this asserts the
    *committed* numbers stay coherent — and only where the recording
    box had the cores to scale at all.
    """
    block = committed.get("serving_multiworker")
    if not isinstance(block, dict):
        return None  # pre-serving ledgers stay valid
    cpu_count = block.get("cpu_count")
    print("\nserving guard [serving_multiworker]:")
    for workers_str, fleet in sorted(
        block.get("fleets", {}).items(), key=lambda kv: int(kv[0])
    ):
        workers = int(workers_str)
        scaling = float(fleet["scaling_efficiency"])
        if cpu_count is not None and workers > int(cpu_count):
            print(
                f"  {workers} workers: scaling {scaling:.3f} — skipped "
                f"(recorded on a {cpu_count}-core box, hardware-capped)"
            )
            continue
        verdict = "ok" if scaling >= SERVING_SCALING_FLOOR else "REGRESSED"
        print(
            f"  {workers} workers: scaling {scaling:.3f} "
            f"(floor {SERVING_SCALING_FLOOR}) {verdict}"
        )
        if scaling < SERVING_SCALING_FLOOR:
            return (
                f"serving_multiworker scaling efficiency {scaling:.3f} at "
                f"{workers} workers fell below the {SERVING_SCALING_FLOOR} "
                "floor on a box with enough cores"
            )
    return None


def check_recovery() -> Optional[str]:
    """Fresh-measure journal snapshot-compaction; guard the 5x floor.

    Re-measured here (like the churn block) rather than trusted from
    the committed ledger: the block is cheap to produce and the floor
    is the robustness contract (ISSUE 10), not a machine-relative twin
    ratio.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    from measure_serving import measure_recovery

    block = measure_recovery()
    speedup = float(block["speedup"])
    print(
        f"\nrecovery guard [{block['mutations']} mutations]: replay "
        f"un-compacted {float(block['replay_uncompacted_s']) * 1000:.0f} ms "
        f"vs compacted {float(block['replay_compacted_s']) * 1000:.0f} ms "
        f"-> {speedup:.1f}x (floor {RECOVERY_SPEEDUP_FLOOR:.0f}x)"
    )
    if not block.get("bit_identical"):
        return "recovery block lost replay bit-identity after compaction"
    if speedup < RECOVERY_SPEEDUP_FLOOR:
        return (
            f"compacted-replay speedup {speedup:.1f}x fell below the "
            f"{RECOVERY_SPEEDUP_FLOOR:.0f}x floor at 10k mutations"
        )
    return None


def check_churn(fresh: Dict[str, object]) -> Optional[str]:
    """Guard the fresh churn block; returns a failure message or None."""
    churn = fresh.get("churn")
    if not isinstance(churn, dict):
        return "fresh ledger has no churn block"
    speedup = float(churn["speedup"])
    print(
        f"\nchurn guard [{churn['algorithm']}]: delta "
        f"{float(churn['delta_mean_s']) * 1000:.0f} ms vs cold "
        f"{float(churn['cold_mean_s']) * 1000:.0f} ms -> {speedup:.1f}x "
        f"(floor {CHURN_SPEEDUP_FLOOR:.0f}x)"
    )
    if not churn.get("bit_identical"):
        return "churn block lost delta-vs-cold byte identity"
    if speedup < CHURN_SPEEDUP_FLOOR:
        return (
            f"churn delta-vs-cold speedup {speedup:.1f}x fell below the "
            f"{CHURN_SPEEDUP_FLOOR:.0f}x floor"
        )
    return None


def check(
    ledger_path: str,
    out_path: str,
    repeats: int,
    tolerance: float,
) -> int:
    try:
        with open(ledger_path) as handle:
            committed = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read committed ledger {ledger_path}: {exc}", file=sys.stderr)
        return 2
    committed_speedups = _speedups(committed)
    if not committed_speedups:
        print(f"committed ledger {ledger_path} has no results", file=sys.stderr)
        return 2
    scales = sorted({scale for scale, _ in committed_speedups})
    if "large" not in scales:
        print(
            f"committed ledger {ledger_path} has no 'large' scale rows — "
            "re-record with benchmarks/record_bench.py",
            file=sys.stderr,
        )
        return 2
    if not isinstance(committed.get("churn"), dict):
        print(
            f"committed ledger {ledger_path} has no 'churn' block — "
            "re-record with benchmarks/record_bench.py",
            file=sys.stderr,
        )
        return 2
    if not isinstance(committed.get("partition"), dict):
        print(
            f"committed ledger {ledger_path} has no 'partition' block — "
            "re-record with benchmarks/record_bench.py",
            file=sys.stderr,
        )
        return 2
    if not isinstance(committed.get("serving_recovery"), dict):
        print(
            f"committed ledger {ledger_path} has no 'serving_recovery' "
            "block — re-record with tools/measure_serving.py --recovery "
            "--update-bench",
            file=sys.stderr,
        )
        return 2

    fresh = record_bench.record(
        scales, repeats=repeats, out_path=out_path, churn=True, partition=True
    )
    fresh_speedups = _speedups(fresh)

    floor_factor = 1.0 - tolerance
    regressions: List[str] = []
    print(f"{'scale':6s} {'solver':10s} {'committed':>9s} {'fresh':>9s} verdict")
    for key in sorted(committed_speedups):
        scale, solver = key
        committed_s = committed_speedups[key]
        fresh_s: Optional[float] = fresh_speedups.get(key)
        if fresh_s is None:
            regressions.append(f"{scale}/{solver}: missing from fresh run")
            print(f"{scale:6s} {solver:10s} {committed_s:9.2f} {'—':>9s} MISSING")
            continue
        ok = fresh_s >= committed_s * floor_factor
        verdict = "ok" if ok else "REGRESSED"
        print(
            f"{scale:6s} {solver:10s} {committed_s:9.2f} {fresh_s:9.2f} "
            f"{verdict}"
        )
        if not ok:
            regressions.append(
                f"{scale}/{solver}: speedup {fresh_s:.2f}x < "
                f"{floor_factor:.0%} of committed {committed_s:.2f}x"
            )
    churn_failure = check_churn(fresh)
    if churn_failure is not None:
        regressions.append(churn_failure)
    partition_failure = check_partition(fresh)
    if partition_failure is not None:
        regressions.append(partition_failure)
    serving_failure = check_serving(committed)
    if serving_failure is not None:
        regressions.append(serving_failure)
    recovery_failure = check_recovery()
    if recovery_failure is not None:
        regressions.append(recovery_failure)
    if regressions:
        print(
            f"\nperf regression (> {tolerance:.0%} speedup loss vs "
            f"{os.path.basename(ledger_path)}):",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno perf regression (tolerance {tolerance:.0%}); fresh ledger: {out_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger",
        default=os.path.join(REPO_ROOT, "BENCH_solvers.json"),
        help="committed ledger to guard (default: repo BENCH_solvers.json)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "bench-fresh.json"),
        help="where the fresh re-measured ledger is written (CI artifact)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=record_bench.DEFAULT_REPEATS,
        help="(kernel, seed) pairs per twin cell, capped per scale",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional speedup loss before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    return check(args.ledger, args.out, args.repeats, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
