"""Record the kernel speedup ledger: BENCH_solvers.json.

Pairs each array-kernel solver with its ``*-seed`` reference twin on the
same synthetic instances the solver benchmarks use, and records

* cold wall time per solver, tracemalloc OFF: every timed solve runs on
  a freshly generated instance whose arrays are built outside the timer,
  so the incremental engine starts empty, as in a process that never
  solved it.  The twins run as interleaved (kernel, seed) pairs, the
  side going first alternating pair to pair, so both sides see the same
  spells of host speed; ``wall_time_s`` is each side's median and
  ``speedup`` the median of the per-pair ratios;
* a labelled, unguarded ``warm_wall_s`` on the kernel side: the median
  of memo-warm repeats on one instance (the delta re-solve's best case);
* peak traced memory and the engine's profile counters from one more
  cold run, with tracemalloc on;
* the utility of both twins, asserted identical — a speedup over a
  different planning would be meaningless;
* the independent-oracle verdict per cell (``repro.verify``): a ledger
  entry for an infeasible planning would be equally meaningless, so an
  oracle violation aborts the recording.

Run directly (``PYTHONPATH=src python benchmarks/record_bench.py``),
which writes ``BENCH_solvers.json`` at the repo root unless ``--out``
says otherwise.  Top-level blocks a run does not measure (``churn`` and
``partition`` under ``--no-churn``/``--no-partition``, and the
``serving_*`` blocks of ``tools/measure_serving.py``) carry over from
the ledger already at the output path.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_solvers.json")

#: (array-kernel solver, seed reference) twins — identical plannings.
SOLVER_PAIRS = (
    ("DeDP", "DeDP-seed"),
    ("DeDPO", "DeDPO-seed"),
    ("DeGreedy", "DeGreedy-seed"),
)

#: Synthetic dimensions per scale (tiny/small mirror test_bench_solvers).
SCALE_DIMS = {
    "tiny": dict(num_events=16, num_users=60, mean_capacity=5, grid_size=40),
    "small": dict(num_events=40, num_users=300, mean_capacity=12, grid_size=60),
    "large": dict(num_events=120, num_users=2000, mean_capacity=30, grid_size=100),
}

#: Per-scale cap on the (kernel, seed) pairs per twin cell.  On a
#: 2-vCPU VM the median ratio of 15 pairs spread up to 17% over three
#: recordings (small DeDPO: 1.57-1.87x) and of 25 pairs at most 10%
#: (1.64-1.80x), so tiny and small take the full ``--repeats``.  The
#: seed twins take 1-8 s per cold solve at ``large``, which stops at 3.
SCALE_REPEAT_CAPS = {"large": 3}

#: Pairs per twin cell when the caller names no count.
DEFAULT_REPEATS = 25

#: The churn scale (docs/dynamic.md): |U| = 10k users, 1% churn as a
#: stream of user-level mutations (preference drift, budget updates,
#: joins, departures), delta re-solved after every mutation and
#: byte-compared against sampled from-scratch solves.  Event-level
#: mutations (capacity changes) are measured by EXPERIMENTS.md EX-DYN
#: but excluded from this mix: shifting one pool's saturation point
#: perturbs every later user's decomposed view, so their delta cost
#: approaches a cold solve by construction.
CHURN_DIMS = dict(num_events=120, num_users=10_000, mean_capacity=150, grid_size=100)
CHURN_ALGORITHM = "DeDPO"
CHURN_SEED = 11
#: 1% of |U| — one mutation per churned user.
CHURN_MUTATIONS = 100
#: Every Nth step also runs a cold from-scratch solve on a JSON
#: round-tripped twin and asserts canonical byte identity.
CHURN_COLD_SAMPLE_EVERY = 20
#: User-level mutation mix (cumulative thresholds over a uniform draw).
CHURN_MIX = (
    ("utility_change", 0.65),
    ("budget_change", 0.80),
    ("add_user", 0.90),
    ("drop_user", 1.00),
)

#: The huge partition scale (docs/partitioning.md): one clustered
#: instance far above anything the per-scale rows measure, cut into
#: grid cells and solved cell-by-cell.  Clustered geography (defaults:
#: 4 districts, distance-decayed utilities) is the workload the
#: partitioner exists for — uniform synthetics give every cut nothing
#: to exploit.
PARTITION_DIMS = dict(num_events=300, num_users=50_000)
PARTITION_ALGORITHM = "DeDPO"
PARTITION_CELLS = 4
PARTITION_SEED = 42
#: Interleaved best-of-N on both sides: this box's wall clock is noisy
#: enough that a monolithic solve swings 2x between runs, but
#: alternating the sides puts both through the same weather.
PARTITION_REPEATS = 2
#: The partition layer's quality contract (docs/partitioning.md): the
#: merged plan must keep at least this fraction of the monolithic
#: utility, or the block is not worth recording.
PARTITION_UTILITY_FLOOR = 0.95


def _build_instance(scale: str):
    from repro.datagen.synthetic import SyntheticConfig, generate_instance

    return generate_instance(SyntheticConfig(seed=42, **SCALE_DIMS[scale]))


#: Deadline of the supervised verification pass per cell; generous —
#: it only needs to catch pathologically hung solvers, not race them.
SUPERVISED_TIMEOUT_S = 300.0


def _fresh_instance(scale: str):
    """A newly generated instance, arrays built, incremental engine empty."""
    from repro.algorithms.base import warm_instance

    instance = _build_instance(scale)
    warm_instance(instance)
    return instance


def _cold_solve(name: str, scale: str):
    """``(seconds, utility, instance)`` of one solve on a fresh instance.

    The garbage of building the instance is collected before the clock
    starts, so neither side pays for it.
    """
    from repro.algorithms.registry import make_solver

    instance = _fresh_instance(scale)
    solver = make_solver(name)
    gc.collect()
    start = time.perf_counter()
    planning = solver.solve(instance)
    elapsed = time.perf_counter() - start
    return elapsed, round(float(planning.total_utility()), 6), instance


def _side_row(
    name: str, scale: str, times: List[float], utility: float, instance
) -> Dict[str, object]:
    """One side of a twin cell: cold median, memory, verdict, counters.

    Timing runs stay *direct* (no fork, no supervision) so the ledger
    measures the solver, not the service layer; a separate supervised
    pass through :class:`repro.service.ResilientRunner` on the last
    timed instance then produces the oracle verdict plus the robustness
    bookkeeping fields (``status``/``degraded_to``/``retries``/
    ``resumed``).  A cell whose supervised pass degrades or fails aborts
    the recording — a ledger entry must describe the named solver on a
    verified plan.  Peak memory and the ``profile`` counters come from
    one more cold run on a fresh instance (seed twins never touch the
    engine, so they report at most their own call counts).
    """
    from repro.algorithms.registry import make_solver
    from repro.core import instrument
    from repro.service import ResilientRunner, ServiceConfig

    runner = ResilientRunner(ServiceConfig(timeout=SUPERVISED_TIMEOUT_S))
    cell = runner.run_cell(instance, name, 0)
    if cell["status"] != "ok":
        raise AssertionError(
            f"{name}: supervised verification pass ended {cell['status']!r} "
            f"({cell.get('failures') or cell.get('error')}) — refusing to "
            "record an unverified ledger entry"
        )
    if abs(cell["utility"] - utility) > 1e-6:
        raise AssertionError(
            f"{name}: supervised run utility {cell['utility']} differs from "
            f"direct run utility {utility}"
        )
    traced = make_solver(name).run(
        _fresh_instance(scale), measure_memory=True, profile=True
    )
    row = {
        "solver": name,
        "utility": utility,
        "wall_time_s": round(statistics.median(times), 6),
        "peak_mem_kb": (traced.peak_memory_bytes or 0) // 1024,
        "verified": bool(cell["verified"]),
        "oracle_violations": int(cell["oracle_violations"]),
        "status": cell["status"],
        "degraded_to": cell["degraded_to"],
        "retries": int(cell["retries"]),
        "resumed": False,
    }
    profile = {
        key: value
        for key, value in sorted(traced.counters.items())
        if instrument.is_profile_key(key)
    }
    if profile:
        row["profile"] = profile
    return row


def _warm_wall(name: str, instance, repeats: int) -> float:
    """Median of ``repeats`` memo-warm re-solves on one solved instance."""
    from repro.algorithms.registry import make_solver

    times = []
    for _ in range(repeats):
        solver = make_solver(name)
        start = time.perf_counter()
        solver.solve(instance)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 6)


def _measure_twins(kernel: str, seed: str, scale: str, pairs: int):
    """One ledger row: ``pairs`` interleaved cold (kernel, seed) solves."""
    times: Dict[str, List[float]] = {kernel: [], seed: []}
    last: Dict[str, tuple] = {}
    ratios: List[float] = []
    for index in range(pairs):
        for name in (kernel, seed) if index % 2 == 0 else (seed, kernel):
            elapsed, utility, instance = _cold_solve(name, scale)
            times[name].append(elapsed)
            last[name] = (utility, instance)
        ratios.append(times[seed][-1] / times[kernel][-1])
    kernel_row = _side_row(kernel, scale, times[kernel], *last[kernel])
    kernel_row["warm_wall_s"] = _warm_wall(kernel, last[kernel][1], pairs)
    seed_row = _side_row(seed, scale, times[seed], *last[seed])
    if kernel_row["utility"] != seed_row["utility"]:
        raise AssertionError(
            f"{kernel} vs {seed} at {scale}: utilities differ "
            f"({kernel_row['utility']} != {seed_row['utility']})"
        )
    return {
        "scale": scale,
        "dims": SCALE_DIMS[scale],
        "after": kernel_row,
        "before": seed_row,
        "pairs": pairs,
        "pair_ratios": [round(ratio, 3) for ratio in ratios],
        "speedup": round(statistics.median(ratios), 3),
    }


def _churn_mutation(rng, instance):
    """One user-level mutation drawn from :data:`CHURN_MIX`."""
    from repro.core.deltas import AddUser, BudgetChange, DropUser, UtilityChange

    draw = rng.random()
    kind = next(name for name, ceiling in CHURN_MIX if draw < ceiling)
    if kind == "utility_change":
        event_id = rng.randrange(instance.num_events)
        user_id = rng.randrange(instance.num_users)
        value = 0.0 if rng.random() < 0.2 else round(rng.random(), 6)
        return UtilityChange(event_id, user_id, value)
    if kind == "budget_change":
        user_id = rng.randrange(instance.num_users)
        budget = round(instance.users[user_id].budget * rng.uniform(0.9, 1.1), 3)
        return BudgetChange(user_id, budget)
    if kind == "add_user":
        location = (round(rng.uniform(0, 100), 3), round(rng.uniform(0, 100), 3))
        utilities = [
            0.0 if rng.random() < 0.3 else round(rng.random(), 6)
            for _ in range(instance.num_events)
        ]
        return AddUser(location, round(rng.uniform(5, 40), 3), utilities)
    return DropUser(rng.randrange(instance.num_users))


def record_churn() -> Dict[str, object]:
    """Measure delta-vs-cold re-solve under 1% user churn at |U| = 10k.

    Applies :data:`CHURN_MUTATIONS` user-level mutations one at a time
    to a live instance, delta re-solving (``repro.core.deltas`` + the
    incremental engine) after each; every
    :data:`CHURN_COLD_SAMPLE_EVERY` steps the planning is additionally
    re-derived from scratch on a JSON round-tripped twin and the two
    canonical byte journals are asserted identical, so the recorded
    speedup always describes bit-equal plannings.  The reported
    ``speedup`` is mean sampled cold re-solve time over mean delta
    re-solve time (apply + solve); the CI guard
    (``tools/check_bench_regression.py``) requires it to stay >= 10x.
    """
    import random

    from repro.algorithms.base import warm_instance
    from repro.algorithms.registry import make_solver
    from repro.core.deltas import apply_mutation
    from repro.datagen.synthetic import SyntheticConfig, generate_instance
    from repro.io import (
        canonical_planning_bytes,
        instance_from_dict,
        instance_to_dict,
    )

    instance = generate_instance(SyntheticConfig(seed=42, **CHURN_DIMS))
    warm_instance(instance)
    start = time.perf_counter()
    make_solver(CHURN_ALGORITHM).solve(instance)
    warm_solve_s = time.perf_counter() - start

    rng = random.Random(CHURN_SEED)
    per_kind: Dict[str, List[float]] = {}
    delta_total = 0.0
    cold_times: List[float] = []
    for step in range(CHURN_MUTATIONS):
        mutation = _churn_mutation(rng, instance)
        start = time.perf_counter()
        apply_mutation(instance, mutation)
        delta_planning = make_solver(CHURN_ALGORITHM).solve(instance)
        elapsed = time.perf_counter() - start
        delta_total += elapsed
        per_kind.setdefault(type(mutation).__name__, []).append(elapsed)
        if step % CHURN_COLD_SAMPLE_EVERY == CHURN_COLD_SAMPLE_EVERY - 1:
            cold = instance_from_dict(instance_to_dict(instance))
            start = time.perf_counter()
            warm_instance(cold)
            cold_planning = make_solver(CHURN_ALGORITHM).solve(cold)
            cold_times.append(time.perf_counter() - start)
            if canonical_planning_bytes(delta_planning) != canonical_planning_bytes(
                cold_planning
            ):
                raise AssertionError(
                    f"churn step {step}: delta planning diverged from the "
                    "from-scratch solve — refusing to record the ledger"
                )
    delta_mean = delta_total / CHURN_MUTATIONS
    cold_mean = sum(cold_times) / len(cold_times)
    return {
        "dims": CHURN_DIMS,
        "algorithm": CHURN_ALGORITHM,
        "seed": CHURN_SEED,
        "num_mutations": CHURN_MUTATIONS,
        "churn_fraction": CHURN_MUTATIONS / CHURN_DIMS["num_users"],
        "mutation_mix": {name: ceiling for name, ceiling in CHURN_MIX},
        "warm_solve_s": round(warm_solve_s, 6),
        "delta_total_s": round(delta_total, 6),
        "delta_mean_s": round(delta_mean, 6),
        "cold_mean_s": round(cold_mean, 6),
        "cold_samples": len(cold_times),
        "per_kind_mean_s": {
            kind: round(sum(times) / len(times), 6)
            for kind, times in sorted(per_kind.items())
        },
        "speedup": round(cold_mean / delta_mean, 2),
        "bit_identical": True,
    }


def record_partition() -> Dict[str, object]:
    """Measure partitioned-vs-monolithic solve at the huge clustered scale.

    Times :func:`repro.algorithms.partitioned.solve_partitioned` (grid
    cut + per-cell solves + boundary reconciliation) against a plain
    monolithic solve of the same :data:`PARTITION_DIMS` clustered
    instance, best-of-:data:`PARTITION_REPEATS` with the two sides
    interleaved.  Every repeat regenerates the instance from the config
    and both sides are timed *cold* — no ``warm_instance`` — because
    pre-warming would move the monolithic side's array-layer build out
    of its timing while the partitioned side still pays its full
    pipeline (cut, per-cell array layers, cell solves, reconcile).
    Cold end-to-end is what a caller of either path actually
    experiences.

    The merged plan must pass the independent oracle and keep at least
    :data:`PARTITION_UTILITY_FLOOR` of the monolithic utility, or the
    recording aborts — the ledger only ever describes a cut that
    honours the partition layer's quality contract.  ``cpu_count`` is
    stamped so readers (and the CI guard) can tell an algorithmic win
    on one core from a parallel win across several.
    """
    from repro.algorithms.partitioned import solve_partitioned
    from repro.algorithms.registry import make_solver
    from repro.datagen.clustered import (
        ClusteredConfig,
        generate_clustered_instance,
    )
    from repro.verify.oracle import verify_planning

    config = ClusteredConfig(seed=PARTITION_SEED, **PARTITION_DIMS)
    mono_best = part_best = float("inf")
    mono_planning = part_result = None
    for _ in range(PARTITION_REPEATS):
        instance = generate_clustered_instance(config)
        start = time.perf_counter()
        part_result = solve_partitioned(
            instance, algorithm=PARTITION_ALGORITHM, cells=PARTITION_CELLS
        )
        part_best = min(part_best, time.perf_counter() - start)

        instance = generate_clustered_instance(config)
        start = time.perf_counter()
        mono_planning = make_solver(PARTITION_ALGORITHM).solve(instance)
        mono_best = min(mono_best, time.perf_counter() - start)

        report = verify_planning(instance, part_result.planning)
        if not report.ok:
            raise AssertionError(
                "partition block: merged plan fails the oracle "
                f"({report.summary()}) — refusing to record the ledger"
            )
    mono_utility = float(mono_planning.total_utility())
    part_utility = float(part_result.planning.total_utility())
    ratio = part_utility / mono_utility if mono_utility else 1.0
    if ratio < PARTITION_UTILITY_FLOOR:
        raise AssertionError(
            f"partition block: merged utility kept only {ratio:.4f} of the "
            f"monolithic solve (floor {PARTITION_UTILITY_FLOOR}) — refusing "
            "to record the ledger"
        )
    return {
        "dims": PARTITION_DIMS,
        "generator": "clustered",
        "algorithm": PARTITION_ALGORITHM,
        "cells": PARTITION_CELLS,
        "seed": PARTITION_SEED,
        "repeats": PARTITION_REPEATS,
        "cpu_count": os.cpu_count(),
        "monolithic_s": round(mono_best, 6),
        "partitioned_s": round(part_best, 6),
        "speedup": round(mono_best / part_best, 3),
        "monolithic_utility": round(mono_utility, 6),
        "partitioned_utility": round(part_utility, 6),
        "utility_ratio": round(ratio, 6),
        "oracle_ok": True,
        "partition": part_result.describe(),
    }


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _summarise(results: List[Dict[str, object]]) -> Dict[str, object]:
    """Per-scale geometric-mean speedup block (kernel vs seed twin)."""
    by_scale: Dict[str, List[Dict[str, object]]] = {}
    for entry in results:
        by_scale.setdefault(str(entry["scale"]), []).append(entry)
    summary: Dict[str, object] = {}
    for scale, entries in by_scale.items():
        summary[scale] = {
            "per_solver_speedup": {
                str(e["after"]["solver"]): e["speedup"] for e in entries
            },
            "geomean_speedup": round(
                _geomean([float(e["speedup"]) for e in entries]), 3
            ),
        }
    return summary


def _load_ledger(path: str) -> Dict[str, object]:
    """The ledger at ``path``, or ``{}`` when there is none to read."""
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except (OSError, ValueError):
        return {}
    return ledger if isinstance(ledger, dict) else {}


def _attach_vs_previous(
    results: List[Dict[str, object]], previous: Dict[str, object]
) -> None:
    """Compare each cell's wall time against the ledger being replaced.

    ``wall_time_ratio`` > 1 means this recording is faster than the
    previous one for the same (scale, solver).
    """
    prev_map = {
        (str(e["scale"]), str(e["after"]["solver"])): e
        for e in previous.get("results", [])
    }
    for entry in results:
        prev = prev_map.get((str(entry["scale"]), str(entry["after"]["solver"])))
        if prev is None:
            continue
        prev_time = float(prev["after"]["wall_time_s"])
        new_time = float(entry["after"]["wall_time_s"])
        if new_time > 0:
            entry["vs_previous"] = {
                "previous_wall_time_s": prev_time,
                "previous_speedup": prev.get("speedup"),
                "wall_time_ratio": round(prev_time / new_time, 3),
            }


def record(
    scales: List[str],
    repeats: int = DEFAULT_REPEATS,
    out_path: str = DEFAULT_OUT,
    churn: bool = False,
    partition: bool = False,
) -> Dict[str, object]:
    """Measure every twin at every scale and write the JSON ledger.

    ``repeats`` is the number of (kernel, seed) pairs per cell, capped
    per scale by :data:`SCALE_REPEAT_CAPS`.  With ``churn=True`` the
    payload also gains the ``churn`` block of :func:`record_churn`, and
    with ``partition=True`` the ``partition`` block of
    :func:`record_partition` (each several minutes of extra
    measurement; the CI perf guard turns both on).  Every other
    top-level block of the ledger already at ``out_path`` carries over
    unchanged.
    """
    results: List[Dict[str, object]] = []
    for scale in scales:
        pairs = min(repeats, SCALE_REPEAT_CAPS.get(scale, repeats))
        for kernel, seed in SOLVER_PAIRS:
            results.append(_measure_twins(kernel, seed, scale, pairs))
    previous = _load_ledger(out_path)
    _attach_vs_previous(results, previous)
    payload = {
        "description": (
            "Array-kernel solvers (with the incremental scheduling engine — "
            "Lemma 1 candidate index and dirty-set schedule memo, see "
            "docs/performance.md) vs their seed reference twins, timed "
            "cold without tracemalloc: every solve runs on a freshly "
            "generated instance (arrays built outside the timer, engine "
            "empty), as interleaved (kernel, seed) pairs whose first side "
            f"alternates (up to {repeats} pairs per cell, capped per scale; "
            "'pairs' and 'pair_ratios' per row). wall_time_s is each "
            "side's median, speedup the median per-pair ratio, and the "
            "summary geomean uses it. The kernel side's 'warm_wall_s' is "
            "the median of memo-warm repeats on one solved instance; no "
            "guard reads it. Peak traced memory and 'profile' counters "
            "come from one more cold run, identical utilities are "
            "asserted, and every planning is verified by the independent "
            "repro.verify oracle via a supervised repro.service pass (per-"
            "cell status/degraded_to/retries/resumed recorded; non-ok "
            "cells abort the recording). 'vs_previous' compares against "
            "the replaced ledger."
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "summary": _summarise(results),
        "results": results,
    }
    if churn:
        payload["churn"] = record_churn()
    if partition:
        payload["partition"] = record_partition()
    for key, block in previous.items():
        payload.setdefault(key, block)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        nargs="+",
        default=["tiny", "small", "large"],
        choices=sorted(SCALE_DIMS),
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help="(kernel, seed) pairs per twin cell, capped per scale",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--no-churn",
        action="store_true",
        help="skip the 10k-user churn measurement (docs/dynamic.md)",
    )
    parser.add_argument(
        "--no-partition",
        action="store_true",
        help="skip the huge partitioned-vs-monolithic measurement "
        "(docs/partitioning.md)",
    )
    args = parser.parse_args(argv)
    payload = record(
        args.scales,
        repeats=args.repeats,
        out_path=args.out,
        churn=not args.no_churn,
        partition=not args.no_partition,
    )
    for entry in payload["results"]:
        print(
            f"[{entry['scale']:5s}] {entry['after']['solver']:9s} "
            f"{entry['after']['wall_time_s'] * 1000:8.1f} ms  vs seed "
            f"{entry['before']['wall_time_s'] * 1000:8.1f} ms  "
            f"speedup {entry['speedup']:.2f}x  "
            f"utility {entry['after']['utility']}"
        )
    churn_block = None if args.no_churn else payload["churn"]
    if churn_block:
        print(
            f"[churn] {churn_block['algorithm']} |U|={churn_block['dims']['num_users']} "
            f"{churn_block['num_mutations']} mutations: delta "
            f"{churn_block['delta_mean_s'] * 1000:.0f} ms vs cold "
            f"{churn_block['cold_mean_s'] * 1000:.0f} ms  "
            f"speedup {churn_block['speedup']:.1f}x"
        )
    partition_block = None if args.no_partition else payload["partition"]
    if partition_block:
        print(
            f"[partition] {partition_block['algorithm']}+grid"
            f"[{partition_block['cells']}] "
            f"|V|={partition_block['dims']['num_events']} "
            f"|U|={partition_block['dims']['num_users']}: "
            f"{partition_block['partitioned_s']:.1f} s vs monolithic "
            f"{partition_block['monolithic_s']:.1f} s  "
            f"speedup {partition_block['speedup']:.2f}x  "
            f"utility ratio {partition_block['utility_ratio']:.4f}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
