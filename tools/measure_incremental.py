"""EX-INC: measure the incremental scheduling engine's reuse rates.

Quantifies, at the mid-range sweep point (|V|=60, |U|=600 — the same
point as EX-SVC), the two reuse layers of ``docs/performance.md``:

1. **Candidate index** — what fraction of positive-utility (event,
   user) pairs Lemma 1 prunes before any scheduler call sees them;
2. **Dirty-set memo** — schedule-memo hit rate over a repeated-solve
   workload (re-solves on a warm instance: +RG re-running its base,
   verification passes, bench repeats), plus cold vs warm solve times.

Usage::

    PYTHONPATH=src python tools/measure_incremental.py \
        [--events 60] [--users 600] [--seed 8] [--resolves 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

SOLVERS = ("DeDPO", "DeGreedy", "DeDPO+RG")


def _build(events: int, users: int, seed: int):
    from repro.datagen.synthetic import SyntheticConfig, generate_instance

    return generate_instance(
        SyntheticConfig(num_events=events, num_users=users, seed=seed)
    )


def measure_index(instance) -> Dict[str, object]:
    from repro.core.candidates import get_engine

    start = time.perf_counter()
    index = get_engine(instance).index
    build_s = time.perf_counter() - start
    assert index is not None
    return {
        "positive_pairs": index.positive_pairs,
        "pruned_pairs": index.pruned_pairs,
        "survivor_pairs": index.survivor_pairs,
        "prune_rate": round(index.pruned_pairs / max(index.positive_pairs, 1), 4),
        "build_s": round(build_s, 4),
    }


def measure_memo(instance, resolves: int) -> List[Dict[str, object]]:
    """Hit rate + cold/warm times of a repeated-solve workload."""
    from repro.algorithms.registry import make_solver
    from repro.core.candidates import get_engine

    rows = []
    for name in SOLVERS:
        engine = get_engine(instance)
        hits0, misses0 = engine.memo.hits, engine.memo.misses
        times = []
        utility = None
        for _ in range(resolves):
            solver = make_solver(name)
            start = time.perf_counter()
            planning = solver.solve(instance)
            times.append(time.perf_counter() - start)
            u = planning.total_utility()
            assert utility is None or u == utility, "re-solve changed the planning"
            utility = u
        hits = engine.memo.hits - hits0
        misses = engine.memo.misses - misses0
        rows.append(
            {
                "solver": name,
                "resolves": resolves,
                "memo_hits": hits,
                "memo_misses": misses,
                "hit_rate": round(hits / max(hits + misses, 1), 4),
                "cold_s": round(times[0], 4),
                "warm_s": round(min(times[1:]), 4),
                "warm_speedup": round(times[0] / max(min(times[1:]), 1e-9), 2),
            }
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=60)
    parser.add_argument("--users", type=int, default=600)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--resolves", type=int, default=5)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)

    instance = _build(args.events, args.users, args.seed)
    report = {
        "point": {"events": args.events, "users": args.users, "seed": args.seed},
        "candidate_index": measure_index(instance),
        "schedule_memo": measure_memo(instance, args.resolves),
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    idx = report["candidate_index"]
    print(f"EX-INC @ |V|={args.events}, |U|={args.users}, seed {args.seed}\n")
    print(
        f"candidate index: {idx['pruned_pairs']}/{idx['positive_pairs']} "
        f"positive pairs pruned by Lemma 1 ({idx['prune_rate']:.1%}); "
        f"built in {idx['build_s'] * 1000:.1f} ms"
    )
    print(f"\nschedule memo ({args.resolves} solves on one warm instance):")
    print(f"{'solver':12s} {'hit rate':>8s} {'cold':>9s} {'warm':>9s} {'speedup':>8s}")
    for row in report["schedule_memo"]:
        print(
            f"{row['solver']:12s} {row['hit_rate']:8.1%} "
            f"{row['cold_s'] * 1000:7.1f}ms {row['warm_s'] * 1000:7.1f}ms "
            f"{row['warm_speedup']:7.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
