"""Benchmark of the USEP planning program, run from the repository root.

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload, untraced
    python3 perfbench/run.py --workload all --trace 1    # every workload, traced
    python3 perfbench/run.py --workload partition --runs 10   # steadiness check

Each workload is a closed loop with one client and no think time.  The
benchmark makes every input from ``--seed`` (outside timed intervals
and outside ``setup_s``), times ops until ``--seconds`` of op time and
the workload's op floor are both reached, and gates every op for
correctness outside the timed interval.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics untraced, the per-layer metrics
traced.  A failed gate makes the exit code 1; a run that cannot start
(no program source beside the benchmark) exits 2 without a result.

The in-process workloads replay a fixed set of inputs in rounds, at
least ``MIN_ROUNDS`` times, and an input's latency is its mean over
its replays: the machine's speed changes by up to about 2x, in spells
from under a second to minutes, and replays spread over the run
average those spells for every input alike.  Every replay is gated,
and must repeat the plan of the input's first replay byte for byte.
``serve_mixed`` mutates the fleet's state every round, so it is a
stream of fresh rounds instead.

A traced run alternates untraced and traced ops (for a replayed set,
by input and round), so the tracing overhead (traced minus untraced
median) is measured on one stretch of machine time.  Spans are kept in
memory and written to ``.bench_run/trace-<workload>-s<seed>.json``
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402

WORKLOADS = ("cold_plan", "serve_mixed", "partition")
#: Rounds every input of a replayed set runs at least.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 45

#: Layers timed by spans (in-process) or split from replies (service),
#: reported as the median per-op self time and the share of op time.
TIME_LAYERS = (
    "io.decode",
    "io.encode",
    "core.arrays.build",
    "core.build_cache.fingerprint",
    "core.candidates.index",
    "algorithms.decomposed.solve",
    "algorithms.ratio_greedy.augment",
    "verify.oracle.verify",
    "core.partition.cut",
    "algorithms.partitioned.cells",
    "core.partition.reconcile",
    "service.mutate",
    "service.resolve",
    "service.inline",
    "service.front",
    "service.executor.overhead",
    "service.worker.solve",
    "service.transport",
)
#: Ratio metrics: (numerator counter, denominator counters), summed
#: over the traced ops before dividing.
RATIOS = {
    "core.candidates.pruned_frac": (
        "candidates_pruned_lemma1", ("candidates_pruned_lemma1", "candidates_surviving"),
    ),
    "core.candidates.memo_hit_frac": (
        "sched_cache_hits", ("sched_cache_hits", "sched_cache_misses"),
    ),
    "algorithms.dp_batch.batched_frac": (
        "dp_batch_users", ("dp_batch_users", "dp_batch_scalar_users"),
    ),
    "core.partition.replicated_frac": ("replicated_users", ("attached_users",)),
    "core.build_cache.hit_frac": ("build_cache_hits", ("build_cache_lookups",)),
}
#: Count metrics: median per traced op of one counter.
COUNTS = {
    "algorithms.dp_single.states": "dp_states_expanded",
    "core.deltas.dirty_users": "dirty_users",
    "core.partition.boundary_conflicts": "boundary_conflicts",
}


def make_workload(name: str, seed: int):
    if name == "serve_mixed":
        from serve import ServeMixed

        return ServeMixed(ROOT, seed)
    from local import ColdPlan, Partition

    return {"cold_plan": ColdPlan, "partition": Partition}[name](ROOT, seed)


def benchmark_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child(args: List[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run this script in a fresh process.  On timeout it gets SIGTERM
    first, so a set-up probe can still drain the fleet it booted."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        err += f"\ntimed out after {timeout} s"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def last_json(text: str):
    lines = [line for line in text.strip().splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> int:
    """One set-up in this fresh process; prints its seconds."""
    workload = make_workload(name, seed)
    workload.generate()
    start = time.perf_counter()
    try:
        workload.setup()
        seconds = time.perf_counter() - start
    finally:
        problems = workload.close()
    print(json.dumps({"setup_s": seconds, "problems": problems}))
    return 0


class Loop:
    """Everything one timed loop records; latencies by input."""

    def __init__(self) -> None:
        self.untraced: Dict[int, List[float]] = {}
        self.traced: Dict[int, List[float]] = {}
        self.outputs: Dict[int, bytes] = {}
        self.attempted = self.failed = 0
        self.ops = self.rounds = 0
        self.omega = self.bound = 0.0
        self.notes: List[str] = []
        self.layer_rows: Dict[int, Dict[str, float]] = {}
        self.count_rows: Dict[int, Dict[str, float]] = {}
        self.busy = 0.0


def timed_loop(workload, seconds: float, tracer, after_round=None) -> Loop:
    """Time ops until ``seconds`` of op time and the op floor; a replayed
    set calls ``after_round()`` (untimed) at the end of every round."""
    loop = Loop()
    size = workload.inputs
    floor = MIN_ROUNDS * size if size else workload.min_ops
    prepared = {}
    i = 0
    # Past the op floor, a run that has already failed stops early.
    while (loop.busy < seconds and not loop.failed) or i < floor:
        rnd, j = divmod(i, size) if size else (0, i)
        if j not in prepared:
            prepared[j] = workload.prepare(j)
        inp = prepared[j] if size else prepared.pop(j)
        arg = workload.stage(inp)
        traced = tracer is not None and (j + rnd) % 2 == 1
        if traced:
            tracer.op = i
            tracer.mark(TIME_LAYERS)
        error = None
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    result = workload.run_op(arg, tracer)
            else:
                result = workload.run_op(arg, None)
        except Exception:  # a failed op is counted, and the loop goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        arg = None
        loop.busy += elapsed
        if error is not None:
            loop.attempted += workload.requests_per_op
            loop.failed += workload.requests_per_op
            loop.notes.append(f"op {i} raised:\n{error}")
            i += 1
            continue
        (loop.traced if traced else loop.untraced).setdefault(j, []).append(elapsed)
        check = workload.check(j, inp, result)
        if check.output is not None:
            first = loop.outputs.setdefault(j, check.output)
            if check.output != first:
                check.fail("replay differs from the input's first plan")
        loop.attempted += check.attempted
        loop.failed += check.failed
        loop.notes.extend(f"op {i}: {note}" for note in check.notes)
        if rnd == 0 and j < (size or workload.min_ops):
            loop.omega += check.omega
            loop.bound += check.bound
        if traced:
            loop.count_rows[i] = workload.counts(result)
            if hasattr(workload, "layer_seconds"):
                loop.layer_rows[i] = workload.layer_seconds(result)
        # Drop this op's outputs here: otherwise they stay alive (in peak
        # RSS) through the next op and are freed inside its timing.
        result = None
        i += 1
        if size and j == size - 1 and after_round is not None:
            after_round()
    loop.ops = i
    loop.rounds = math.ceil(i / size) if size else 1
    return loop


def per_input(latencies: Dict[int, List[float]]) -> List[float]:
    """Each input's mean latency over its replays."""
    return [sum(values) / len(values) for values in latencies.values()]


def end_to_end(loop: Loop, setups: List[float], rss: float) -> Dict[str, Dict]:
    lat = per_input(loop.untraced) or [0.0]
    _, tail_value, _ = measure.tail(lat)
    return {
        "setup_s": {"value": measure.median(setups), "unit": "s"},
        "p50_s": {"value": measure.median(lat), "unit": "s"},
        "tail_s": {"value": tail_value, "unit": "s"},
        "throughput": {"value": len(lat) / sum(lat) if sum(lat) else 0.0, "unit": "1/s"},
        "utility_ratio": {
            "value": loop.omega / loop.bound if loop.bound else 0.0, "unit": "ratio",
        },
        "ok_frac": {
            "value": (loop.attempted - loop.failed) / max(loop.attempted, 1),
            "unit": "ratio",
        },
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(loop: Loop, tracer, workload, run_counts: Dict[str, float]):
    """Per-layer metrics, and the layers that did no work on this workload."""
    by_op = measure.op_rows(tracer.spans)
    for op, split in loop.layer_rows.items():
        by_op[op].update(split)
    rows = list(by_op.values())
    total = sum(row["op"] for row in rows) or 1.0
    # Work inside an op: spans below its root, or a reply-derived split.
    present = {s[0] for s in tracer.spans if s[3] is not None}
    present.update(key for split in loop.layer_rows.values() for key in split)
    metrics: Dict[str, Dict] = {}
    absent = set()
    for layer in TIME_LAYERS:
        values = [row.get(layer, 0.0) for row in rows]
        if layer not in present:
            absent.add(layer)
        metrics[f"{layer}_s"] = {"value": measure.median(values), "unit": "s"}
        metrics[f"{layer}_share"] = {"value": sum(values) / total, "unit": "ratio"}
    count_rows = list(loop.count_rows.values())
    counts = count_rows + [run_counts]
    for name, (numerator, denominator) in RATIOS.items():
        num = sum(row.get(numerator, 0) for row in counts)
        den = sum(row.get(key, 0) for row in counts for key in denominator)
        if not any(numerator in row for row in counts):
            absent.add(name)
        metrics[name] = {"value": num / den if den else 0.0, "unit": "ratio"}
    for name, key in COUNTS.items():
        values = [row[key] for row in count_rows if key in row]
        if not values:
            absent.add(name)
        metrics[name] = {"value": measure.median(values), "unit": "count"}
    # The share of op time the layers account for: all but the root
    # span's own time in-process; the three requests of a round in the
    # service.
    covering = getattr(workload, "covering", None)
    if covering:
        inside = sum(row.get(layer, 0.0) for row in rows for layer in covering)
    else:
        inside = total - sum(row["op.self"] for row in rows)
    metrics["trace.coverage"] = {"value": inside / total, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": measure.median(per_input(loop.traced))
        - measure.median(per_input(loop.untraced)),
        "unit": "s",
    }
    return metrics, absent


def fresh_setup(name: str, seed: int, setups: List[float], problems: List[str]) -> None:
    """One set-up in a fresh process; its seconds go to ``setups``."""
    done = child(["--setup-probe", "--workload", name, "--seed", str(seed)],
                 timeout=SETUP_TIMEOUT_S)
    sample = last_json(done.stdout) if done.returncode == 0 else None
    if sample is None:
        problems.append(f"set-up probe failed: {done.stderr[-2000:]}")
        return
    setups.append(sample["setup_s"])
    problems.extend(sample["problems"])


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = make_workload(name, seed)
    workload.generate()
    if hasattr(workload, "attach_twins"):
        workload.attach_twins()
    tracer = measure.Tracer() if trace else None
    problems: List[str] = []
    setups: List[float] = []
    # The fresh-process set-ups of an untraced run: one after each round
    # of a replayed set, so the samples spread over the run instead of
    # falling in one speed spell; the rest after the run.
    pending = iter(range(0 if trace else workload.setup_samples - 1))

    def after_round() -> None:
        if next(pending, None) is not None:
            fresh_setup(name, seed, setups, problems)

    try:
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        probe_before = measure.speed_probe()
        counts_before = workload.run_counts()
        loop = timed_loop(workload, seconds, tracer, after_round)
        probe_after = measure.speed_probe()
        counts_after = workload.run_counts()
        rss = workload.peak_rss_mb()
    finally:
        problems.extend(workload.close())
    for _ in pending:
        fresh_setup(name, seed, setups, problems)
    run_counts = {
        key: counts_after[key] - counts_before.get(key, 0) for key in counts_after
    }
    n = len(loop.untraced)
    pct, _, beyond = measure.tail(per_input(loop.untraced) or [0.0])
    kind = "inputs' mean untraced replays" if workload.inputs else "untraced rounds"
    print(f"workload {name}  seed {seed}  ops {loop.ops}  rounds {loop.rounds}"
          f"  attempted {loop.attempted}  op time {loop.busy:.2f} s"
          f"  tail_s = p{pct:.4g} of {n} {kind} ({beyond} beyond)")
    print(f"speed probe ms: before {probe_before:.3f} after {probe_after:.3f}")
    print(f"set-up samples s: {' '.join(f'{v:.4f}' for v in setups)}")
    for note in (loop.notes + problems)[:20]:
        print(f"GATE FAILED: {note}")
    if trace:
        metrics, absent = per_layer(loop, tracer, workload, run_counts)
        for key, entry in metrics.items():
            layer = key.rsplit("_", 1)[0]
            mark = "  (absent: no work on this workload)" if (
                key in absent or layer in absent
            ) else ""
            print(f"  {key:44s} {entry['value']:.6g} {entry['unit']}{mark}")
        out = ROOT / ".bench_run"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{name}-s{seed}.json", "w") as handle:
            json.dump({"spans": tracer.records(), "layer_rows": loop.layer_rows}, handle)
    else:
        metrics = end_to_end(loop, setups, rss)
        for key, entry in metrics.items():
            print(f"  {key:16s} {entry['value']:.6g} {entry['unit']}")
    correct = loop.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed or int(bool(problems)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# several runs
# ----------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; non-zero if any gate failed."""
    status = 0
    for name in WORKLOADS:
        done = child(["--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))])
        sys.stdout.write(done.stdout)
        result = last_json(done.stdout)
        if done.returncode != 0 or result is None or not result["correct"]:
            sys.stdout.write(done.stderr[-4000:])
            status = 1
    return status


def steadiness(name: str, first_seed: int, runs: int, seconds: float) -> int:
    """Run one workload ``runs`` times on consecutive seeds and print each
    end-to-end metric's quartiles and spread against its bound, with the
    machine-speed probe taken around every run."""
    bounds = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    values: Dict[str, List[float]] = {key: [] for key in bounds}
    status = 0
    for r in range(runs):
        seed = first_seed + r
        done = child(["--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"])
        result = last_json(done.stdout)
        lines = done.stdout.splitlines()
        probe = next((line for line in lines if line.startswith("speed probe")),
                     "speed probe ms: ?")
        rounds = next((line.split("rounds ")[1].split()[0] for line in lines
                       if line.startswith("workload ")), "?")
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"run {r} seed {seed}: FAILED\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
            status = 1
            continue
        for key in values:
            values[key].append(result["metrics"][key]["value"])
        summary = " ".join(
            f"{key}={result['metrics'][key]['value']:.5g}" for key in values
        )
        print(f"run {r} seed {seed}: {summary} | rounds {rounds} | {probe}", flush=True)
    if status or runs < 2:
        return status
    # spread = (q3 - q1) / median; range = (max - min) / median.
    print(f"{'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
          f" {'spread':>7s} {'bound':>6s} {'/bound':>7s} {'min':>10s} {'max':>10s}"
          f" {'range':>7s}")
    for key, series in values.items():
        q1, med, q3, spread = measure.quartile_spread(series)
        bound = bounds[key]["bound"]
        span = (max(series) - min(series)) / med if med else 0.0
        print(f"{key:14s} {bounds[key]['unit']:6s} {med:10.5g} {q1:10.5g} {q3:10.5g}"
              f" {spread:7.3f} {bound:6.3f} {spread / bound:7.2f}"
              f" {min(series):10.5g} {max(series):10.5g} {span:7.3f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=0,
                        help="steadiness mode: this many runs on consecutive seeds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.setup_probe:
        # SIGTERM unwinds through the probe's teardown.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
        return setup_probe(args.workload, args.seed)
    if args.runs:
        return steadiness(args.workload, args.seed, args.runs, seconds)
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
