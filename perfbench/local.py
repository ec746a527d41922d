"""The in-process workloads: ``cold_plan`` and ``partition``.

Each workload is a closed loop with one client over a fixed set of
:attr:`InProcess.inputs` inputs, generated from the seed outside any
timed interval.  The runner replays the set in rounds: before every
op :meth:`stage` builds whatever the op must not find warm (untimed),
then :meth:`run_op` is timed and the correctness gates run outside the
timed interval.  Nothing the program caches outlives an op's instance,
so every replay of an input does the same cold work.

An untraced op calls only the top-level public path; a traced op also
calls the lazily built layers explicitly, in the order ``solve`` would,
and wraps the functions other layers reach through
(``augment.greedy_augment``, ``partitioned.partition_instance``,
``solve_subinstance`` and ``reconcile``) so each gets its own span.
"""

from __future__ import annotations

import importlib
import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import inputs
from measure import Tracer, patched, self_peak_rss_mb, span

SOLVER = "DeDPO+RG"


@dataclass
class Check:
    """Gate outcome of one op: requests attempted and failed, the op's
    plan utility with its capacity bound (for ``utility_ratio``) and the
    plan's bytes, which every replay of the input must repeat."""

    attempted: int = 1
    failed: int = 0
    omega: float = 0.0
    bound: float = 0.0
    notes: List[str] = field(default_factory=list)
    output: Optional[bytes] = None

    def fail(self, note: str) -> None:
        self.failed = self.attempted
        self.notes.append(note)


def independent_check(
    check: Check, schedules: Dict[int, List[int]], mu: np.ndarray,
    capacities: np.ndarray, reported: float, bound: float,
) -> float:
    """Checks made with the benchmark's own copy of the input: ids in
    range, no repeated event, capacities held, and the reported utility
    equal to the sum of ``mu`` over the arranged pairs.  Returns that sum."""
    num_events, num_users = mu.shape
    seats = np.zeros(num_events, dtype=int)
    omega = 0.0
    for user_id, event_ids in schedules.items():
        if not 0 <= user_id < num_users or len(set(event_ids)) != len(event_ids):
            check.fail(f"bad schedule for user {user_id}")
            return 0.0
        for event_id in event_ids:
            if not 0 <= event_id < num_events:
                check.fail(f"bad event id {event_id}")
                return 0.0
            seats[event_id] += 1
            omega += mu[event_id, user_id]
    if (seats > capacities).any():
        check.fail("capacity exceeded")
    if abs(omega - reported) > 1e-6 * max(1.0, abs(omega)):
        check.fail(f"reported utility {reported} != recomputed {omega}")
    if omega > bound + 1e-9:
        check.fail(f"utility {omega} above the capacity bound {bound}")
    return omega


def load_program(root: Path):
    """Import the program from ``<root>/src`` and refuse any other copy."""
    import repro

    origin = Path(repro.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not {root / 'src'}")
    return repro


def optional_module(name: str):
    """A program module, or None when a later change removed it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class InProcess:
    """Shared plumbing of the workloads that run inside this process."""

    name = ""
    #: Size of the replayed input set: the tail percentile and
    #: ``utility_ratio`` are taken over it.  Small, so that every input
    #: is replayed about ten times in a run.
    inputs = 24
    requests_per_op = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.  The first
    #: is the run's own, the others run in fresh processes between
    #: rounds.  A set-up here takes under a second, short enough for the
    #: box's speed to move one sample by up to 2x, so there are nine.
    setup_samples = 9

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def import_program(self) -> None:
        load_program(self.root)
        self.io = importlib.import_module("repro.io")
        self.registry = importlib.import_module("repro.algorithms.registry")
        self.oracle = importlib.import_module("repro.verify.oracle")
        self.instrument = optional_module("repro.core.instrument")
        self.build_cache = optional_module("repro.core.build_cache")
        self.augment = optional_module("repro.algorithms.augment")

    def stage(self, inp):
        """The op's argument, built untimed before every replay."""
        return inp

    def profiled(self, stack: ExitStack, tracer: Optional[Tracer]):
        """Counter set for a traced op (None when untraced or removed)."""
        if tracer is None or self.instrument is None:
            return None
        return stack.enter_context(self.instrument.profiled())

    def solve(self, instance, tracer: Optional[Tracer]):
        """``make_solver(DeDPO+RG).solve``; traced, the lazily built
        layers are called first and +RG gets its own span."""
        solver = self.registry.make_solver(SOLVER)
        if tracer is None:
            return solver.solve(instance)
        with tracer.span("core.arrays.build"):
            arrays = instance.arrays() if hasattr(instance, "arrays") else None
        if arrays is not None and hasattr(arrays, "engine"):
            with tracer.span("core.candidates.index"):
                getattr(arrays.engine(), "index", None)
        fingerprint = getattr(self.build_cache, "instance_fingerprint", None)
        if fingerprint is not None:
            with tracer.span("core.build_cache.fingerprint"):
                fingerprint(instance)
        with ExitStack() as stack:
            if self.augment is not None:
                stack.enter_context(patched(
                    self.augment, "greedy_augment",
                    lambda fn: tracer.wrapped("algorithms.ratio_greedy.augment", fn),
                ))
            with tracer.span("algorithms.decomposed.solve"):
                return solver.solve(instance)

    def verify(self, instance, planning, tracer: Optional[Tracer]):
        with span(tracer, "verify.oracle.verify"):
            return self.oracle.verify_schedules(
                instance, planning.as_dict(), reported_utility=planning.total_utility()
            )

    def counts(self, result) -> Dict[str, float]:
        """Traced counters of one op (``run_op`` returns them third)."""
        return result[2]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def run_counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> List[str]:
        return []


class ColdPlan(InProcess):
    """Decode a fresh JSON instance, solve, verify, encode the plan."""

    name = "cold_plan"
    EVENTS, USERS, CAPACITY = 40, 400, 12

    def generate(self) -> None:
        self.warmup = self.prepare(-1)

    def prepare(self, i: int):
        drawn = inputs.uniform_instance(
            self.seed, i + 1, self.EVENTS, self.USERS, self.CAPACITY
        )
        return drawn, json.dumps(drawn.to_wire())

    def setup(self) -> None:
        self.import_program()
        self.run_op(self.warmup, None)

    def run_op(self, inp, tracer: Optional[Tracer]):
        _, blob = inp
        io = self.io
        with ExitStack() as stack:
            counters = self.profiled(stack, tracer)
            with span(tracer, "io.decode"):
                instance = io.instance_from_dict(json.loads(blob))
            planning = self.solve(instance, tracer)
            report = self.verify(instance, planning, tracer)
            with span(tracer, "io.encode"):
                out = json.dumps(io.planning_to_dict(planning))
        return report.ok, out, dict(counters or {})

    def check(self, i: int, inp, result) -> Check:
        drawn, _ = inp
        ok, out, _ = result
        check = Check(bound=drawn.bound())
        if not ok:
            check.fail("oracle rejected the plan")
        decoded = json.loads(out)
        schedules = {int(u): evs for u, evs in decoded["schedules"].items()}
        check.omega = independent_check(
            check, schedules, drawn.mu, drawn.capacities,
            decoded["total_utility"], check.bound,
        )
        check.output = out.encode()
        return check


class Partition(InProcess):
    """Grid-partitioned solve of a fresh clustered instance, verified."""

    name = "partition"
    EVENTS, USERS, CAPACITY, CELLS = 40, 1500, 30, 4

    def generate(self) -> None:
        self.warmup = self.prepare(-1)

    def setup(self) -> None:
        self.import_program()
        self.core = importlib.import_module("repro.core")
        self.partitioned = importlib.import_module("repro.algorithms.partitioned")
        self.run_op(self.stage(self.warmup), None)

    def stage(self, drawn: inputs.Drawn):
        """A fresh instance object, built with the program's constructors
        (decode is measured in ``cold_plan`` only): the partitioned solve
        fills caches on the instance it is given."""
        core = self.core
        events = [
            core.Event(
                id=i, location=(int(x), int(y)), capacity=int(cap),
                interval=core.TimeInterval(start, end),
            )
            for i, ((x, y), cap, (start, end)) in enumerate(
                zip(drawn.event_locs, drawn.capacities, drawn.intervals)
            )
        ]
        users = [
            core.User(id=u, location=(int(x), int(y)), budget=float(b))
            for u, ((x, y), b) in enumerate(zip(drawn.user_locs, drawn.budgets))
        ]
        model = core.GridCostModel(metric="manhattan", speed=None, integral=True)
        return core.USEPInstance(events, users, model, drawn.mu.copy(), name=drawn.name)

    def prepare(self, i: int) -> inputs.Drawn:
        return inputs.clustered_instance(
            self.seed, i + 1, self.EVENTS, self.USERS, self.CAPACITY
        )

    def run_op(self, instance, tracer: Optional[Tracer]):
        partitioned = self.partitioned
        with ExitStack() as stack:
            counters = self.profiled(stack, tracer)
            if tracer is not None:
                for attr, span in (
                    ("partition_instance", "core.partition.cut"),
                    ("solve_subinstance", "algorithms.partitioned.cells"),
                    ("reconcile", "core.partition.reconcile"),
                ):
                    stack.enter_context(patched(
                        partitioned, attr,
                        lambda fn, span=span: tracer.wrapped(span, fn),
                    ))
            result = partitioned.solve_partitioned(instance, cells=self.CELLS)
            report = self.verify(instance, result.planning, tracer)
        return report.ok, result.planning, dict(counters or {}), result

    def counts(self, result) -> Dict[str, float]:
        counts = result[2]
        described = result[3].partition.describe()
        counts["replicated_users"] = described.get("replicated_users", 0)
        counts["attached_users"] = described.get("attached_users", 0)
        counts["boundary_conflicts"] = result[3].reconcile_stats.get(
            "boundary_conflicts", 0
        )
        return counts

    def check(self, i: int, drawn, result) -> Check:
        ok, planning = result[:2]
        check = Check(bound=drawn.bound())
        if not ok:
            check.fail("oracle rejected the plan")
        check.omega = independent_check(
            check, planning.as_dict(), drawn.mu, drawn.capacities,
            planning.total_utility(), check.bound,
        )
        check.output = self.io.canonical_planning_bytes(planning)
        return check
