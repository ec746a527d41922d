"""Seeded differential fuzzing of every registry solver.

**Static mode** (the default) generates random
:class:`~repro.datagen.SyntheticConfig`\\ s across the generator's whole
distribution space (utility/capacity/budget distributions, conflict
ratios, budget factors, optional finite travel speed), runs **every**
registry algorithm on each instance and checks:

* every output passes the :mod:`~repro.verify.oracle` (all four
  Definition 2 constraints + ``Omega`` recount);
* every array-kernel solver produces a **bit-identical** planning to
  its preserved ``*-seed`` twin (same utility, same schedules);
* the array layer's user cost matrices equal one scalar cost-model
  call per pair, bit for bit — the twins read the same matrices as the
  kernels, so twin identity alone no longer checks costs;
* on instances small enough for the exact solver, the DeDP family meets
  Theorem 3's 1/2-approximation bound and the exact optimum is
  capacity-monotone.

**Churn mode** (``--churn``) fuzzes the dynamic layer instead: each
stream draws a random instance, warms a solve, then applies a seeded
random mutation stream (:mod:`repro.core.deltas`) one mutation at a
time — after every step the delta re-solve is oracle-checked *and*
bit-compared (canonical planning bytes) against a cold solve of the
mutated content decoded fresh from JSON.

**Churn-kill mode** (``--churn-kill``) is churn mode pointed at a real
fleet: each stream boots a supervised multi-worker cluster
(:class:`~repro.service.router.LocalCluster`), registers the instance
over HTTP, streams the mutations through ``/mutate`` and SIGKILLs the
owning worker at a seeded mid-stream position.  Every batch must still
be acknowledged 200 (failover + journal replay + seq dedupe), and the
recovered instance must match an offline uninterrupted twin bit for
bit — journal fingerprint, version, and an oracle-checked final solve.
**Churn-disk mode** (``--churn-disk``) arms a seeded journal disk
fault instead of the SIGKILL: every batch still 200, replies flip to
``durable: false``, ``journal_degraded`` surfaces, nobody restarts.

**Partition mode** (``--partition``) fuzzes the spatial-decomposition
layer (:mod:`repro.core.partition`) under its own quality contract —
the first layer whose answer is *allowed* to differ from the
sequential solver, so bit-compare is replaced by a floor: each
clustered-geography instance is solved monolithically and through
:func:`~repro.algorithms.partitioned.solve_partitioned` at a seeded
cell count, and the merged plan must pass the oracle with utility at
least ``--utility-floor`` (default 0.95) of the monolithic plan.  The
single-cell degenerate case *is* still held to bit-identity.  A cut
the partitioner refuses passes vacuously; the report counts those.

**One campaign loop runs all five.**  A mode only describes its cases
(:class:`_Mode`): how one is drawn from the master RNG — a config,
plus a mutation stream, a kill position, a disk fault or a cell count
— how it is checked, and how a failing one shrinks (configs greedily,
streams by delta debugging; fleet cases not at all).  The loop runs
the time box, stops at the first failing case, shrinks it and dumps
the whole case as a JSON artifact, from which :func:`replay` re-runs
the same check in the same mode.  Same seed, same cases, same verdict.

Run it directly::

    python -m repro.verify.fuzz --seed 2026 --max-instances 200
    python -m repro.verify.fuzz --time-budget 60 --out fuzz_failure.json
    python -m repro.verify.fuzz --churn --streams 20 --mutations-per-stream 30
    python -m repro.verify.fuzz --churn-kill --streams 3 --workers 2
    python -m repro.verify.fuzz --churn-disk --streams 3 --workers 2
    python -m repro.verify.fuzz --partition --max-instances 50

The process exits non-zero iff a failure was found (CI uploads the
``--out`` file as the failing-seed artifact).

The harness needs nothing beyond the stdlib and what this package
already imports, so it runs anywhere the solvers do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import Solver
from ..algorithms.registry import available_solvers, make_solver
from ..core.deltas import (
    AddEvent,
    AddUser,
    BudgetChange,
    CapacityChange,
    DropEvent,
    DropUser,
    Mutation,
    UtilityChange,
    apply_mutation,
)
from ..core.exceptions import InvalidInstanceError
from ..core.instance import USEPInstance
from ..datagen.synthetic import SyntheticConfig, generate_instance
from .certify import certify_capacity_monotonicity, certify_half_approximation
from .oracle import verify_planning

#: (array-kernel solver, seed reference) twins that must be bit-identical.
TWIN_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("DeDP", "DeDP-seed"),
    ("DeDPO", "DeDPO-seed"),
    ("DeGreedy", "DeGreedy-seed"),
)

#: Registry names the fuzz loop never runs unconditionally.  ``Exact``
#: is exponential and size-capped; it still participates through the
#: certification pass on small instances.
EXCLUDED_ALGORITHMS: Tuple[str, ...] = ("Exact",)

#: Instances at or below these dims additionally get the exact-solver
#: certification pass (1/2-approx + capacity monotonicity).
CERTIFY_MAX_EVENTS = 6
CERTIFY_MAX_USERS = 5


@dataclass(frozen=True)
class FuzzFinding:
    """One check failure on one instance.

    Attributes:
        solver: Registry name of the offending solver (or the twin pair
            / certificate name for cross-solver checks).
        kind: ``"crash" | "oracle" | "twin" | "cost-matrix" |
            "certificate"``.
        message: What went wrong, with the recomputed numbers.
    """

    solver: str
    kind: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"solver": self.solver, "kind": self.kind, "message": self.message}


@dataclass
class FuzzReport:
    """Outcome of one campaign, whatever its mode."""

    seed: int
    algorithms: List[str]
    instances_run: int = 0
    elapsed_s: float = 0.0
    findings: List[FuzzFinding] = field(default_factory=list)
    failing_config: Optional[SyntheticConfig] = None
    shrunk_config: Optional[SyntheticConfig] = None
    repro_path: Optional[str] = None
    #: ``"static"``, ``"churn"``, ``"churn-kill"``, ``"churn-disk"`` or
    #: ``"partition"`` (see the module docstring); partition-mode
    #: configs are :class:`~repro.datagen.clustered.ClusteredConfig`.
    mode: str = "static"
    failing_mutations: Optional[List[Mutation]] = None
    shrunk_mutations: Optional[List[Mutation]] = None
    partition_cells: Optional[int] = None
    partition_utility_floor: Optional[float] = None
    #: Churn-kill: the batch the owning worker was SIGKILLed before.
    kill_index: Optional[int] = None
    #: Churn-disk: the armed fault, ``kind:after_writes:attempts``.
    disk_fault: Optional[str] = None
    #: Cases the layer under test refused, each a vacuous pass
    #: (partition mode: cuts the partitioner declined).
    refused: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def unit(self) -> str:
        return "streams" if self.mode.startswith("churn") else "instances"

    def summary(self) -> str:
        refused = (
            f"; {self.refused} cuts refused" if self.mode == "partition" else ""
        )
        if self.ok:
            return (
                f"fuzz ok: {self.instances_run} {self.unit} x "
                f"{len(self.algorithms)} algorithms in {self.elapsed_s:.1f}s "
                f"(seed {self.seed}{refused})"
            )
        head = self.findings[0]
        return (
            f"fuzz FAILED after {self.instances_run} {self.unit} "
            f"(seed {self.seed}{refused}): [{head.kind}] {head.solver}: "
            f"{head.message}"
        )


@dataclass(frozen=True)
class _Case:
    """One drawn case: a config plus whatever its mode drew after it.
    The fields are the artifact's keys (:func:`dump_repro`)."""

    config: object
    mutations: Optional[List[Mutation]] = None
    kill_index: Optional[int] = None
    disk_fault: Optional[str] = None
    cells: Optional[int] = None
    #: Drawing the case crashed; the campaign reports it unchecked.
    error: Optional[FuzzFinding] = None


@dataclass(frozen=True)
class _Mode:
    """How one campaign mode draws, checks and shrinks its cases.

    ``check`` returns the findings, or ``None`` when the layer under
    test refused the case (a vacuous pass the report counts);
    ``shrink`` returns a smaller failing case and its findings.
    """

    draw: Callable[[random.Random], _Case]
    check: Callable[[_Case], Optional[List[FuzzFinding]]]
    shrink: Optional[Callable[[_Case], Tuple[_Case, List[FuzzFinding]]]] = None


def default_algorithms() -> List[str]:
    """Every registry solver the fuzz loop runs (``Exact`` excluded)."""
    return [
        name
        for name in available_solvers()
        if name not in EXCLUDED_ALGORITHMS
    ]


def random_config(rng: random.Random) -> SyntheticConfig:
    """Draw one small config across the datagen distribution space."""
    speed: Optional[float] = None
    if rng.random() < 0.25:
        speed = rng.choice([0.5, 1.0, 2.0, 5.0])
    return SyntheticConfig(
        num_events=rng.randint(1, 10),
        num_users=rng.randint(1, 12),
        mean_capacity=rng.randint(1, 5),
        capacity_distribution=rng.choice(["uniform", "normal"]),
        utility_distribution=rng.choice(["uniform", "normal", "power:0.5"]),
        budget_factor=rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]),
        budget_distribution=rng.choice(["uniform", "normal"]),
        conflict_ratio=rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]),
        grid_size=rng.randint(5, 40),
        horizon=rng.choice([50, 100, 200]),
        speed=speed,
        seed=rng.randrange(2**31),
    )


def check_cost_matrices(instance: USEPInstance) -> List[FuzzFinding]:
    """The array layer's ``to_events``/``from_events`` against the scalar
    model: one ``CostModel`` call per pair, compared bit for bit."""
    arrays = instance.arrays()
    if arrays.to_events is None:  # the instance caches no user costs
        return []
    model = instance.cost_model
    legs = (
        ("to_events", arrays.to_events, model.user_to_event),
        (
            "from_events",
            arrays.from_events,
            lambda user, event: model.event_to_user(event, user),
        ),
    )
    findings: List[FuzzFinding] = []
    shape = (instance.num_users, instance.num_events)
    for name, matrix, leg in legs:
        expected = np.array(
            [[leg(user, event) for event in instance.events] for user in instance.users],
            dtype=float,
        ).reshape(shape)
        if matrix.shape != shape:
            findings.append(
                FuzzFinding(
                    "InstanceArrays",
                    "cost-matrix",
                    f"{name} has shape {matrix.shape}, expected {shape}",
                )
            )
            continue
        # Bit patterns, so -0.0 vs 0.0 and NaN payloads count too.
        bad = np.argwhere(matrix.view(np.uint64) != expected.view(np.uint64))
        if len(bad):
            user_id, event_id = (int(i) for i in bad[0])
            findings.append(
                FuzzFinding(
                    "InstanceArrays",
                    "cost-matrix",
                    f"{name}[{user_id}][{event_id}] is "
                    f"{float(matrix[user_id, event_id])!r}, the scalar model "
                    f"says {float(expected[user_id, event_id])!r} "
                    f"({len(bad)} cell(s) differ)",
                )
            )
    return findings


def check_instance(
    instance: USEPInstance,
    algorithms: Sequence[str],
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]] = None,
    certify: bool = True,
) -> List[FuzzFinding]:
    """Run every algorithm on one instance and collect all findings.

    Args:
        instance: The instance under test.
        algorithms: Registry names to run.
        extra_solvers: Extra ``{name: factory}`` solvers to run alongside
            the registry ones (used to fuzz unregistered or deliberately
            broken solvers in tests).
        certify: Also run the exact-solver certification pass when the
            instance is small enough.
    """
    try:
        findings: List[FuzzFinding] = check_cost_matrices(instance)
    except Exception as exc:  # noqa: BLE001 - a crash is a finding too
        findings = [
            FuzzFinding("InstanceArrays", "crash", f"{type(exc).__name__}: {exc}")
        ]
    plannings: Dict[str, object] = {}

    factories: List[Tuple[str, Callable[[], Solver]]] = [
        (name, (lambda n=name: make_solver(n))) for name in algorithms
    ]
    if extra_solvers:
        factories.extend(sorted(extra_solvers.items()))

    for name, factory in factories:
        try:
            planning = factory().solve(instance)
        except Exception as exc:  # noqa: BLE001 - the whole point of fuzzing
            findings.append(
                FuzzFinding(name, "crash", f"{type(exc).__name__}: {exc}")
            )
            continue
        plannings[name] = planning
        report = verify_planning(instance, planning)
        for violation in report.violations:
            findings.append(
                FuzzFinding(
                    name,
                    f"oracle:{violation.constraint}",
                    violation.message,
                )
            )

    for kernel, seed_twin in TWIN_PAIRS:
        if kernel not in plannings or seed_twin not in plannings:
            continue
        kp, sp = plannings[kernel], plannings[seed_twin]
        if kp.total_utility() != sp.total_utility():
            findings.append(
                FuzzFinding(
                    f"{kernel}|{seed_twin}",
                    "twin",
                    f"utilities differ: {kp.total_utility()!r} != "
                    f"{sp.total_utility()!r}",
                )
            )
        elif kp.as_dict() != sp.as_dict():
            findings.append(
                FuzzFinding(
                    f"{kernel}|{seed_twin}",
                    "twin",
                    "equal utilities but different schedules: "
                    f"{kp.as_dict()} != {sp.as_dict()}",
                )
            )

    if (
        certify
        and instance.num_events <= CERTIFY_MAX_EVENTS
        and instance.num_users <= CERTIFY_MAX_USERS
    ):
        certificates = certify_half_approximation(instance)
        certificates.append(certify_capacity_monotonicity(instance))
        for certificate in certificates:
            if not certificate.passed:
                findings.append(
                    FuzzFinding(
                        certificate.name, "certificate", certificate.details
                    )
                )

    return findings


def fuzz_config(
    config: SyntheticConfig,
    algorithms: Sequence[str],
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]] = None,
    certify: bool = True,
) -> List[FuzzFinding]:
    """Generate the config's instance and :func:`check_instance` it."""
    try:
        instance = generate_instance(config)
    except Exception as exc:  # noqa: BLE001
        return [
            FuzzFinding("<datagen>", "crash", f"{type(exc).__name__}: {exc}")
        ]
    return check_instance(
        instance, algorithms, extra_solvers=extra_solvers, certify=certify
    )


def _shrink_candidates(config: SyntheticConfig) -> List[SyntheticConfig]:
    """Strictly-simpler one-step variants of a config, most drastic first."""
    out: List[SyntheticConfig] = []

    def propose(**changes) -> None:
        candidate = config.with_overrides(**changes)
        if candidate != config:
            out.append(candidate)

    if config.num_events > 1:
        propose(num_events=max(1, config.num_events // 2))
        propose(num_events=config.num_events - 1)
    if config.num_users > 1:
        propose(num_users=max(1, config.num_users // 2))
        propose(num_users=config.num_users - 1)
    if config.speed is not None:
        propose(speed=None)
    propose(conflict_ratio=0.0)
    propose(utility_distribution="uniform")
    propose(capacity_distribution="uniform")
    propose(budget_distribution="uniform")
    if config.mean_capacity > 1:
        propose(mean_capacity=1)
    if config.budget_factor not in (0.0, 1.0):
        propose(budget_factor=1.0)
    if config.grid_size > 5:
        propose(grid_size=max(5, config.grid_size // 2))
    return out


def _greedy_shrink(
    case: _Case,
    candidates: Callable[[object], List[object]],
    check: Callable[[_Case], Optional[List[FuzzFinding]]],
    max_rounds: int,
) -> Tuple[_Case, List[FuzzFinding]]:
    """Greedily shrink a failing case's config while a finding reproduces.

    Each round tries ``candidates(config)`` — strictly simpler one-step
    variants, most drastic first — and keeps the first whose case still
    fails; stops at a fixpoint.  Returns the minimal case and its
    findings.
    """
    findings = check(case) or []
    if not findings:
        return case, findings  # flaky input; nothing to shrink
    for _ in range(max_rounds):
        for config in candidates(case.config):
            candidate = dataclasses.replace(case, config=config)
            candidate_findings = check(candidate)
            if candidate_findings:
                case, findings = candidate, candidate_findings
                break
        else:
            break  # no simpler config reproduces: minimal
    return case, findings


def shrink_config(
    config: SyntheticConfig,
    algorithms: Sequence[str],
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]] = None,
    certify: bool = True,
    max_rounds: int = 40,
) -> Tuple[SyntheticConfig, List[FuzzFinding]]:
    """Greedily shrink a failing config while any finding reproduces.

    Each round tries every one-step simplification (halve events/users,
    drop conflicts, uniform distributions, smaller grid, ...) and keeps
    the first one that still fails; stops at a fixpoint.  Returns the
    minimal config and its findings.
    """
    mode = _static_mode(algorithms, extra_solvers, certify)
    case, findings = _greedy_shrink(
        _Case(config), _shrink_candidates, mode.check, max_rounds
    )
    return case.config, findings


# ----------------------------------------------------------------------
# churn mode: differential fuzzing of repro.core.deltas
# ----------------------------------------------------------------------

#: Solvers churn mode runs by default — the array-kernel trio whose
#: Step 1 flows through the incremental engine (candidate index,
#: schedule memo) the delta layer maintains.
CHURN_ALGORITHMS: Tuple[str, ...] = ("DeDP", "DeDPO", "DeGreedy")


def random_mutation(rng: random.Random, instance: USEPInstance) -> Mutation:
    """Draw one mutation valid for the instance's *current* dimensions.

    Value edits dominate (the common churn), with drops rare enough
    that streams keep some population; all draws come from ``rng`` so a
    stream is reproducible from the master seed alone.
    """
    num_users, num_events = instance.num_users, instance.num_events
    kinds: List[str] = ["add_user", "add_event"]
    if num_users:
        kinds += ["budget_change"] * 3 + ["drop_user"]
    if num_events:
        kinds += ["capacity_change"] * 2 + ["drop_event"]
    if num_users and num_events:
        kinds += ["utility_change"] * 4
    kind = rng.choice(kinds)
    if kind == "budget_change":
        return BudgetChange(rng.randrange(num_users), round(rng.uniform(0.0, 60.0), 3))
    if kind == "capacity_change":
        return CapacityChange(rng.randrange(num_events), rng.randint(1, 6))
    if kind == "utility_change":
        value = 0.0 if rng.random() < 0.2 else round(rng.random(), 6)
        return UtilityChange(rng.randrange(num_events), rng.randrange(num_users), value)
    if kind == "drop_user":
        return DropUser(rng.randrange(num_users))
    if kind == "drop_event":
        return DropEvent(rng.randrange(num_events))
    if kind == "add_user":
        return AddUser(
            location=(round(rng.uniform(0, 20), 3), round(rng.uniform(0, 20), 3)),
            budget=round(rng.uniform(0.0, 60.0), 3),
            utilities=tuple(
                round(rng.random(), 6) if rng.random() < 0.7 else 0.0
                for _ in range(num_events)
            ),
        )
    start = round(rng.uniform(0, 90), 3)
    return AddEvent(
        location=(round(rng.uniform(0, 20), 3), round(rng.uniform(0, 20), 3)),
        capacity=rng.randint(1, 5),
        start=start,
        end=start + round(rng.uniform(1, 30), 3),
        utilities=tuple(
            round(rng.random(), 6) if rng.random() < 0.7 else 0.0
            for _ in range(num_users)
        ),
    )


def generate_churn_stream(
    config: SyntheticConfig, rng: random.Random, num_mutations: int
) -> List[Mutation]:
    """Draw a mutation stream valid against the config's instance.

    Mutations are applied while generating (against a throwaway copy)
    so each draw sees the dimensions its predecessors left behind —
    the resulting list replays cleanly on a fresh instance.
    """
    instance = generate_instance(config)
    mutations: List[Mutation] = []
    for _ in range(num_mutations):
        mutation = random_mutation(rng, instance)
        apply_mutation(instance, mutation)
        mutations.append(mutation)
    return mutations


def check_churn_stream(
    instance: USEPInstance,
    mutations: Sequence[Mutation],
    algorithms: Sequence[str] = CHURN_ALGORITHMS,
) -> List[FuzzFinding]:
    """Apply a stream one mutation at a time, delta-solving after each.

    After every applied mutation, each algorithm's delta re-solve (warm
    engine, memo-hitting clean users) is oracle-checked and bit-compared
    — canonical planning bytes — against a cold solve of the mutated
    content decoded fresh from its JSON form.  Stops at the first step
    with findings (later steps run on diverged state and would only
    echo it).  Mutations invalid for the current dimensions are skipped,
    which keeps shrunk subsequences applicable.
    """
    from ..io import canonical_planning_bytes, instance_from_dict, instance_to_dict

    findings: List[FuzzFinding] = []
    solvers = {name: make_solver(name) for name in algorithms}
    for solver in solvers.values():  # warm: build index, memo, replay state
        solver.solve(instance)
    for step, mutation in enumerate(mutations):
        where = f"step {step} ({mutation.kind})"
        try:
            apply_mutation(instance, mutation)
        except InvalidInstanceError:
            continue
        except Exception as exc:  # noqa: BLE001 - the whole point of fuzzing
            crash = f"{where}: {type(exc).__name__}: {exc}"
            return [FuzzFinding("<deltas>", "churn-crash", crash)]
        cold_instance = instance_from_dict(instance_to_dict(instance))
        for name, solver in solvers.items():
            try:
                delta_planning = solver.solve(instance)
            except Exception as exc:  # noqa: BLE001
                crash = f"{where}: {type(exc).__name__}: {exc}"
                findings.append(FuzzFinding(name, "churn-crash", crash))
                continue
            report = verify_planning(instance, delta_planning)
            for violation in report.violations:
                findings.append(
                    FuzzFinding(
                        name,
                        f"churn-oracle:{violation.constraint}",
                        f"{where}: {violation.message}",
                    )
                )
            cold_planning = make_solver(name).solve(cold_instance)
            delta_bytes = canonical_planning_bytes(delta_planning)
            cold_bytes = canonical_planning_bytes(cold_planning)
            if delta_bytes != cold_bytes:
                findings.append(
                    FuzzFinding(
                        name,
                        "churn-bytes",
                        f"{where}: delta planning diverges from cold solve: "
                        f"{delta_bytes[:160]!r} != {cold_bytes[:160]!r}",
                    )
                )
        if findings:
            return findings
    return findings


def fuzz_churn(
    config: SyntheticConfig,
    mutations: Sequence[Mutation],
    algorithms: Sequence[str] = CHURN_ALGORITHMS,
) -> List[FuzzFinding]:
    """Generate the config's instance and :func:`check_churn_stream` it."""
    try:
        instance = generate_instance(config)
    except Exception as exc:  # noqa: BLE001
        return [FuzzFinding("<datagen>", "crash", f"{type(exc).__name__}: {exc}")]
    return check_churn_stream(instance, mutations, algorithms)


def shrink_mutations(
    config: SyntheticConfig,
    mutations: Sequence[Mutation],
    algorithms: Sequence[str] = CHURN_ALGORITHMS,
    max_rounds: int = 20,
) -> Tuple[List[Mutation], List[FuzzFinding]]:
    """Greedily shrink a failing mutation stream to a minimal repro.

    Delta-debugging flavour: drop half-stream chunks first, then ever
    smaller ones down to single mutations, keeping any cut after which
    the stream still fails; repeat to a fixpoint.  (The config is left
    alone — mutations embed ids valid for its dimensions.)
    """
    current = list(mutations)
    findings = fuzz_churn(config, current, algorithms)
    if not findings:
        return current, findings  # flaky input; nothing to shrink
    for _ in range(max_rounds):
        reduced = False
        chunk = max(1, len(current) // 2)
        while chunk >= 1:
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk :]
                candidate_findings = fuzz_churn(config, candidate, algorithms)
                if candidate_findings:
                    current, findings = candidate, candidate_findings
                    reduced = True
                else:
                    start += chunk
            if chunk == 1:
                break
            chunk //= 2
        if not reduced:
            break
    return current, findings



# ----------------------------------------------------------------------
# churn-kill / churn-disk: the churn fuzz pointed at a real fleet
# ----------------------------------------------------------------------


def check_fleet_stream(
    config: SyntheticConfig,
    mutations: Sequence[Mutation],
    workers: int = 2,
    kill_index: Optional[int] = None,
    disk_fault: Optional[str] = None,
) -> List[FuzzFinding]:
    """One seeded mutation stream through a real fleet, across one fault.

    Boots a :class:`~repro.service.router.LocalCluster` (router + real
    worker processes + journals), registers the config's instance and
    streams the mutations one ``/mutate`` batch at a time.  Every batch
    must be acknowledged 200 — zero transport errors, zero 5xx — and
    the instance must still solve by id afterwards.  Exactly one fault
    is given, and it names the finding kinds and the rest of the
    contract:

    * ``kill_index`` (``churn-kill-*``): SIGKILL the owning worker right
      before that batch.  The journal must replay to the content an
      offline twin reaches by applying the same stream (fingerprint +
      version), and the final solve must run at the twin's version and
      pass the oracle against the twin.
    * ``disk_fault`` (``churn-disk-*``, ``kind:after_writes:attempts``):
      boot the fleet with it in ``REPRO_DISK_FAULT``, so the owning
      shard's journal fails mid-churn.  Replies must flip to
      ``durable: false``, and the supervisor must surface
      ``journal_degraded`` and restart nobody (docs/serving.md).
    """
    import tempfile
    from unittest import mock

    from ..core import build_cache
    from ..io import instance_from_dict, instance_to_dict, mutation_to_dict
    from ..service.faults import DISK_FAULT_ENV
    from ..service.journal import JOURNAL_SUFFIX, replay_journal
    from ..service.router import LocalCluster, request_json, wait_journal_degraded
    from .oracle import verify_schedules

    if (kill_index is None) == (disk_fault is None):
        raise ValueError("give exactly one of kill_index and disk_fault")
    prefix = "churn-kill" if disk_fault is None else "churn-disk"
    findings: List[FuzzFinding] = []

    def find(kind: str, message: str, solver: str = "<fleet>") -> None:
        findings.append(FuzzFinding(solver, f"{prefix}-{kind}", message))

    def post(url: str, what: str, path: str, payload: Dict[str, object]):
        """The fleet's 200 reply, or None once a finding says why not."""
        try:
            status, body = request_json(url, path, payload)
        except OSError as exc:
            find("transport", f"{what}: {type(exc).__name__}: {exc}")
            return None
        if status != 200:
            find("http", f"{what} answered {status}: {body}")
            return None
        return body

    wire = instance_to_dict(generate_instance(config))
    twin = instance_from_dict(wire)
    with tempfile.TemporaryDirectory(prefix=prefix + "-") as journal_root:
        # Workers inherit the environment, restarted ones included.
        fault_env = {DISK_FAULT_ENV: disk_fault} if disk_fault else {}
        with mock.patch.dict(os.environ, fault_env), LocalCluster(
            workers=workers, journal_root=journal_root
        ) as fleet:
            url = fleet.base_url
            body = post(url, "registration", "/instances", {"instance": wire})
            if body is None:
                return findings
            instance_id = body["instance_id"]
            shard = instance_id.split("-inst-")[0]
            non_durable = 0
            for step, mutation in enumerate(mutations):
                if step == kill_index:
                    fleet.kill_worker(shard)
                try:
                    apply_mutation(twin, mutation)
                except InvalidInstanceError:
                    continue  # invalid here (a hand-cut stream): never sent
                body = post(
                    url, f"step {step} ({mutation.kind})", "/mutate",
                    {"instance_id": instance_id,
                     "mutations": [mutation_to_dict(mutation)]},
                )
                if body is None:
                    return findings
                non_durable += body.get("durable") is False

            if disk_fault is not None:
                if not non_durable:
                    find("silent", f"fault {disk_fault} never surfaced as "
                         f"durable=false over {len(mutations)} batches")
                degraded, stats = wait_journal_degraded(url)
                if not degraded:
                    find("silent", "supervisor never surfaced journal_degraded")
                for worker in stats.get("supervisor", []):
                    if worker.get("restarts"):
                        find("restart", f"worker {worker['worker_id']} restarted "
                             f"{worker['restarts']}x for a disk fault")
            solved = post(
                url, "final solve", "/solve",
                {"instance_id": instance_id, "algorithm": "DeDP",
                 "deadline_s": 30 if disk_fault is None else 60},
            )
            if disk_fault is not None:
                if solved is not None and solved.get("status") != "ok":
                    find("http", f"final solve answered {solved.get('status')}")
                return findings

            if solved is not None:
                if solved.get("instance_version") != twin.version:
                    find("version", "recovered instance solved at version "
                         f"{solved.get('instance_version')}, twin is at "
                         f"{twin.version}")
                report = verify_schedules(
                    twin,
                    {int(uid): evs
                     for uid, evs in solved.get("schedules", {}).items()},
                    reported_utility=solved.get("utility"),
                )
                if not report.ok:
                    find("oracle", "recovered plan fails the oracle against "
                         f"the twin: {report.summary()}")
            journal = os.path.join(journal_root, shard, instance_id + JOURNAL_SUFFIX)
            try:
                recovered = replay_journal(journal).instance
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                find("journal", f"{type(exc).__name__}: {exc}", "<journal>")
                return findings
            if recovered.version != twin.version:
                find("version", f"journal replays to version {recovered.version}, "
                     f"twin is at {twin.version}", "<journal>")
            twin_fp = build_cache.instance_fingerprint(twin)
            replay_fp = build_cache.instance_fingerprint(recovered)
            if twin_fp != replay_fp:
                find("fingerprint", f"journal replay fingerprint {replay_fp!r} "
                     f"!= offline twin {twin_fp!r}", "<journal>")
    return findings


# ----------------------------------------------------------------------
# partition mode: partitioned-vs-monolithic with a utility-ratio floor
# ----------------------------------------------------------------------

#: Default quality floor of the partition differential: the merged plan
#: must reach this fraction of the monolithic utility.  Matches the
#: guard in ``tools/check_bench_regression.py`` and the contract in
#: ``docs/partitioning.md``.
PARTITION_UTILITY_FLOOR = 0.95

#: Cell counts the partition campaign cycles through (seeded draw per
#: instance).  1 is deliberately included: the degenerate cut must be
#: bit-identical to the monolithic solve.
PARTITION_CELL_CHOICES: Tuple[int, ...] = (1, 2, 3, 4, 6, 9)


def random_clustered_config(rng: random.Random):
    """Draw one clustered-geography config for the partition fuzz.

    Sizes are small enough that monolithic + partitioned both solve in
    well under a second, but large enough that a multi-cell cut has
    real boundary structure (replicated users, oversubscribed events).
    """
    from ..datagen.clustered import ClusteredConfig

    grid_size = rng.choice([60, 100, 160])
    return ClusteredConfig(
        num_events=rng.randint(8, 48),
        num_users=rng.randint(60, 480),
        num_clusters=rng.randint(1, 6),
        event_spread=rng.choice([3.0, 6.0, 9.0]),
        user_spread=rng.choice([6.0, 10.0, 16.0]),
        utility_radius=(
            None
            if rng.random() < 0.7
            else rng.uniform(0.08, 0.25) * grid_size
        ),
        mean_capacity=rng.randint(3, 40),
        capacity_distribution=rng.choice(["uniform", "normal"]),
        utility_distribution=rng.choice(["uniform", "normal", "power:0.5"]),
        budget_factor=rng.choice([1.0, 2.0, 3.0]),
        budget_distribution=rng.choice(["uniform", "normal"]),
        conflict_ratio=rng.choice([0.0, 0.2, 0.5]),
        grid_size=grid_size,
        seed=rng.randrange(2**31),
    )


def check_partition(
    config,
    cells: int,
    algorithm: str = "DeDPO",
    utility_floor: float = PARTITION_UTILITY_FLOOR,
) -> Optional[List[FuzzFinding]]:
    """Differential-check one clustered config at one cell count.

    Three checks, in the partition layer's quality regime (see
    ``docs/partitioning.md``): the merged plan passes the independent
    oracle; its utility reaches ``utility_floor`` of the monolithic
    plan's; and when the cut degenerates to a single cell, the merged
    plan is *byte-identical* to the monolithic one (the only case where
    the old bit-identity contract still applies).  Returns ``None``
    when the partitioner refuses the cut: nothing was checked.
    """
    from ..algorithms.partitioned import solve_partitioned
    from ..core.partition import PartitionError
    from ..datagen.clustered import generate_clustered_instance
    from ..io import canonical_planning_bytes

    label = f"{algorithm}+grid[{cells}]"
    try:
        instance = generate_clustered_instance(config)
    except Exception as exc:  # noqa: BLE001 - the whole point of fuzzing
        return [
            FuzzFinding("<datagen>", "crash", f"{type(exc).__name__}: {exc}")
        ]
    try:
        mono = make_solver(algorithm).solve(instance)
    except Exception as exc:  # noqa: BLE001
        return [
            FuzzFinding(algorithm, "crash", f"{type(exc).__name__}: {exc}")
        ]
    try:
        solved = solve_partitioned(instance, algorithm=algorithm, cells=cells)
    except PartitionError:
        # The partitioner refused the cut (high-replication guard or a
        # degenerate instance).  That IS the contract: every production
        # caller degrades to the monolithic solve, so there is no merge
        # whose quality could violate the floor — a vacuous pass.
        return None
    except Exception as exc:  # noqa: BLE001
        return [
            FuzzFinding(
                label, "partition-crash", f"{type(exc).__name__}: {exc}"
            )
        ]
    findings: List[FuzzFinding] = []
    report = verify_planning(instance, solved.planning)
    for violation in report.violations:
        findings.append(
            FuzzFinding(
                label,
                f"partition-oracle:{violation.constraint}",
                violation.message,
            )
        )
    mono_utility = mono.total_utility()
    merged_utility = solved.planning.total_utility()
    if mono_utility > 0 and merged_utility < utility_floor * mono_utility:
        findings.append(
            FuzzFinding(
                label,
                "partition-utility",
                f"merged utility {merged_utility:.6f} is below the "
                f"{utility_floor:g} floor of monolithic "
                f"{mono_utility:.6f} (ratio "
                f"{merged_utility / mono_utility:.4f})",
            )
        )
    if len(solved.partition.cells) == 1:
        merged_bytes = canonical_planning_bytes(solved.planning)
        mono_bytes = canonical_planning_bytes(mono)
        if merged_bytes != mono_bytes:
            findings.append(
                FuzzFinding(
                    label,
                    "partition-bytes",
                    f"single-cell partition diverges from the monolithic "
                    f"solve: {merged_bytes[:160]!r} != {mono_bytes[:160]!r}",
                )
            )
    return findings


def _shrink_partition_candidates(config) -> List[object]:
    """Simpler configs to try while a partition failure reproduces."""
    candidates: List[object] = []

    def propose(**changes) -> None:
        candidates.append(config.with_overrides(**changes, name=None))

    if config.num_users > 1:
        propose(num_users=max(1, config.num_users // 2))
    if config.num_events > 1:
        propose(num_events=max(1, config.num_events // 2))
    if config.num_clusters > 1:
        propose(num_clusters=1)
    if config.conflict_ratio:
        propose(conflict_ratio=0.0)
    if config.utility_radius is not None:
        propose(utility_radius=None)
    for knob in (
        "capacity_distribution",
        "utility_distribution",
        "budget_distribution",
    ):
        if getattr(config, knob) != "uniform":
            propose(**{knob: "uniform"})
    return candidates


# ----------------------------------------------------------------------
# one campaign loop, one artifact format, one replay
# ----------------------------------------------------------------------


def _campaign(
    mode: _Mode,
    report: FuzzReport,
    count: int,
    time_budget_s: Optional[float],
    shrink: bool,
    out_path: Optional[str],
    progress: bool,
    progress_stream,
) -> FuzzReport:
    """Run ``mode`` for up to ``count`` cases from the master seed;
    record, shrink and dump the first failing one on ``report``."""
    rng = random.Random(report.seed)
    stream = progress_stream if progress_stream is not None else sys.stderr
    start = time.perf_counter()
    for index in range(count):
        if time_budget_s is not None and time.perf_counter() - start > time_budget_s:
            break
        case = mode.draw(rng)
        findings = [case.error] if case.error else mode.check(case)
        report.instances_run = index + 1
        if findings is None:
            report.refused += 1
        elif findings:
            report.findings = findings
            report.failing_config = case.config
            report.failing_mutations = case.mutations
            report.partition_cells = case.cells
            report.kill_index = case.kill_index
            report.disk_fault = case.disk_fault
            if shrink and mode.shrink is not None and not case.error:
                shrunk, report.findings = mode.shrink(case)
                if shrunk.mutations is None:
                    report.shrunk_config = shrunk.config
                else:
                    report.shrunk_mutations = shrunk.mutations
            if out_path:
                dump_repro(report, out_path)
                report.repro_path = out_path
            break
        if progress and (index + 1) % max(1, count // 20) == 0:
            fault = (
                f", killed before step {case.kill_index}"
                if case.kill_index is not None
                else f", survived {case.disk_fault}" if case.disk_fault else ""
            )
            print(
                f"[{report.mode} seed={report.seed}] {index + 1}/{count} "
                f"{report.unit} clean ({time.perf_counter() - start:.1f}s)"
                f"{fault}",
                file=stream,
                flush=True,
            )
    report.elapsed_s = time.perf_counter() - start
    return report


def _static_mode(
    algorithms: Sequence[str],
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]],
    certify: bool,
) -> _Mode:
    def check(case: _Case) -> List[FuzzFinding]:
        return fuzz_config(
            case.config, algorithms, extra_solvers=extra_solvers, certify=certify
        )

    return _Mode(
        draw=lambda rng: _Case(random_config(rng)),
        check=check,
        shrink=lambda case: _greedy_shrink(case, _shrink_candidates, check, 40),
    )


def _draw_stream(rng: random.Random, length: int) -> _Case:
    """A random config and a seeded mutation stream valid against it."""
    config = random_config(rng)
    try:
        return _Case(config, mutations=generate_churn_stream(config, rng, length))
    except Exception as exc:  # noqa: BLE001 - the whole point of fuzzing
        return _Case(
            config,
            error=FuzzFinding("<churn-gen>", "crash", f"{type(exc).__name__}: {exc}"),
        )


def _churn_mode(algorithms: Sequence[str], length: int) -> _Mode:
    def shrink(case: _Case):
        mutations, findings = shrink_mutations(
            case.config, case.mutations, algorithms
        )
        return dataclasses.replace(case, mutations=mutations), findings

    return _Mode(
        draw=lambda rng: _draw_stream(rng, length),
        check=lambda case: fuzz_churn(case.config, case.mutations, algorithms),
        shrink=shrink,
    )


def _fleet_mode(name: str, length: int, workers: int) -> _Mode:
    """``churn-kill`` or ``churn-disk``: no shrinking, each case boots a fleet."""

    def draw(rng: random.Random) -> _Case:
        case = _draw_stream(rng, length)
        if case.error:
            return case
        bound = max(1, len(case.mutations))
        if name == "churn-kill":
            return dataclasses.replace(case, kill_index=rng.randrange(bound))
        from ..service.faults import DiskFaultSpec

        # after_writes < 1 header + len(mutations) records => always fires
        fault = DiskFaultSpec.random(rng.randrange(1 << 30), max_after=bound)
        return dataclasses.replace(
            case, disk_fault=f"{fault.kind}:{fault.after_writes}:{fault.attempts}"
        )

    return _Mode(
        draw=draw,
        check=lambda case: check_fleet_stream(
            case.config,
            case.mutations,
            workers,
            kill_index=case.kill_index,
            disk_fault=case.disk_fault,
        ),
    )


def _partition_mode(
    algorithm: str, cells: Optional[int], utility_floor: float
) -> _Mode:
    def draw(rng: random.Random) -> _Case:
        config = random_clustered_config(rng)
        return _Case(
            config,
            cells=cells if cells is not None else rng.choice(PARTITION_CELL_CHOICES),
        )

    def check(case: _Case) -> Optional[List[FuzzFinding]]:
        return check_partition(case.config, case.cells, algorithm, utility_floor)

    return _Mode(
        draw=draw,
        check=check,
        shrink=lambda case: _greedy_shrink(
            case, _shrink_partition_candidates, check, 12
        ),
    )


def config_from_dict(data: Mapping[str, object], cls=SyntheticConfig):
    """Rebuild a :class:`SyntheticConfig` (or ``cls``) from its JSON form."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in fields})


def dump_repro(report: FuzzReport, path: str) -> None:
    """Write the failing case of a failed campaign as a JSON artifact.

    Beside the config (and its shrunk minimum), the artifact records
    what the mode drew after it: the mutation stream in op-tagged wire
    form under ``mutations`` (and ``shrunk_mutations``), the
    ``kill_index``, the ``disk_fault`` spec, or the partition ``cells``
    and ``utility_floor``.  :func:`replay` reads them back.
    """
    from ..io import mutation_to_dict

    payload: Dict[str, object] = {
        "description": (
            "repro.verify.fuzz failure artifact — rebuild the instance "
            "with repro.verify.fuzz.replay(path) or from shrunk_config "
            "via repro.datagen.generate_instance."
        ),
        "mode": report.mode,
        "master_seed": report.seed,
        "instances_run": report.instances_run,
        "algorithms": report.algorithms,
        "config": dataclasses.asdict(report.failing_config)
        if report.failing_config
        else None,
        "shrunk_config": dataclasses.asdict(report.shrunk_config)
        if report.shrunk_config
        else None,
        "findings": [finding.to_dict() for finding in report.findings],
    }
    for key, mutations in (
        ("mutations", report.failing_mutations),
        ("shrunk_mutations", report.shrunk_mutations),
    ):
        if mutations is not None:
            payload[key] = [mutation_to_dict(m) for m in mutations]
    if report.mode == "partition":
        payload["cells"] = report.partition_cells
        payload["utility_floor"] = report.partition_utility_floor
    if report.kill_index is not None:
        payload["kill_index"] = report.kill_index
    if report.disk_fault is not None:
        payload["disk_fault"] = report.disk_fault
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def replay(
    path: str,
    algorithms: Optional[Sequence[str]] = None,
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]] = None,
    certify: bool = True,
) -> List[FuzzFinding]:
    """Re-run the case recorded in a repro JSON; returns the findings.

    The artifact's own mode re-runs its check on the recorded case —
    kill position, disk fault or cell count included — preferring the
    shrunk config and stream (the minimal repro).  ``algorithms``
    defaults to the recorded ones.  Solvers that were injected through
    ``extra_solvers`` at fuzz time are not in the registry and must be
    re-supplied here to reproduce their findings.
    """
    from ..io import mutations_from_list

    with open(path) as handle:
        payload = json.load(handle)
    config_data = payload.get("shrunk_config") or payload.get("config")
    if config_data is None:
        raise ValueError(f"{path}: no config recorded")
    mode = payload.get("mode", "static")
    recorded = payload.get("algorithms")
    if algorithms is None:
        algorithms = recorded or default_algorithms()
    if mode == "partition":
        from ..datagen.clustered import ClusteredConfig

        config = config_from_dict(config_data, ClusteredConfig)
        check = _partition_mode(
            (recorded or ["DeDPO"])[0],
            None,
            payload.get("utility_floor") or PARTITION_UTILITY_FLOOR,
        ).check
    else:
        config = config_from_dict(config_data)
        if mode == "churn":
            check = _churn_mode(algorithms, 0).check
        elif mode in ("churn-kill", "churn-disk"):
            check = _fleet_mode(mode, 0, 2).check
        else:
            check = _static_mode(algorithms, extra_solvers, certify).check
    # No stream is recorded when drawing it crashed: replay the config.
    mutation_data = payload.get("shrunk_mutations", payload.get("mutations"))
    case = _Case(
        config,
        mutations=mutations_from_list(mutation_data or []),
        kill_index=payload.get("kill_index"),
        disk_fault=payload.get("disk_fault"),
        cells=payload.get("cells"),
    )
    return check(case) or []


# ----------------------------------------------------------------------
# the five campaigns
# ----------------------------------------------------------------------


def _validate(
    time_budget_s: Optional[float] = None,
    utility_floor: Optional[float] = None,
    **counts: Optional[int],
) -> None:
    """Raise ``ValueError`` for a campaign parameter out of range;
    every one of ``counts`` that is given must be at least 1."""
    for name, value in counts.items():
        if value is not None and not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    if time_budget_s is not None and not time_budget_s >= 0:
        raise ValueError(f"time_budget_s must be >= 0, got {time_budget_s!r}")
    if utility_floor is not None and not 0 < utility_floor <= 1:
        raise ValueError(f"utility_floor must be in (0, 1], got {utility_floor!r}")


def run_fuzz(
    seed: int = 0,
    max_instances: int = 200,
    time_budget_s: Optional[float] = None,
    algorithms: Optional[Sequence[str]] = None,
    extra_solvers: Optional[Mapping[str, Callable[[], Solver]]] = None,
    certify: bool = True,
    shrink: bool = True,
    out_path: Optional[str] = None,
    progress: bool = False,
    progress_stream=None,
) -> FuzzReport:
    """Run a fuzz campaign; stop at the first failing instance.

    Args:
        seed: Master seed; drives every random draw, so a campaign is
            exactly reproducible.
        max_instances: Upper bound on instances generated.
        time_budget_s: Optional wall-clock box; the loop stops opening
            new instances once exceeded (a started instance finishes).
        algorithms: Registry names to fuzz; defaults to every registered
            solver except ``Exact``.
        extra_solvers: Extra ``{name: factory}`` solvers run alongside.
        certify: Run the exact-solver certification pass on instances
            within its size limits.
        shrink: Shrink the failing config to a minimal repro.
        out_path: Where to dump the JSON repro when a failure is found
            (nothing is written on success).
        progress: Emit a line every 5% of ``max_instances`` to
            ``progress_stream`` (default stderr).

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is the campaign verdict.
    """
    _validate(max_instances=max_instances, time_budget_s=time_budget_s)
    algorithms = list(algorithms) if algorithms is not None else default_algorithms()
    return _campaign(
        _static_mode(algorithms, extra_solvers, certify),
        FuzzReport(seed=seed, algorithms=algorithms),
        max_instances, time_budget_s, shrink, out_path, progress, progress_stream,
    )


def run_churn_fuzz(
    seed: int = 0,
    streams: int = 20,
    mutations_per_stream: int = 30,
    time_budget_s: Optional[float] = None,
    algorithms: Optional[Sequence[str]] = None,
    shrink: bool = True,
    out_path: Optional[str] = None,
    progress: bool = False,
    progress_stream=None,
) -> FuzzReport:
    """Run a churn campaign; stop at the first failing stream.

    Each stream is one random config plus one seeded mutation stream,
    checked by :func:`check_churn_stream`.  ``instances_run`` counts
    streams.  On failure the stream is shrunk to a minimal mutation
    list and the JSON repro (with a ``mutations`` key) is dumped for
    :func:`replay`.
    """
    _validate(streams=streams, mutations_per_stream=mutations_per_stream,
              time_budget_s=time_budget_s)
    algorithms = list(algorithms) if algorithms is not None else list(CHURN_ALGORITHMS)
    return _campaign(
        _churn_mode(algorithms, mutations_per_stream),
        FuzzReport(seed=seed, algorithms=algorithms, mode="churn"),
        streams, time_budget_s, shrink, out_path, progress, progress_stream,
    )


def run_churn_kill_fuzz(
    seed: int = 0,
    streams: int = 3,
    mutations_per_stream: int = 20,
    workers: int = 2,
    time_budget_s: Optional[float] = None,
    out_path: Optional[str] = None,
    progress: bool = False,
    progress_stream=None,
) -> FuzzReport:
    """Churn fuzzing across a worker SIGKILL; stop at the first failure.

    Each stream kills the shard worker at a seeded position in the
    mutation stream and asserts full recovery (see
    :func:`check_fleet_stream`).  Streams are expensive — each boots a
    real fleet — so the default count is small; CI's ``worker-chaos``
    job runs this mode, not the tier-1 suite.  No shrinking: the
    failure is process-level.  The artifact records the config, the
    stream and the ``kill_index``, and :func:`replay` re-runs it.
    """
    _validate(streams=streams, mutations_per_stream=mutations_per_stream,
              workers=workers, time_budget_s=time_budget_s)
    return _campaign(
        _fleet_mode("churn-kill", mutations_per_stream, workers),
        FuzzReport(seed=seed, algorithms=["DeDP"], mode="churn-kill"),
        streams, time_budget_s, False, out_path, progress, progress_stream,
    )


def run_churn_disk_fuzz(
    seed: int = 0,
    streams: int = 3,
    mutations_per_stream: int = 20,
    workers: int = 2,
    time_budget_s: Optional[float] = None,
    out_path: Optional[str] = None,
    progress: bool = False,
    progress_stream=None,
) -> FuzzReport:
    """Churn fuzzing with a seeded disk fault instead of a SIGKILL.

    Each stream draws its own :class:`~repro.service.faults.DiskFaultSpec`
    via ``DiskFaultSpec.random`` — same master seed, same fault kinds
    and arming positions — and asserts the degradation contract (see
    :func:`check_fleet_stream`).  Like churn-kill, streams boot a real
    fleet, so the default count is small and CI's ``worker-chaos`` job
    owns this mode.  The artifact records the fault as
    ``disk_fault`` (``kind:after_writes:attempts``).
    """
    _validate(streams=streams, mutations_per_stream=mutations_per_stream,
              workers=workers, time_budget_s=time_budget_s)
    return _campaign(
        _fleet_mode("churn-disk", mutations_per_stream, workers),
        FuzzReport(seed=seed, algorithms=["DeDP"], mode="churn-disk"),
        streams, time_budget_s, False, out_path, progress, progress_stream,
    )


def run_partition_fuzz(
    seed: int = 0,
    max_instances: int = 50,
    time_budget_s: Optional[float] = None,
    algorithm: str = "DeDPO",
    cells: Optional[int] = None,
    utility_floor: float = PARTITION_UTILITY_FLOOR,
    shrink: bool = True,
    out_path: Optional[str] = None,
    progress: bool = False,
    progress_stream=None,
) -> FuzzReport:
    """Run a partition campaign; stop at the first failing instance.

    Each instance is one seeded clustered config checked by
    :func:`check_partition` at one cell count — ``cells`` when given,
    otherwise a seeded draw from :data:`PARTITION_CELL_CHOICES` so the
    single-cell bit-identity case is exercised alongside real cuts.
    ``report.refused`` counts the cuts the partitioner refused.
    """
    _validate(max_instances=max_instances, cells=cells,
              utility_floor=utility_floor, time_budget_s=time_budget_s)
    return _campaign(
        _partition_mode(algorithm, cells, utility_floor),
        FuzzReport(
            seed=seed,
            algorithms=[algorithm],
            mode="partition",
            partition_utility_floor=utility_floor,
        ),
        max_instances, time_budget_s, shrink, out_path, progress, progress_stream,
    )


def _checked(kind: Callable[[str], object], name: str):
    """An argparse ``type``: parse with ``kind``, then :func:`_validate`."""

    def parse(text: str):
        try:
            value = kind(text)
            _validate(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Differential fuzzing of every registry USEP solver.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--max-instances",
        type=_checked(int, "max_instances"),
        default=200,
        help="stop after this many instances (default: 200)",
    )
    parser.add_argument(
        "--time-budget",
        type=_checked(float, "time_budget_s"),
        default=None,
        metavar="SECONDS",
        help="wall-clock box; stop opening new instances once exceeded",
    )
    parser.add_argument(
        "--algorithms",
        help="comma-separated registry names (default: all except Exact; "
        "churn mode defaults to the DeDP/DeDPO/DeGreedy kernel trio)",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="fuzz the dynamic mutation layer (repro.core.deltas): "
        "seeded mutation streams, delta-solve after each mutation, "
        "bit-compare against a cold solve of the mutated content",
    )
    parser.add_argument(
        "--churn-kill",
        action="store_true",
        help="churn mode pointed at a real multi-worker fleet: each "
        "stream runs over HTTP through a supervised LocalCluster, the "
        "owning worker is SIGKILLed mid-stream, and the recovered "
        "instance must match an offline uninterrupted twin bit for bit",
    )
    parser.add_argument(
        "--churn-disk",
        action="store_true",
        help="churn mode with a seeded disk fault instead of a SIGKILL: "
        "each stream boots a fleet with REPRO_DISK_FAULT armed and "
        "asserts the degradation contract — every batch 200, replies "
        "flip to durable=false, journal_degraded surfaces, zero "
        "restarts, and the instance still solves from memory",
    )
    parser.add_argument(
        "--partition",
        action="store_true",
        help="fuzz the spatial-partition layer: clustered instances "
        "solved monolithically and through solve_partitioned; the merge "
        "must be oracle-clean with utility >= --utility-floor of the "
        "monolithic plan (single-cell cuts must be bit-identical)",
    )
    parser.add_argument(
        "--cells",
        type=_checked(int, "cells"),
        default=None,
        help="partition mode: fixed cell count (default: seeded draw "
        f"from {PARTITION_CELL_CHOICES})",
    )
    parser.add_argument(
        "--utility-floor",
        type=_checked(float, "utility_floor"),
        default=PARTITION_UTILITY_FLOOR,
        help="partition mode: minimum merged/monolithic utility ratio "
        f"(default: {PARTITION_UTILITY_FLOOR})",
    )
    parser.add_argument(
        "--workers",
        type=_checked(int, "workers"),
        default=2,
        help="churn-kill / churn-disk modes: fleet size (default: 2)",
    )
    parser.add_argument(
        "--streams",
        type=_checked(int, "streams"),
        default=None,
        help="churn mode: number of mutation streams (default: 20; "
        "churn-kill and churn-disk modes default to 3 — each stream "
        "boots a fleet)",
    )
    parser.add_argument(
        "--mutations-per-stream",
        type=_checked(int, "mutations_per_stream"),
        default=30,
        help="churn mode: mutations per stream (default: 30)",
    )
    parser.add_argument(
        "--no-certify",
        action="store_true",
        help="skip the exact-solver certification pass",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="dump the original failing config without minimising it",
    )
    parser.add_argument(
        "--out",
        default="fuzz_failure.json",
        help="JSON repro path, written only on failure",
    )
    parser.add_argument("--quiet", action="store_true", help="no progress lines")
    args = parser.parse_args(argv)

    common = dict(
        seed=args.seed,
        time_budget_s=args.time_budget,
        out_path=args.out,
        progress=not args.quiet,
    )
    algorithms = args.algorithms.split(",") if args.algorithms else None
    if args.churn_disk or args.churn_kill:
        run = run_churn_disk_fuzz if args.churn_disk else run_churn_kill_fuzz
        report = run(
            streams=args.streams if args.streams is not None else 3,
            mutations_per_stream=args.mutations_per_stream,
            workers=args.workers,
            **common,
        )
    elif args.partition:
        report = run_partition_fuzz(
            max_instances=args.max_instances,
            algorithm=algorithms[0] if algorithms else "DeDPO",
            cells=args.cells,
            utility_floor=args.utility_floor,
            shrink=not args.no_shrink,
            **common,
        )
    elif args.churn:
        report = run_churn_fuzz(
            streams=args.streams if args.streams is not None else 20,
            mutations_per_stream=args.mutations_per_stream,
            algorithms=algorithms,
            shrink=not args.no_shrink,
            **common,
        )
    else:
        report = run_fuzz(
            max_instances=args.max_instances,
            algorithms=algorithms,
            certify=not args.no_certify,
            shrink=not args.no_shrink,
            **common,
        )
    print(report.summary())
    if not report.ok:
        if report.shrunk_config is not None:
            print(f"shrunk config: {report.shrunk_config}")
        if report.shrunk_mutations is not None:
            print(
                f"shrunk stream: {len(report.shrunk_mutations)} mutations "
                f"(from {len(report.failing_mutations or [])})"
            )
        if report.repro_path:
            print(f"repro written to {report.repro_path}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
