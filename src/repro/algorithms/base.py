"""Solver interface and result records shared by all USEP algorithms.

Every algorithm in this package implements :class:`Solver`:
``solve(instance)`` returns a feasible :class:`~repro.core.planning.Planning`,
while :meth:`Solver.run` wraps it with wall-clock timing, optional
peak-memory tracking (``tracemalloc``) and optional full constraint
validation, producing a :class:`SolverResult` the experiment harness can
log directly.

Memory semantics match the paper's reporting: the paper plots memory
consumed *in addition to the input data*, so :meth:`Solver.run` starts
``tracemalloc`` after the instance exists and reports the solver's own
allocation peak.  Cost caches inside the instance are warmed first (see
``warm_instance``) so lazily built cost matrices are attributed to the
input, not to whichever solver happens to run first.
"""

from __future__ import annotations

import time
import tracemalloc
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core import instrument
from ..core.instance import USEPInstance
from ..core.planning import Planning, validate_planning


@dataclass
class SolverResult:
    """Outcome of one solver run on one instance.

    Attributes:
        solver: Registry name of the algorithm.
        planning: The planning it produced.
        utility: ``Omega(A)`` of that planning.
        wall_time_s: Wall-clock seconds spent inside ``solve``.
        peak_memory_bytes: Peak solver allocations (None if not measured).
        counters: Algorithm-specific counters (iterations, heap pushes,
            DP states, ...) for ablation reporting.
    """

    solver: str
    planning: Planning
    utility: float
    wall_time_s: float
    peak_memory_bytes: Optional[int] = None
    counters: Dict[str, int] = field(default_factory=dict)

    def summary_row(self) -> Dict[str, object]:
        """Flat dict for CSV/table output."""
        row: Dict[str, object] = {
            "solver": self.solver,
            "utility": round(self.utility, 6),
            "time_s": round(self.wall_time_s, 6),
        }
        if self.peak_memory_bytes is not None:
            row["peak_mem_kb"] = self.peak_memory_bytes // 1024
        row.update(self.counters)
        return row


def warm_instance(instance: USEPInstance) -> None:
    """Materialise the instance's lazy cost caches and array layer.

    Called before memory measurement so the |V| x |V| cost matrix,
    per-user cost rows and the precomputed
    :class:`~repro.core.arrays.InstanceArrays` count as input data (as
    in the paper's memory plots), not as solver working set.  Building
    the array layer builds all three; user rows only when the instance
    caches them.
    """
    instance.arrays()


class Solver(ABC):
    """Base class for USEP planning algorithms."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def solve(self, instance: USEPInstance) -> Planning:
        """Compute a feasible planning for the instance."""

    def run(
        self,
        instance: USEPInstance,
        measure_memory: bool = False,
        validate: bool = False,
        profile: bool = False,
    ) -> SolverResult:
        """Solve with instrumentation.

        Args:
            instance: The problem instance.
            measure_memory: Track the solver's own peak allocations with
                ``tracemalloc`` (slows the run down; off by default).
            validate: Re-verify all four USEP constraints on the result
                (tests always do; benchmarks usually skip).
            profile: Collect the incremental engine's diagnostic
                counters (DP states expanded, candidates pruned, memo
                hits/misses — see :mod:`repro.core.instrument`) and
                merge them into :attr:`SolverResult.counters`.  Off by
                default: the counters depend on cache warmth, so they
                are kept out of rows whose byte-identity matters
                (journals, parallel-vs-sequential sweeps).
        """
        profile_counters: Dict[str, int] = {}
        peak: Optional[int] = None
        with instrument.profiled(enabled=profile) as prof:
            if measure_memory:
                warm_instance(instance)
                tracemalloc.start()
                try:
                    start = time.perf_counter()
                    planning = self.solve(instance)
                    elapsed = time.perf_counter() - start
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            else:
                start = time.perf_counter()
                planning = self.solve(instance)
                elapsed = time.perf_counter() - start
            if prof is not None:
                profile_counters = dict(prof)
        if validate:
            validate_planning(planning)
        counters = dict(getattr(self, "counters", {}))
        counters.update(profile_counters)
        return SolverResult(
            solver=self.name,
            planning=planning,
            utility=planning.total_utility(),
            wall_time_s=elapsed,
            peak_memory_bytes=peak,
            counters=counters,
        )


def ratio_sort_key(mu: float, inc_cost: float, event_id: int, user_id: int):
    """Deterministic min-heap key implementing the paper's ratio order.

    Equation (2): larger ``ratio = mu / inc_cost`` first; the paper
    breaks ratio ties by smaller ``inc_cost``.  A zero (or, with
    non-metric matrices, negative) incremental cost makes the pair
    free — those rank above everything, ordered by larger ``mu``.
    Remaining ties fall back to event id then user id so runs are
    reproducible.
    """
    if inc_cost <= 0.0:
        ratio = float("inf")
    else:
        ratio = mu / inc_cost
    return (-ratio, inc_cost, -mu, event_id, user_id)
