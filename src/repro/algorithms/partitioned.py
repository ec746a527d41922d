"""Partitioned solving: local scatter/gather over grid-cell sub-instances.

:func:`solve_partitioned` is the single-process twin of the fleet
scatter path (:mod:`repro.service.scatter`): it cuts the instance with
:func:`repro.core.partition.partition_instance`, solves every cell with
an unmodified registry solver (each cell builds its *own* small array
layer and candidate index, which is where the win comes from — the sum
of per-cell ``|V_c| x |U_c|`` work is roughly ``1/k`` of the monolithic
product on clustered geography), and merges the per-cell plans with
:func:`repro.core.partition.reconcile`.

The merged planning follows the partition layer's quality contract —
Definition-2 feasible, utility expected within a configured fraction of
the monolithic solve, byte-identical only in the single-cell degenerate
case — so callers that need a hard guarantee gate the result through
:func:`repro.verify.oracle.verify_schedules` (the service layer always
does before returning a 200).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core import instrument
from ..core.instance import USEPInstance
from ..core.partition import (
    DEFAULT_REPAIR_PASSES,
    GridPartition,
    partition_instance,
    reconcile,
)
from ..core.planning import Planning
from .registry import make_solver


def solve_subinstance(
    instance: USEPInstance, algorithm: str = "DeDPO"
) -> Dict[int, List[int]]:
    """Solve one (sub-)instance and return its plan as a schedule dict.

    The worker fleet's ``POST /subsolve`` endpoint and the local
    scatter loop share this: an unmodified registry solver runs on the
    renumbered cell instance — every kernel sees a perfectly ordinary
    ``USEPInstance``.
    """
    if not instance.num_users:
        return {}
    return make_solver(algorithm).solve(instance).as_dict()


@dataclass
class PartitionedSolve:
    """Outcome of one partitioned solve.

    Attributes:
        planning: The merged global planning.
        partition: The grid cut that produced it.
        cell_plans: Per-cell plans in *global* ids, cell order.
        reconcile_stats: Counters from the merge (boundary conflicts,
            repair passes, ...).
        algorithm: Registry solver used per cell.
    """

    planning: Planning
    partition: GridPartition
    cell_plans: List[Dict[int, List[int]]]
    reconcile_stats: Dict[str, int]
    algorithm: str

    def describe(self) -> Dict[str, object]:
        """One JSON-ready summary block (service responses, bench rows)."""
        summary: Dict[str, object] = {"algorithm": self.algorithm}
        summary.update(self.partition.describe())
        summary.update(self.reconcile_stats)
        return summary


def solve_partitioned(
    instance: USEPInstance,
    algorithm: str = "DeDPO",
    cells: int = 4,
    repair_passes: int = DEFAULT_REPAIR_PASSES,
    solve_cell=None,
) -> PartitionedSolve:
    """Partition, solve every cell, reconcile.

    Args:
        instance: The huge instance to cut.
        algorithm: Registry solver run on each cell unchanged.
        cells: Target cell count (clamped to ``[1, |V|]``).
        repair_passes: Bound on the boundary repair sweeps.
        solve_cell: Optional override ``(sub) -> {local user: [local
            events]}`` — the fleet scatter path injects its HTTP fan-out
            here; tests inject adversarial partial plans.

    Raises:
        PartitionError: When the instance cannot be cut (callers fall
            back to a monolithic solve).
    """
    partition = partition_instance(instance, cells=cells)
    if solve_cell is None:
        solve_cell = lambda sub: solve_subinstance(  # noqa: E731
            sub.instance, algorithm
        )
    cell_plans: List[Dict[int, List[int]]] = []
    for sub in partition.cells:
        local_plan = solve_cell(sub) if sub.user_ids else {}
        cell_plans.append(sub.to_global_plan(local_plan))
        prof = instrument.active()
        if prof is not None:
            prof.add("partition_subsolves")
    planning, stats = reconcile(
        instance,
        cell_plans,
        [sub.user_ids for sub in partition.cells],
        repair_passes=repair_passes,
    )
    return PartitionedSolve(
        planning=planning,
        partition=partition,
        cell_plans=cell_plans,
        reconcile_stats=stats,
        algorithm=algorithm,
    )
