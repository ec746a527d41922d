"""Per-solver micro-benchmarks on the default workload.

Unlike the figure sweeps (run once, print panels), these use
pytest-benchmark's statistics properly: each solver is timed over
multiple rounds on a fixed instance, giving stable relative timings
(the paper's running-time ordering: DeGreedy fastest, DeDP slowest).
"""

import pytest

from repro.algorithms import PAPER_ALGORITHMS, make_solver
from repro.core import validate_planning
from repro.datagen import SyntheticConfig, generate_instance

_SCALE_DIMS = {
    "tiny": dict(num_events=16, num_users=60, mean_capacity=5, grid_size=40),
    "small": dict(num_events=40, num_users=300, mean_capacity=12, grid_size=60),
    "paper": dict(num_events=100, num_users=5000, mean_capacity=50, grid_size=100),
}

_instances = {}


def _instance(bench_scale):
    if bench_scale not in _instances:
        _instances[bench_scale] = generate_instance(
            SyntheticConfig(seed=42, **_SCALE_DIMS[bench_scale])
        )
    return _instances[bench_scale]


@pytest.mark.parametrize("solver_name", PAPER_ALGORITHMS)
def test_solver_runtime(benchmark, bench_scale, solver_name):
    """Wall-clock of each of the paper's six algorithms, default workload."""
    inst = _instance(bench_scale)
    planning = benchmark(lambda: make_solver(solver_name).solve(inst))
    validate_planning(planning)
    assert planning.total_utility() > 0


def test_instance_generation(benchmark, bench_scale):
    """Workload generator throughput (synthetic, Table 7 defaults)."""
    config = SyntheticConfig(seed=1, **_SCALE_DIMS[bench_scale])
    inst = benchmark(lambda: generate_instance(config))
    assert inst.num_events == _SCALE_DIMS[bench_scale]["num_events"]


def test_record_bench_ledger(bench_scale, tmp_path):
    """Record a one-scale ledger into a scratch file.

    Asserts (via record_bench itself) that every array-kernel solver
    matches its seed twin's utility exactly.  The committed
    BENCH_solvers.json is never touched.  The ``paper`` scale is
    excluded — the seed twins take hours there.
    """
    from benchmarks.record_bench import SCALE_DIMS, record

    scale = bench_scale if bench_scale in SCALE_DIMS else "tiny"
    payload = record([scale], repeats=1, out_path=str(tmp_path / "ledger.json"))
    assert payload["results"], "ledger must contain at least one pair"
    for entry in payload["results"]:
        assert entry["after"]["utility"] == entry["before"]["utility"]
