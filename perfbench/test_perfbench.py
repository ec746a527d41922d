"""Tests of the benchmark's own arithmetic and input mirrors.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import measure  # noqa: E402
from local import Check, independent_check  # noqa: E402

#: Metric and workload names: a letter or digit, then up to 63 letters,
#: digits, ``_``, ``.`` or ``-``.  Units: 1 to 16 letters, digits,
#: ``_``, ``/``, ``%``, ``.`` or ``-``.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT.fullmatch(unit) is not None


# -- tail percentile ------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (11, 100.0 / 11, 10),
        (20, 50.0, 10),
        (32, 68.75, 10),
        (40, 75.0, 10),
        (100, 90.0, 10),
        (1000, 99.0, 10),
        (10000, 99.9, 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct, beyond):
    got_pct, value, got_beyond = measure.tail(range(n))
    assert got_pct == pytest.approx(pct) and got_beyond == beyond
    assert got_beyond >= measure.TAIL_BEYOND
    # Exactly `beyond` samples are larger than the reported value.
    assert sum(1 for x in range(n) if x > value) == beyond


def test_tail_of_too_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert measure.tail(range(10)) == (100.0, 9, 0)


def test_nearest_rank_hand_example():
    values = sorted([15, 20, 35, 40, 50])
    assert measure.nearest_rank(values, 30) == (20, 3)
    assert measure.nearest_rank(values, 40) == (20, 3)
    assert measure.nearest_rank(values, 50) == (35, 2)
    assert measure.nearest_rank(values, 100) == (50, 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
    q1, med, q3, spread = measure.quartile_spread(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert spread == pytest.approx((q3 - q1) / med)


# -- capacity bound -------------------------------------------------------


def test_capacity_bound_hand_checked():
    mu = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, -0.3]])
    # Event 0 keeps its 2 best (0.9 + 0.5); event 1 has room for all
    # three users, and a negative utility is never arranged.
    assert inputs.capacity_bound(mu, np.array([2, 5])) == pytest.approx(2.4)
    assert inputs.capacity_bound(mu, np.array([1, 1])) == pytest.approx(1.7)


@pytest.mark.parametrize("seed", range(6))
def test_planning_utility_never_exceeds_the_bound(seed):
    from repro.algorithms.registry import make_solver
    from repro.io import instance_from_dict

    for drawn in (
        inputs.uniform_instance(seed, 0, 8, 30, 3),
        inputs.clustered_instance(seed, 1, 10, 40, 4),
    ):
        instance = instance_from_dict(drawn.to_wire())
        for name in ("DeDPO+RG", "RatioGreedy"):
            planning = make_solver(name).solve(instance)
            assert planning.total_utility() <= drawn.bound() + 1e-9


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # op [0,100] > a [10,40] > b [20,30];  op > c [50,90]
    spans = [
        ["op", 0, 100_000, None, 7],
        ["a", 10_000, 40_000, 0, 7],
        ["b", 20_000, 30_000, 1, 7],
        ["c", 50_000, 90_000, 0, 7],
    ]
    assert measure.self_times(spans) == pytest.approx([30e-6, 20e-6, 10e-6, 40e-6])
    assert measure.op_rows(spans) == {7: pytest.approx(
        {"op": 100e-6, "op.self": 30e-6, "a": 20e-6, "b": 10e-6, "c": 40e-6}
    )}
    # The layers' self times and the op's own glue add up to the op.
    assert sum(measure.self_times(spans)) == pytest.approx(100e-6)


def test_tracer_records_nesting_and_wrapped_calls():
    tracer = measure.Tracer()
    tracer.op = 3
    tracer.mark(["idle"])
    double = tracer.wrapped("inner", lambda x: 2 * x)
    with tracer.span("op"):
        with tracer.span("outer"):
            assert double(4) == 8
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("idle", None, 3), ("op", None, 3), ("outer", 1, 3), ("inner", 2, 3)]
    row = measure.op_rows(tracer.spans)[3]
    assert row["idle"] >= 0
    assert row["outer"] + row["inner"] + row["op.self"] == pytest.approx(row["op"])


def test_patched_restores_and_tolerates_a_missing_attribute():
    class Module:
        @staticmethod
        def f():
            return 1

    with measure.patched(Module, "f", lambda fn: lambda: fn() + 1) as swapped:
        assert swapped and Module.f() == 2
    assert Module.f() == 1
    with measure.patched(Module, "gone", lambda fn: fn) as swapped:
        assert not swapped


# -- names, units and the benchmark file ----------------------------------


@pytest.mark.parametrize("name", ["p50_s", "io.decode_s", "a", "9x", "x-y.z_1", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "a" * 65])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("s", "ms", "1/s", "count", "ratio", "MB", "%", "a.b-c_d"):
        assert valid_unit(unit)
    for unit in ("", "m s", "x" * 17, "s!"):
        assert not valid_unit(unit)


def test_benchmark_file_follows_the_contract():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -- the replay loop -------------------------------------------------------


class FakeReplayed:
    """A replayed workload whose ops take no time and whose seventh op
    can return a different plan from the first replay of its input."""

    inputs = 4
    requests_per_op = 1

    def __init__(self, diverge_at=None):
        self.prepared, self.runs = [], []
        self.diverge_at = diverge_at

    def prepare(self, j):
        self.prepared.append(j)
        return j

    def stage(self, inp):
        return inp

    def run_op(self, arg, tracer):
        self.runs.append((arg, tracer is not None))
        return len(self.runs) - 1

    def check(self, j, inp, result):
        check = Check(omega=1.0, bound=2.0)
        check.output = b"other" if result == self.diverge_at else b"plan"
        return check

    def counts(self, result):
        return {}


def test_replay_loop_runs_every_input_the_floor_of_rounds():
    import run

    fake = FakeReplayed()
    loop = run.timed_loop(fake, 0.0, None)
    assert fake.prepared == [0, 1, 2, 3]
    assert [arg for arg, _ in fake.runs] == [0, 1, 2, 3] * run.MIN_ROUNDS
    assert (loop.ops, loop.rounds, loop.failed) == (12, run.MIN_ROUNDS, 0)
    assert {j: len(v) for j, v in loop.untraced.items()} == {j: 3 for j in range(4)}
    # utility_ratio covers the first round only: one plan per input.
    assert (loop.omega, loop.bound) == (4.0, 8.0)


def test_replay_that_changes_its_plan_fails_the_gate():
    import run

    loop = run.timed_loop(FakeReplayed(diverge_at=6), 0.0, None)
    assert loop.failed == 1
    assert "replay differs" in loop.notes[0]


def test_traced_run_traces_every_input_in_alternate_rounds():
    import run

    fake = FakeReplayed()
    loop = run.timed_loop(fake, 0.0, measure.Tracer())
    traced = {}
    for arg, is_traced in fake.runs:
        traced.setdefault(arg, []).append(is_traced)
    assert all(flags[0] != flags[1] for flags in traced.values())
    assert sorted(loop.untraced) == sorted(loop.traced) == [0, 1, 2, 3]


# -- the churn mirror and the independent check --------------------------


def test_churn_mirror_tracks_the_program_through_every_kind():
    from repro.core.deltas import apply_mutations
    from repro.io import instance_from_dict, mutations_from_list

    drawn = inputs.uniform_instance(5, 0, 6, 25, 4)
    mirror = inputs.ChurnMirror(drawn, 5, 1)
    instance = instance_from_dict(drawn.to_wire())
    kinds = set()
    for _ in range(200):
        wire = mirror.draw()
        kinds.add(wire["op"])
        apply_mutations(instance, mutations_from_list([wire]))
    assert kinds == {kind for kind, _ in inputs.CHURN_MIX}
    assert np.array_equal(instance.utility_matrix(), mirror.mu)
    assert [u.budget for u in instance.users] == list(mirror.budgets)


def test_same_seed_same_inputs():
    a = inputs.clustered_instance(3, 2, 10, 50, 5).to_wire()
    b = inputs.clustered_instance(3, 2, 10, 50, 5).to_wire()
    c = inputs.clustered_instance(4, 2, 10, 50, 5).to_wire()
    assert a == b and a != c


def test_independent_check_catches_overbooking_and_wrong_utility():
    mu = np.array([[0.5, 0.25], [0.125, 1.0]])
    caps = np.array([1, 2])
    ok = Check()
    assert independent_check(ok, {0: [0], 1: [1]}, mu, caps, 1.5, 2.0) == 1.5
    assert not ok.failed
    over = Check()
    independent_check(over, {0: [0], 1: [0]}, mu, caps, 0.75, 2.0)
    assert over.failed
    wrong = Check()
    independent_check(wrong, {0: [0]}, mu, caps, 0.6, 2.0)
    assert wrong.failed
