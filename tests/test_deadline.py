"""Cooperative solve deadlines (``repro.core.deadline``).

An in-process attempt stops at its deadline within a few users' steps
and reports ``timeout``; and whatever point a solve is stopped at, the
next solve of the same instance is byte-identical to a cold solve.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_solver
from repro.core import build_cache, deadline
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.io import canonical_planning_bytes
from repro.service.executor import run_supervised


def _fresh(num_events: int, num_users: int, seed: int = 3, capacity: int = 15):
    """A new instance object with its arrays and index prebuilt, as the
    server prepares one before solving."""
    instance = generate_instance(
        SyntheticConfig(
            num_events=num_events, num_users=num_users,
            mean_capacity=capacity, seed=seed,
        )
    )
    build_cache.prepare_build(instance)
    return instance


class TestThreadDeadline:
    def test_unset_never_raises(self):
        deadline.check()

    def test_past_deadline_raises_and_block_restores(self):
        with deadline.deadline_at(0.0):
            with pytest.raises(deadline.DeadlineExceeded):
                deadline.check()
        deadline.check()

    def test_deadline_is_per_thread(self):
        raised = []

        def other():
            try:
                deadline.check()
            except deadline.DeadlineExceeded:
                raised.append(True)

        with deadline.deadline_at(0.0):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert raised == []


class TestInProcessTimeout:
    @pytest.mark.parametrize("name", ["DeDPO+RG", "DeDP", "DeGreedy"])
    def test_stops_at_the_deadline(self, name):
        """Given a twentieth of its cold time, an in-process solve stops
        near the deadline instead of running to the end.  The slack is
        60 mean users' steps (a tenth of the cold solve), for a shared
        box; running to the end takes the whole cold time."""
        cold = run_supervised(_fresh(40, 600), name, force_in_process=True)
        assert cold.ok
        budget = cold.wall_time_s / 20
        out = run_supervised(
            _fresh(40, 600), name, timeout=budget, force_in_process=True
        )
        assert out.status == "timeout"
        assert not out.supervised
        assert out.wall_time_s < budget + cold.wall_time_s / 10, (
            out.wall_time_s, budget, cold.wall_time_s,
        )
        deadline.check()  # the attempt cleared its deadline


class _StopAtCheck:
    """Stand-in for :func:`deadline.check` that raises on call ``stop``
    and counts every call."""

    def __init__(self, stop=None):
        self.stop = stop
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == self.stop:
            raise deadline.DeadlineExceeded(f"stopped at check {self.stop}")


class TestInterruptedSolveLeavesNoTrace:
    SOLVERS = ["DeDPO", "DeDP", "DeGreedy", "DeDPO+RG", "RatioGreedy"]

    @settings(max_examples=80, deadline=None)
    @given(
        stopped=st.sampled_from(SOLVERS),
        then=st.sampled_from(SOLVERS),
        where=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 3),
    )
    def test_next_solve_equals_a_cold_solve(self, stopped, then, where, seed):
        """Stop one solve at a drawn check, then solve the same instance
        again (with the same or another solver, which may share the
        schedule memo): the planning equals a cold solve's, byte for
        byte."""
        def instance():
            return _fresh(8, 30, seed, capacity=4)

        cold = canonical_planning_bytes(make_solver(then).solve(instance()))
        counter = _StopAtCheck()
        interrupted = instance()
        original = deadline.check
        deadline.check = counter
        try:
            make_solver(stopped).solve(instance())
            deadline.check = _StopAtCheck(stop=1 + int(where * counter.calls))
            with pytest.raises(deadline.DeadlineExceeded):
                make_solver(stopped).solve(interrupted)
        finally:
            deadline.check = original
        again = make_solver(then).solve(interrupted)
        assert canonical_planning_bytes(again) == cold
