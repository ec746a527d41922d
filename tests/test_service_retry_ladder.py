"""Tests for the retry policy, circuit breaker and degradation ladder."""

import pytest

from repro.algorithms.registry import available_solvers
from repro.service.ladder import (
    DEFAULT_LADDER,
    guarantee_of,
    ladder_for,
    parse_ladder,
)
from repro.service.retry import CircuitBreaker, RetryPolicy


class TestRetryPolicy:
    def test_delay_count_matches_max_retries(self):
        assert len(RetryPolicy(max_retries=4).preview()) == 4
        assert RetryPolicy(max_retries=0).preview() == []

    def test_full_jitter_bounds(self):
        policy = RetryPolicy(
            max_retries=6, base_delay_s=0.1, max_delay_s=1.0, seed=3
        )
        for attempt, delay in enumerate(policy.delays()):
            assert 0.0 <= delay <= min(1.0, 0.1 * 2 ** attempt)

    def test_deterministic_per_seed(self):
        a = RetryPolicy(max_retries=5, seed=17).preview()
        b = RetryPolicy(max_retries=5, seed=17).preview()
        c = RetryPolicy(max_retries=5, seed=18).preview()
        assert a == b
        assert a != c

    def test_cap_applies(self):
        policy = RetryPolicy(
            max_retries=10, base_delay_s=1.0, max_delay_s=0.25, seed=0
        )
        assert all(d <= 0.25 for d in policy.delays())


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        assert not breaker.is_open("DeDPO")
        breaker.record_failure("DeDPO")
        assert not breaker.is_open("DeDPO")
        breaker.record_failure("DeDPO")
        assert breaker.is_open("DeDPO")

    def test_success_closes(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("DeDPO")
        breaker.record_failure("DeDPO")
        breaker.record_success("DeDPO")
        assert not breaker.is_open("DeDPO")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("DeDPO")
        assert breaker.is_open("DeDPO")
        assert not breaker.is_open("DeGreedy")

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(10):
            breaker.record_failure("DeDPO")
        assert not breaker.is_open("DeDPO")


class TestLadder:
    def test_default_ladder_names_are_registered(self):
        registered = set(available_solvers())
        assert set(DEFAULT_LADDER) <= registered

    def test_parse_arrow_spec_case_insensitive(self):
        rungs = parse_ladder("exact->dedpo+rg->degreedy->ratio-greedy")
        assert rungs == ["Exact", "DeDPO+RG", "DeGreedy", "RatioGreedy"]

    def test_parse_comma_and_exact_names(self):
        assert parse_ladder("DeDPO, DeGreedy") == ["DeDPO", "DeGreedy"]

    def test_parse_unknown_rung(self):
        with pytest.raises(ValueError, match="unknown ladder rung"):
            parse_ladder("dedpo->nosuchsolver")

    def test_parse_empty(self):
        with pytest.raises(ValueError):
            parse_ladder("  ->  ")

    def test_ladder_for_dedupes_primary(self):
        # RatioGreedy, the slowest solver, is no default rung.
        rungs = ladder_for("DeGreedy", DEFAULT_LADDER)
        assert rungs == ["DeGreedy", "DeDPO+RG"]

    def test_guarantees(self):
        assert guarantee_of("Exact") == "optimal"
        assert guarantee_of("DeDP") == "1/2-approx"
        assert guarantee_of("DeDPO+RG") == "1/2-approx"
        assert guarantee_of("DeGreedy") == "heuristic"
        assert guarantee_of("RatioGreedy") == "heuristic"
