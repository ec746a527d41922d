"""Fault-tolerant execution layer for sweeps and solver runs.

This package makes the experiment harness survive the failure modes a
production planner meets — hung solvers, crashed workers, flaky
infrastructure, corrupted results — without losing completed work or
reporting a bad plan:

* :mod:`repro.service.executor` — run one algorithm in a supervised,
  deadline-bounded forked child; hangs and crashes become structured
  outcomes instead of sweep-fatal events.
* :mod:`repro.service.retry` — exponential backoff with full jitter
  for transient faults, plus a per-algorithm circuit breaker.
* :mod:`repro.service.ladder` — the degradation ladder: under a
  deadline, fall back ``exact -> dedpo+rg -> degreedy -> ratio-greedy``
  style chains and tag the result with the rung (and approximation
  guarantee) that produced it.
* :mod:`repro.service.runner` — :class:`ResilientRunner` composes the
  three with the independent :mod:`repro.verify` oracle as acceptance
  gate: no plan is reported unless it passes Definition 2 verification.
* :mod:`repro.service.checkpoint` — JSONL journal giving
  ``run_sweep`` checkpoint/resume: a killed sweep replays its journal
  and reruns only the missing cells.  It and the per-instance journals
  write through one record log, :mod:`repro.service.recordlog`.
* :mod:`repro.service.faults` — seeded, deterministic fault injection
  used by the chaos suite to prove each recovery path fires.

* :mod:`repro.service.admission` / :mod:`repro.service.server` — the
  online planning daemon (``repro-usep serve``): admission control,
  bounded queueing, rate limiting, queue-pressure degradation and
  overload shedding in front of the same supervised executor + oracle
  gate.

See ``docs/robustness.md`` for ladder semantics, the checkpoint format
and the fault taxonomy, and ``docs/serving.md`` for the HTTP API.
"""

from .admission import AdmissionConfig, AdmissionController, Shed, Ticket, TokenBucket
from .checkpoint import (
    JournalLockedError,
    JournalMismatchError,
    SweepJournal,
    canonical_bytes,
    load_rows,
    strip_timing,
)
from .executor import ExecutionOutcome, fork_supported, run_supervised
from .faults import FaultPlan, FaultSpec, TransientFault, install
from .ladder import DEFAULT_LADDER, guarantee_of, ladder_for, parse_ladder
from .retry import CircuitBreaker, RetryPolicy
from .runner import ResilientRunner, ServiceConfig
from .server import PlanningServer, ServerConfig, make_server

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "ExecutionOutcome",
    "FaultPlan",
    "FaultSpec",
    "JournalLockedError",
    "JournalMismatchError",
    "PlanningServer",
    "ResilientRunner",
    "RetryPolicy",
    "ServerConfig",
    "ServiceConfig",
    "Shed",
    "SweepJournal",
    "Ticket",
    "TokenBucket",
    "TransientFault",
    "make_server",
    "canonical_bytes",
    "fork_supported",
    "guarantee_of",
    "install",
    "ladder_for",
    "load_rows",
    "parse_ladder",
    "run_supervised",
    "strip_timing",
]
