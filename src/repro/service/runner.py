"""The resilient cell runner: deadline -> retry -> ladder -> oracle.

:class:`ResilientRunner` executes one sweep cell under the full
recovery policy and returns a flat row fragment the harness merges into
its result rows.  The policy, in order:

1. **Circuit breaker** — if the cell's requested algorithm has already
   failed ``breaker_threshold`` cells in this sweep, the cell is
   skipped outright (``status="skipped"``) instead of re-paying
   timeout x retries x ladder for a solver that is clearly broken.
2. **Supervised attempt** — the rung runs in a forked child under the
   wall-clock deadline (:mod:`repro.service.executor`).
3. **Retry** — a plain exception (``status="error"``) is treated as
   potentially transient and retried up to ``max_retries`` times with
   exponential backoff + full jitter.  Timeouts, crashes and memory
   blow-ups are *not* retried: a deterministic hang hangs again, so the
   budget is better spent one rung down.
4. **Oracle gate** — every delivered plan is checked by the
   independent :mod:`repro.verify` oracle before being accepted; an
   infeasible (e.g. corrupted-in-flight) plan counts as a rung failure
   and is never reported as a result.
5. **Degradation ladder** — on rung failure the next ladder rung runs
   under the same policy.  The row records which rung finally produced
   the plan (``degraded_to``/``rung``) and the approximation guarantee
   that rung still carries (Theorem 3 for the DeDP family, heuristic
   for the greedy tail).

Determinism: for a fixed instance, fault plan and service seed, the
sequence of attempts, retry counts, chosen rung and backoff delays are
identical across runs — the chaos determinism suite asserts this at
the journal-byte level.

The breaker is per :class:`ResilientRunner` instance; in parallel
sweeps each fork-pool worker carries its own copy, so breaker state is
per-worker there (a broken algorithm trips ``threshold`` times per
worker instead of per sweep — still bounded, just less aggressive).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import build_cache
from ..core.instance import USEPInstance
from ..verify.oracle import verify_schedules
from .executor import ExecutionOutcome, run_supervised
from .ladder import DEFAULT_LADDER, guarantee_of, ladder_for
from .retry import CircuitBreaker, RetryPolicy

#: Cell statuses the runner can report (rows carry exactly one).
CELL_STATUSES = ("ok", "degraded", "error", "skipped")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the fault-tolerant execution layer.

    Attributes:
        timeout: Per-attempt wall-clock deadline in seconds (None
            disables deadline supervision but keeps crash containment).
        ladder: Fallback rungs tried after the requested algorithm
            fails (registry names, strongest first).
        max_retries: Retries per rung for transient (exception)
            failures.
        base_delay_s / max_delay_s: Backoff shape (full jitter).
        breaker_threshold: Failed cells per algorithm before its cells
            are skipped; ``0`` disables the breaker.
        seed: Seeds the per-cell jitter streams (and nothing else).
        verify: Oracle-check every delivered plan (the chaos guardrail;
            only the overhead benchmark turns this off).
        force_in_process: Run attempts without forking even where fork
            exists (fallback-path tests).
    """

    timeout: Optional[float] = None
    ladder: Tuple[str, ...] = tuple(DEFAULT_LADDER)
    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    breaker_threshold: int = 3
    seed: int = 0
    verify: bool = True
    force_in_process: bool = False


@dataclass
class _RungFailure:
    """One failed rung: how it failed and after how many attempts."""

    rung: str
    reason: str  # timeout | crash | error | memory | infeasible | circuit-open
    attempts: int
    detail: Optional[str] = None

    @property
    def tag(self) -> str:
        return f"{self.rung}:{self.reason}"


class ResilientRunner:
    """Executes sweep cells under one :class:`ServiceConfig`."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.breaker = CircuitBreaker(config.breaker_threshold)

    # -- public --------------------------------------------------------
    def run_cell(
        self,
        instance: USEPInstance,
        name: str,
        point_index: int,
        measure_memory: bool = False,
        profile: bool = False,
    ) -> Dict[str, object]:
        """Run one (point, algorithm) cell; always returns a row.

        The row's ``status`` is one of :data:`CELL_STATUSES`; a plan is
        present (``utility`` et al.) exactly for ``ok``/``degraded``,
        and any reported plan has passed the independent oracle.

        The cell pre-warms the incremental engine build *parent-side*,
        so every supervised (forked) attempt — retries and all ladder
        rungs — inherits one set of arrays and one candidate index
        through copy-on-write instead of rebuilding them per child.
        With ``profile=True`` the engine's diagnostic counters land in
        the row.
        """
        config = self.config
        started = time.monotonic()
        try:
            build_cache.prepare_build(instance)
        except Exception:
            # A failing parent-side build must not take the cell down:
            # the supervised child rebuilds on its own and reports any
            # failure as a structured error outcome.
            pass
        if self.breaker.is_open(name):
            return self._finish(
                {
                    "solver": name,
                    "status": "skipped",
                    "utility": None,
                    "degraded_to": None,
                    "retries": 0,
                    "verified": False,
                    "error": (
                        f"circuit open: {name} failed "
                        f"{self.breaker.failures(name)} cell(s) in this sweep"
                    ),
                },
                started,
            )

        failures: List[_RungFailure] = []
        retries = 0
        for rung_index, rung in enumerate(ladder_for(name, config.ladder)):
            if rung_index > 0 and self.breaker.is_open(rung):
                failures.append(
                    _RungFailure(rung, "circuit-open", 0)
                )
                continue
            policy = RetryPolicy(
                max_retries=config.max_retries,
                base_delay_s=config.base_delay_s,
                max_delay_s=config.max_delay_s,
                seed=self._cell_seed(point_index, rung),
            )
            delays = policy.preview()
            attempt = 0
            while True:
                outcome = run_supervised(
                    instance,
                    rung,
                    timeout=config.timeout,
                    measure_memory=measure_memory,
                    cell=(point_index, rung),
                    attempt=attempt,
                    force_in_process=config.force_in_process,
                    profile=profile,
                )
                if outcome.ok:
                    verdict = self._gate(instance, outcome)
                    if verdict is None:
                        self.breaker.record_success(rung)
                        row = self._success_row(
                            name, rung, rung_index, retries, outcome, failures
                        )
                        return self._finish(row, started)
                    # Oracle rejection: never retried (the same solve
                    # would deliver the same bad plan) — fall one rung.
                    failures.append(
                        _RungFailure(rung, "infeasible", attempt + 1, verdict)
                    )
                    self.breaker.record_failure(rung)
                    break
                if outcome.status == "error" and attempt < policy.max_retries:
                    time.sleep(delays[attempt])
                    attempt += 1
                    retries += 1
                    continue
                failures.append(
                    _RungFailure(
                        rung, outcome.status, attempt + 1, outcome.error
                    )
                )
                self.breaker.record_failure(rung)
                break

        last_detail = failures[-1].detail if failures else None
        return self._finish(
            {
                "solver": name,
                "status": "error",
                "utility": None,
                "degraded_to": None,
                "retries": retries,
                "verified": False,
                "failures": ";".join(f.tag for f in failures),
                "error": last_detail
                or "all ladder rungs failed without further detail",
            },
            started,
        )

    # -- internals -----------------------------------------------------
    def _cell_seed(self, point_index: int, rung: str) -> int:
        """Deterministic jitter seed per (service seed, point, rung)."""
        return zlib.crc32(
            f"{self.config.seed}:{point_index}:{rung}".encode()
        )

    def _gate(
        self, instance: USEPInstance, outcome: ExecutionOutcome
    ) -> Optional[str]:
        """Oracle-check a delivered plan; None = accepted."""
        if not self.config.verify:
            return None
        report = verify_schedules(
            instance, outcome.schedules or {}, reported_utility=outcome.utility
        )
        return None if report.ok else report.summary()

    def _success_row(
        self,
        requested: str,
        rung: str,
        rung_index: int,
        retries: int,
        outcome: ExecutionOutcome,
        failures: List[_RungFailure],
    ) -> Dict[str, object]:
        row: Dict[str, object] = {
            "solver": requested,
            "status": "ok" if rung_index == 0 else "degraded",
            "utility": round(float(outcome.utility), 6),
            "time_s": round(
                outcome.solve_time_s
                if outcome.solve_time_s is not None
                else outcome.wall_time_s,
                6,
            ),
            "degraded_to": None if rung_index == 0 else rung,
            "rung": rung_index,
            "guarantee": guarantee_of(rung),
            "retries": retries,
            "verified": True,
            "oracle_violations": 0,
            "supervised": outcome.supervised,
        }
        if failures:
            row["failures"] = ";".join(f.tag for f in failures)
        if outcome.peak_memory_bytes is not None:
            row["peak_mem_kb"] = outcome.peak_memory_bytes // 1024
        row.update(outcome.counters)
        return row

    def _finish(
        self, row: Dict[str, object], started: float
    ) -> Dict[str, object]:
        row["service_time_s"] = round(time.monotonic() - started, 6)
        return row
