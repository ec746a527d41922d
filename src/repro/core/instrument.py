"""Zero-overhead-when-off instrumentation counters for the solver hot paths.

The incremental scheduling engine (``docs/performance.md``) wants
fine-grained visibility — DP calls actually executed, states expanded,
candidates pruned by the Lemma 1 index, memo hits — but those live in
loops that run millions of times, so they cannot pay for a counter
object when nobody is looking.  The contract here:

* :func:`active` returns the current :class:`ProfileCounters` or
  ``None``.  Hot paths read it **once** per call/solve into a local and
  guard every recording site with ``if prof is not None`` — when
  profiling is off the entire cost is one module-dict read per solve.
* :func:`profiled` is a re-entrant context manager that installs a
  fresh counter set for the duration of a block (used by
  ``Solver.run(profile=True)``) and restores the previous one after.

Counters recorded here are *diagnostics*, not results: they may depend
on cache warmth, process reuse and worker scheduling, so they are kept
out of default sweep rows and checkpoint journals — they only appear
when the user opts in via ``--profile`` (or the bench ledger's
dedicated profiled pass).  Plannings never depend on profiling state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Prefixes of counter keys this module's users emit; the CLI's
#: ``--profile`` report aggregates exactly these across sweep rows.
PROFILE_KEY_PREFIXES = (
    "dp_",
    "greedy_",
    "sched_",
    "candidates_",
    "index_",
    "partition_",
)


class ProfileCounters(Dict[str, int]):
    """A plain ``{key: int}`` dict with an accumulate helper."""

    def add(self, key: str, amount: int = 1) -> None:
        self[key] = self.get(key, 0) + amount


#: The active counter set; ``None`` means profiling is off.
_active: Optional[ProfileCounters] = None


def active() -> Optional[ProfileCounters]:
    """The installed counter set, or None when profiling is off."""
    return _active


def enable() -> ProfileCounters:
    """Install (and return) a fresh counter set."""
    global _active
    _active = ProfileCounters()
    return _active


def disable() -> None:
    """Turn profiling off."""
    global _active
    _active = None


@contextmanager
def profiled(enabled: bool = True) -> Iterator[Optional[ProfileCounters]]:
    """Profile a block with a fresh counter set; restores the previous
    state (including "off") on exit, so nesting is safe.

    With ``enabled=False`` the block runs under whatever state was
    already installed and yields ``None`` — callers can thread a
    ``profile`` flag without branching around the ``with``.
    """
    global _active
    if not enabled:
        yield None
        return
    previous = _active
    counters = ProfileCounters()
    _active = counters
    try:
        yield counters
    finally:
        _active = previous


def is_profile_key(key: str) -> bool:
    """Whether a row field was emitted by this module's users."""
    return key.startswith(PROFILE_KEY_PREFIXES)
