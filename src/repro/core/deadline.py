"""Cooperative solve deadlines, one per thread.

An in-process solve cannot be killed from outside, so it stops itself:
the planning service sets a monotonic deadline for the thread that runs
an attempt (:func:`deadline_at`), and the solvers' outer loops call
:func:`check`, which raises :class:`DeadlineExceeded` once that deadline
has passed.  The checks sit in the solvers' outer loops only:

* Step 1 of :class:`~repro.algorithms.decomposed.DecomposedSolver`
  (DeDPO, DeGreedy) and of :class:`~repro.algorithms.dedp.DeDP`, once
  per user;
* :meth:`~repro.algorithms.ratio_greedy._RatioGreedyEngine.run`, once
  per user while it seeds the heap and once per heap pop (RatioGreedy
  and every ``+RG`` pass).

The deadline is per thread because the server runs one handler thread
per request; one request's deadline must not stop another's solve.
With no deadline set — sweeps, the bench ledger, forked children,
whose deadline is their parent's kill — :func:`check` is one attribute
read and never raises.

Why an interrupted solve leaves nothing wrong behind: a check runs only
*between* users or heap pops, never inside a scheduler call.  The one
piece of state a solve leaves on its instance is the schedule memo
(:class:`~repro.core.candidates.ScheduleMemo`), and each memo entry is
written whole, for the exact candidate view it answers; a view is
replayed only when a later solve presents it bit for bit, and the
schedule of a view does not depend on the solve that computed it.  The
pseudo-event pools, the DeDP tensor and every planning are local to
the solve and are dropped with the exception.  So the solve after an
interrupted one is byte-identical to a cold solve.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .exceptions import ReproError


class DeadlineExceeded(ReproError):
    """A solve ran past the deadline set for its thread."""


class _ThreadDeadline(threading.local):
    #: Monotonic deadline of this thread's solve; ``None`` = unbounded.
    at: Optional[float] = None


_state = _ThreadDeadline()


def check() -> None:
    """Raise :class:`DeadlineExceeded` once this thread's deadline passed."""
    at = _state.at
    if at is not None:
        late = time.monotonic() - at
        if late >= 0.0:
            raise DeadlineExceeded(f"solve deadline passed {late:.3f}s ago")


@contextmanager
def deadline_at(at: Optional[float]) -> Iterator[None]:
    """Give this thread's solves the monotonic deadline ``at`` for the
    block (``None`` = none), restoring the previous one afterwards."""
    previous = _state.at
    _state.at = at
    try:
        yield
    finally:
        _state.at = previous
