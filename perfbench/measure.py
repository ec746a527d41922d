"""The benchmark's own arithmetic: percentiles, spreads, spans, probes.

Nothing here imports the program, so the tests of this module pin the
numbers every workload reports without running a solver.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """The ``pct`` percentile by nearest rank and how many samples lie
    beyond it: rank ``r = ceil(pct/100 * n)``, value ``x[r-1]``, and
    ``n - r`` samples above that rank."""
    n = len(sorted_values)
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return sorted_values[rank - 1], n - rank


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(percentile, value, samples beyond)``.  Of ``n``
    samples that is the nearest-rank percentile ``100 * (n - 10) / n``.

    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies and
    the maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    pct = 100.0 * (n - TAIL_BEYOND) / n
    value, beyond = nearest_rank(ordered, pct)
    return pct, value, beyond


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles``
    gives them (its default exclusive method, ``n=4``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return q1, median, q3, spread


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: ``(name, start_ns, end_ns, parent, op)``.

    Spans nest on one thread, so a span's self time is its duration
    minus the durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def mark(self, names: Iterable[str]) -> None:
        """One empty span per name.  Opened before every traced op, so a
        layer that does no work in an op still reads as the tracer's own
        cost for it (under a microsecond), never as a constant 0."""
        for name in names:
            with self.span(name):
                pass

    def wrapped(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def records(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


_NO_SPAN = nullcontext()


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op when the op is untraced."""
    return _NO_SPAN if tracer is None else tracer.span(name)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time in seconds of each span (duration minus its children)."""
    own = [(s[2] - s[1]) for s in spans]
    for s in spans:
        parent = s[3]
        if parent is not None:
            own[parent] -= s[2] - s[1]
    return [ns / 1e9 for ns in own]


def op_rows(spans: Sequence[Sequence], root: str = "op") -> Dict[int, Dict[str, float]]:
    """``{op: row}``: ``row[root]`` is the op's wall time in seconds,
    ``row[root + ".self"]`` the part of it no child span covers, and
    every other key a span name with its summed self seconds."""
    rows: Dict[int, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        op = span[4]
        if op is None:
            continue
        row = rows.setdefault(op, {})
        if span[0] == root:
            row[root] = row.get(root, 0.0) + (span[2] - span[1]) / 1e9
            row[root + ".self"] = row.get(root + ".self", 0.0) + own
        else:
            row[span[0]] = row.get(span[0], 0.0) + own
    return rows


@contextmanager
def patched(module, attr: str, replacement) -> Iterator[bool]:
    """Swap ``module.attr`` for the block; yields False (and swaps
    nothing) when the attribute no longer exists."""
    original = getattr(module, attr, None)
    if original is None:
        yield False
        return
    setattr(module, attr, replacement(original))
    try:
        yield True
    finally:
        setattr(module, attr, original)


# ----------------------------------------------------------------------
# machine and process probes
# ----------------------------------------------------------------------


def speed_probe(reps: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop.

    Reported beside a run so a reader can tell a slower box from a
    slower program; never used to scale a metric.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process in MB (0 when it has gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0

