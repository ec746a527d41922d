"""The degradation ladder: which cheaper algorithm to fall back to.

The paper itself motivates the rungs: the DeDP family keeps Theorem 3's
half-approximation guarantee and DeGreedy trades that guarantee for
orders-of-magnitude speed (Section 4.4).  Under a deadline the service
layer walks this ladder instead of failing the cell, and tags the row
with the rung (and therefore the guarantee) that actually produced the
plan.  RatioGreedy is not a default rung: it is the slowest of the
three solvers at every timed size (about 15x DeDPO+RG at |V|=40
|U|=600), so a queue-pressure shift onto it would send a burst to the
slowest solver.  It stays available as an explicit ``--ladder`` rung.

Ladder specs are user-facing strings — ``"exact->dedpo+rg->degreedy"``
or comma-separated — matched case-insensitively against the registry
(``ratio-greedy``, ``RatioGreedy`` and ``ratiogreedy`` all resolve).
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

from ..algorithms.registry import available_solvers

#: Default fallback chain (after whatever algorithm the cell asked
#: for): keep the 1/2-approximation as long as possible, then take the
#: paper's speed ladder down.  Each rung is cheaper than the one
#: before, which queue-pressure degradation relies on.
DEFAULT_LADDER: List[str] = ["DeDPO+RG", "DeGreedy"]

#: What each rung guarantees about the returned plan, relative to the
#: optimal Omega (documented in docs/robustness.md).
GUARANTEES: Dict[str, str] = {
    "Exact": "optimal",
    "DeDP": "1/2-approx",
    "DeDP-seed": "1/2-approx",
    "DeDP+RG": "1/2-approx",
    "DeDPO": "1/2-approx",
    "DeDPO-seed": "1/2-approx",
    "DeDPO-dense": "1/2-approx",
    "DeDPO+RG": "1/2-approx",
    "DeDPO+LS": "1/2-approx",
}


def guarantee_of(name: str) -> str:
    """Approximation guarantee of one registry algorithm."""
    return GUARANTEES.get(name, "heuristic")


def _normalise(token: str) -> str:
    """Case/punctuation-insensitive form: 'Ratio-Greedy ' -> 'ratiogreedy'."""
    return re.sub(r"[\s_\-]", "", token.lower())


def parse_ladder(spec: str) -> List[str]:
    """Parse a ladder spec string into registry names.

    Accepts ``->``, ``>`` or ``,`` separators; names are matched
    case-insensitively, ignoring spaces/hyphens/underscores.  Raises
    ``ValueError`` on an unknown rung or an empty spec.
    """
    lookup = {_normalise(name): name for name in available_solvers()}
    rungs: List[str] = []
    for token in re.split(r"->|>|,", spec):
        token = token.strip()
        if not token:
            continue
        key = _normalise(token)
        if key not in lookup:
            raise ValueError(
                f"unknown ladder rung {token!r}; available: "
                f"{', '.join(available_solvers())}"
            )
        rungs.append(lookup[key])
    if not rungs:
        raise ValueError(f"empty ladder spec {spec!r}")
    return rungs


def ladder_for(primary: str, ladder: Sequence[str]) -> List[str]:
    """The full rung sequence for one cell: primary first, no repeats."""
    rungs = [primary]
    for name in ladder:
        if name not in rungs:
            rungs.append(name)
    return rungs


def start_rung(rungs: Sequence[str], shift: int) -> int:
    """Index of the first rung a request tries after a queue-pressure
    ``shift``: capped so the last rung is always left to try."""
    return min(shift, len(rungs) - 1)
