"""Instance content fingerprints and the up-front shared build.

:func:`instance_fingerprint` hashes everything an instance's derived
structures depend on — the ``|V| x |V|`` event-cost matrix, the
``|U| x |V|`` user-cost matrices, the end-time ordering
(:class:`~repro.core.arrays.InstanceArrays`) and the Lemma 1 candidate
index (:class:`~repro.core.candidates.CandidateIndex`): events
(capacity/location/interval), users (location/budget), the full
utility matrix, the cost model's defining parameters and the
``cache_user_costs`` flag.  Two instances with equal fingerprints have
equal content; tests, the fleet fuzz modes and the serving tools use it
to check that a journal replay or compaction rebuilt exactly the live
instance.  Cost models the module cannot fingerprint give ``None``
(never wrongly equated).

:func:`prepare_build` materialises an instance's arrays and candidate
index before a solve, so the supervised attempts of one request or
sweep cell share one build.

A warm re-solve has one path: a registered instance solved by
``instance_id``, which keeps its own index and schedule memo
(``docs/dynamic.md``).  There is no cross-request cache of instances.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional

from .costs import CostModel, GridCostModel, MatrixCostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instance import USEPInstance


def _model_token(model: CostModel) -> Optional[bytes]:
    """Stable bytes identifying a cost model's behaviour, or None."""
    if type(model) is GridCostModel:
        return repr(("grid", model.metric, model.speed, model.integral)).encode()
    if type(model) is MatrixCostModel:
        digest = hashlib.sha256()
        digest.update(repr(model._ee).encode())  # noqa: SLF001 - same package
        digest.update(repr(model._ue).encode())  # noqa: SLF001
        digest.update(repr(model._eu).encode())  # noqa: SLF001
        digest.update(repr(model.check_conflicts).encode())
        return b"matrix:" + digest.hexdigest().encode()
    return None  # unknown subclass: refuse to equate instances


def instance_fingerprint(instance: "USEPInstance") -> Optional[str]:
    """Content hash of everything the derived structures depend on.

    ``None`` when the cost model cannot be fingerprinted.  Memoised on
    the instance — hashing a ``10k x 120`` utility matrix costs tens of
    milliseconds — and invalidated by :mod:`repro.core.deltas` on every
    mutation, so the fingerprint always reflects the instance's
    *current* content.
    """
    cached = instance._fingerprint_cache  # noqa: SLF001 - same package
    if cached is not None:
        return cached
    token = _model_token(instance.cost_model)
    if token is None:
        return None
    digest = hashlib.sha256()
    digest.update(token)
    digest.update(repr(instance._cache_user_costs).encode())  # noqa: SLF001
    for ev in instance.events:
        digest.update(
            repr((ev.id, ev.location, ev.capacity, ev.start, ev.end)).encode()
        )
    for user in instance.users:
        digest.update(repr((user.id, user.location, user.budget)).encode())
    digest.update(instance._mu.tobytes())  # noqa: SLF001 - content hash
    fingerprint = digest.hexdigest()
    instance._fingerprint_cache = fingerprint  # noqa: SLF001
    return fingerprint


def prepare_build(instance: "USEPInstance") -> None:
    """Materialise the shared build up front (arrays + candidate index).

    Called by the resilient runner and the planning server *before*
    their supervised attempts, so every rung — and, when attempts fork,
    every child through copy-on-write — uses one finished build instead
    of each rebuilding it.
    """
    instance.arrays().engine().index  # noqa: B018 - builds as a side effect
