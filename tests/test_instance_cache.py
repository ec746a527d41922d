"""Instance content fingerprints and the up-front shared build.

:func:`repro.core.build_cache.instance_fingerprint` may only equate
instances whose *content* is identical — same events, users, utility
matrix and cost model — and must refuse to fingerprint cost models it
cannot identify.  See docs/performance.md.
"""

from repro.core import build_cache
from repro.core.build_cache import instance_fingerprint
from repro.core.costs import GridCostModel
from repro.core.instance import USEPInstance
from repro.datagen import SyntheticConfig, generate_instance


def _instance(seed=11, **overrides):
    params = dict(num_events=6, num_users=12, mean_capacity=3, grid_size=15)
    params.update(overrides)
    return generate_instance(SyntheticConfig(seed=seed, **params))


class TestFingerprint:
    def test_identical_content_identical_fingerprint(self):
        assert instance_fingerprint(_instance()) == instance_fingerprint(_instance())

    def test_any_content_change_changes_fingerprint(self):
        base = instance_fingerprint(_instance())
        assert instance_fingerprint(_instance(seed=12)) != base
        assert instance_fingerprint(_instance(num_users=13)) != base
        assert instance_fingerprint(_instance(mean_capacity=4)) != base

    def test_utility_perturbation_changes_fingerprint(self):
        instance = _instance()
        mu = instance.utility_matrix().copy()
        mu[0][0] = mu[0][0] / 2.0 + 0.1
        twin = USEPInstance(
            instance.events, instance.users, instance.cost_model, mu
        )
        assert instance_fingerprint(twin) != instance_fingerprint(instance)

    def test_cache_flag_is_part_of_the_fingerprint(self):
        instance = _instance()
        off = USEPInstance(
            instance.events,
            instance.users,
            instance.cost_model,
            instance.utility_matrix(),
            cache_user_costs=False,
        )
        assert instance_fingerprint(off) != instance_fingerprint(instance)

    def test_unknown_cost_model_is_unfingerprintable(self):
        class OpaqueModel(GridCostModel):
            pass

        instance = _instance()
        opaque = USEPInstance(
            instance.events,
            instance.users,
            OpaqueModel(),
            instance.utility_matrix(),
        )
        assert instance_fingerprint(opaque) is None


class TestPrepareBuild:
    def test_prepare_build_materialises_arrays_and_index(self):
        instance = _instance()
        build_cache.prepare_build(instance)
        assert instance._arrays is not None
        engine = instance._arrays.engine()
        assert engine._index_built and engine.index is not None
