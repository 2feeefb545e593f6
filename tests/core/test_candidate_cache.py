"""Tests for the candidate cross-covariance cache in the AL loop.

The cache must be invisible: every :meth:`ActiveLearner._candidate_view`
built from cached ``Ks``/diag state must equal the view a straight-line
``predict()`` over the pool would produce, at every iteration, across
hyperparameter refits (cache invalidation) and frozen-theta refactors
(incremental column updates).
"""

import contextlib

import numpy as np
import pytest

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner, CandidateCovarianceCache
from repro.core.partitions import random_partition
from repro.core.policies import RGMA, RandGoodness


@contextlib.contextmanager
def straight_line_scoring(monkeypatch):
    """Score every pool with the models' own ``predict`` while active.

    The reference the candidate cache must equal: each round predicts
    over the whole pool, and the cache never fills (so its row drops and
    column appends see an empty cache and do nothing).
    """
    with monkeypatch.context() as m:
        m.setattr(
            CandidateCovarianceCache,
            "predict",
            lambda self, U: self.model.predict(U, return_std=True),
        )
        yield


class ViewCheckingPolicy:
    """Wraps a policy; asserts each view matches uncached predictions."""

    name = "view_checking"

    def __init__(self, inner):
        self.inner = inner
        self.learner = None  # bound after ActiveLearner construction
        self.checked = 0

    def select(self, view, rng):
        assert self.learner is not None
        mu_c, sd_c = self.learner.gpr_cost.predict(view.X, return_std=True)
        mu_m, sd_m = self.learner.gpr_mem.predict(view.X, return_std=True)
        np.testing.assert_allclose(view.mu_cost, mu_c, atol=1e-9)
        np.testing.assert_allclose(view.sigma_cost, sd_c, atol=1e-9)
        np.testing.assert_allclose(view.mu_mem, mu_m, atol=1e-9)
        np.testing.assert_allclose(view.sigma_mem, sd_m, atol=1e-9)
        self.checked += 1
        return self.inner.select(view, rng)


def _learner(dataset, policy, seed=0, refit=1, **kw):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=20, n_test=30)
    return ActiveLearner(
        dataset, part, policy=policy, rng=rng,
        config=ALConfig(max_iterations=15, hyper_refit_interval=refit, **kw),
    )


class TestCachedViewsMatchFresh:
    @pytest.mark.parametrize("refit", [1, 3])
    def test_every_iteration_view_equals_uncached_predict(self, small_dataset, refit):
        policy = ViewCheckingPolicy(RandGoodness())
        learner = _learner(small_dataset, policy, seed=2, refit=refit)
        policy.learner = learner
        learner.run()
        assert policy.checked == 15

    def test_rgma_views_also_match(self, small_dataset):
        lmem = small_dataset.memory_limit()
        policy = ViewCheckingPolicy(RGMA(memory_limit_MB=lmem))
        learner = _learner(small_dataset, policy, seed=4, refit=2)
        policy.learner = learner
        learner.run()
        assert policy.checked > 0


class TestFastSlowTrajectoryEquivalence:
    @pytest.mark.parametrize("refit", [1, 3])
    def test_same_selections_and_rmse(self, small_dataset, refit, monkeypatch):
        """Acceptance: fast-path trajectories match the straight-line loop
        (same selected indices; RMSE series within 1e-8)."""

        def run(fast):
            learner = _learner(small_dataset, RandGoodness(), seed=11, refit=refit)
            if fast:
                return learner.run()
            learner.gpr_cost.incremental = False
            learner.gpr_mem.incremental = False
            with straight_line_scoring(monkeypatch):
                return learner.run()

        t_fast, t_slow = run(True), run(False)
        assert np.array_equal(t_fast.selected_indices, t_slow.selected_indices)
        assert np.allclose(t_fast.rmse_cost, t_slow.rmse_cost, atol=1e-8)
        assert np.allclose(t_fast.rmse_mem, t_slow.rmse_mem, atol=1e-8)
        assert np.allclose(t_fast.cumulative_cost, t_slow.cumulative_cost)

    def test_fast_loop_actually_takes_fast_paths(self, small_dataset):
        learner = _learner(small_dataset, RandGoodness(), seed=6, refit=3)
        learner.run()
        # Frozen-theta iterations must have extended, not refactorized.
        assert learner.gpr_cost.last_factor_mode_ in ("rank1", "fit")
        assert learner._cache_cost._Ks is not None


class TestCacheMechanics:
    def test_invalidate_clears_state(self, small_dataset):
        learner = _learner(small_dataset, RandGoodness(), seed=1)
        learner._fit_models(optimize=True)
        view1 = learner._candidate_view()
        cache = learner._cache_cost
        assert cache._Ks is not None
        cache.invalidate()
        assert cache._Ks is None
        view2 = learner._candidate_view()  # rebuilds transparently
        np.testing.assert_allclose(view1.mu_cost, view2.mu_cost)

    def test_theta_change_triggers_rebuild(self, small_dataset):
        learner = _learner(small_dataset, RandGoodness(), seed=1)
        learner._fit_models(optimize=True)
        learner._candidate_view()
        cache = learner._cache_cost
        stored = cache._theta.copy()
        # Simulate a hyperparameter refit landing on a different optimum.
        learner.gpr_cost.kernel_ = learner.gpr_cost.kernel_.with_theta(stored + 0.1)
        assert not cache._fresh()

    def test_non_exact_gp_surrogate_bypasses_cache(self, small_dataset):
        learner = _learner(
            small_dataset,
            RandGoodness(),
            seed=3,
            surrogate="local",
            surrogate_options={"n_regions": 2, "n_restarts": 0},
        )
        traj = learner.run()
        assert len(traj) == 15
        assert learner._cache_cost._Ks is None  # never populated
