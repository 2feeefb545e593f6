"""Tests for local GP models and the k-means partitioner."""

import numpy as np
import pytest

from repro.gp.gpr import GPRegressor
from repro.gp.local import LocalGPRegressor, kmeans


class TestKMeans:
    def test_separated_clusters_recovered(self, rng):
        a = rng.normal([0, 0], 0.05, (30, 2))
        b = rng.normal([5, 5], 0.05, (30, 2))
        X = np.vstack([a, b])
        C, labels = kmeans(X, 2, rng)
        assert C.shape == (2, 2)
        # Same label within each blob, different across.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_k_equals_n(self, rng):
        X = rng.uniform(0, 1, (5, 2))
        C, labels = kmeans(X, 5, rng)
        assert np.unique(labels).size == 5

    def test_k_one(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        C, labels = kmeans(X, 1, rng)
        assert np.allclose(C[0], X.mean(axis=0))
        assert np.all(labels == 0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4, rng)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0, rng)

    def test_deterministic(self):
        X = np.random.default_rng(0).uniform(0, 1, (40, 2))
        C1, l1 = kmeans(X, 3, np.random.default_rng(7))
        C2, l2 = kmeans(X, 3, np.random.default_rng(7))
        assert np.array_equal(C1, C2) and np.array_equal(l1, l2)

    def test_no_empty_clusters(self, rng):
        X = np.vstack([np.zeros((20, 2)), np.ones((2, 2))])
        _, labels = kmeans(X, 3, rng)
        assert np.unique(labels).size == 3


def wavy(X):
    return np.sin(6 * X[:, 0]) + 0.3 * X[:, 1]


class TestLocalGPRegressor:
    @pytest.fixture
    def data(self, rng):
        X = rng.uniform(0, 1, (120, 2))
        y = wavy(X) + 0.02 * rng.standard_normal(120)
        return X, y

    def test_fit_predict_accuracy(self, data, rng):
        X, y = data
        local = LocalGPRegressor(n_regions=4, rng=rng)
        local.fit(X, y)
        Xt = np.random.default_rng(5).uniform(0.05, 0.95, (200, 2))
        mu = local.predict(Xt)
        rmse = np.sqrt(np.mean((mu - wavy(Xt)) ** 2))
        assert rmse < 0.25

    def test_comparable_to_global_gp(self, data, rng):
        X, y = data
        local = LocalGPRegressor(n_regions=4, rng=np.random.default_rng(1))
        local.fit(X, y)
        full = GPRegressor(rng=np.random.default_rng(1), n_restarts=1)
        full.fit(X, y)
        Xt = np.random.default_rng(5).uniform(0.05, 0.95, (200, 2))
        rmse_local = np.sqrt(np.mean((local.predict(Xt) - wavy(Xt)) ** 2))
        rmse_full = np.sqrt(np.mean((full.predict(Xt) - wavy(Xt)) ** 2))
        assert rmse_local < 4.0 * rmse_full + 0.05

    def test_std_shape_and_positivity(self, data, rng):
        X, y = data
        local = LocalGPRegressor(n_regions=3, rng=rng)
        local.fit(X, y)
        mu, sd = local.predict(X[:10], return_std=True)
        assert mu.shape == sd.shape == (10,)
        assert np.all(sd >= 0)

    def test_region_count_clamped_for_small_data(self, rng):
        local = LocalGPRegressor(n_regions=10, rng=rng)
        local.fit(np.linspace(0, 1, 12)[:, None], np.zeros(12))
        assert len(local.models_) <= 2  # 12 // 5

    def test_region_sizes_sum_to_n(self, data, rng):
        X, y = data
        local = LocalGPRegressor(n_regions=4, rng=rng)
        local.fit(X, y)
        assert sum(local.region_sizes()) == len(y)

    def test_blend_one_hard_assignment(self, data, rng):
        X, y = data
        local = LocalGPRegressor(n_regions=3, blend=1, rng=rng)
        local.fit(X, y)
        assert np.all(np.isfinite(local.predict(X[:5])))

    def test_prior_prediction_before_fit(self, rng):
        local = LocalGPRegressor(rng=rng)
        mu, sd = local.predict(np.zeros((4, 2)), return_std=True)
        assert np.allclose(mu, 0.0) and np.all(sd > 0)

    def test_refactor_requires_fit(self, rng):
        local = LocalGPRegressor(rng=rng)
        with pytest.raises(RuntimeError):
            local.refactor(np.zeros((4, 2)), np.zeros(4))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            LocalGPRegressor(n_regions=0, rng=rng)
        with pytest.raises(ValueError):
            LocalGPRegressor(blend=0, rng=rng)
        with pytest.raises(ValueError):
            LocalGPRegressor(rng=None)


class TestLocalGPInActiveLearning:
    def test_model_factory_hook(self, small_dataset):
        """The loop builds the local model from its registry name."""
        from repro.core import ActiveLearner, ALConfig, MaxSigma, random_partition

        rng = np.random.default_rng(3)
        part = random_partition(rng, len(small_dataset), n_init=25, n_test=30)
        learner = ActiveLearner(
            small_dataset,
            part,
            policy=MaxSigma(),
            rng=rng,
            config=ALConfig(
                max_iterations=8,
                surrogate="local",
                surrogate_options={"n_regions": 3, "n_restarts": 1},
            ),
        )
        assert isinstance(learner.gpr_cost, LocalGPRegressor)
        traj = learner.run()
        assert len(traj) == 8
        assert np.all(np.isfinite(traj.rmse_cost))
