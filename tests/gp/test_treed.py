"""Tests for the treed GP regressor."""

import numpy as np
import pytest

from repro.gp.gpr import GPRegressor
from repro.gp.treed import TreedGPRegressor


def nonstationary(X):
    """Fast wiggle on the left half, slow trend on the right."""
    left = np.sin(25 * X[:, 0])
    right = 0.5 * X[:, 0]
    return np.where(X[:, 0] < 0.5, left, right)


class TestTreeConstruction:
    def test_small_data_single_leaf(self, rng):
        X = rng.uniform(0, 1, (20, 2))
        t = TreedGPRegressor(max_leaf_size=64, rng=rng)
        t.fit(X, X[:, 0])
        assert t.num_leaves() == 1

    def test_large_data_splits(self, rng):
        X = rng.uniform(0, 1, (200, 2))
        t = TreedGPRegressor(max_leaf_size=64, rng=rng)
        t.fit(X, X[:, 0])
        assert t.num_leaves() >= 3
        assert all(s <= 64 for s in t.leaf_sizes())

    def test_leaf_sizes_sum_to_n(self, rng):
        X = rng.uniform(0, 1, (150, 3))
        t = TreedGPRegressor(max_leaf_size=40, rng=rng)
        t.fit(X, X[:, 0])
        assert sum(t.leaf_sizes()) == 150

    def test_splits_widest_dimension(self, rng):
        """Data spread only in x must split on x."""
        X = np.column_stack([rng.uniform(0, 10, 100), rng.uniform(0, 0.01, 100)])
        t = TreedGPRegressor(max_leaf_size=40, rng=rng)
        t.fit(X, X[:, 0])
        assert t.root_.feature == 0

    def test_min_leaf_guard_on_ties(self, rng):
        """Heavily tied data along the split axis must not create tiny leaves."""
        X = np.column_stack([np.repeat([0.0, 1.0], 50), rng.uniform(0, 1e-6, 100)])
        t = TreedGPRegressor(max_leaf_size=30, min_leaf_size=10, rng=rng)
        t.fit(X, rng.normal(size=100))
        assert all(s >= 10 for s in t.leaf_sizes())

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TreedGPRegressor(max_leaf_size=10, min_leaf_size=8, rng=rng)
        with pytest.raises(ValueError):
            TreedGPRegressor(min_leaf_size=1, rng=rng)
        with pytest.raises(ValueError):
            TreedGPRegressor(rng=None)


class TestPrediction:
    @pytest.fixture
    def data(self, rng):
        X = rng.uniform(0, 1, (240, 1))
        y = nonstationary(X) + 0.02 * rng.standard_normal(240)
        return X, y

    def test_nonstationary_accuracy(self, data, rng):
        """The treed model must handle the length-scale break competitively
        with (or better than) a single stationary GP."""
        X, y = data
        treed = TreedGPRegressor(max_leaf_size=60, rng=np.random.default_rng(1))
        treed.fit(X, y)
        flat = GPRegressor(rng=np.random.default_rng(1), n_restarts=1)
        flat.fit(X, y)
        Xt = np.random.default_rng(5).uniform(0.02, 0.98, (300, 1))
        yt = nonstationary(Xt)
        rmse_treed = np.sqrt(np.mean((treed.predict(Xt) - yt) ** 2))
        rmse_flat = np.sqrt(np.mean((flat.predict(Xt) - yt) ** 2))
        assert rmse_treed < max(2.0 * rmse_flat, 0.15)

    def test_leaf_hyperparameters_differ(self, data):
        """Per-leaf fitting is the whole point: the wiggle side must learn a
        shorter length scale than the trend side."""
        X, y = data
        treed = TreedGPRegressor(max_leaf_size=120, rng=np.random.default_rng(1))
        treed.fit(X, y)
        if treed.num_leaves() >= 2:
            thetas = []

            def walk(node):
                if node.is_leaf:
                    thetas.append(node.model.kernel_.theta)
                else:
                    walk(node.left)
                    walk(node.right)

            walk(treed.root_)
            assert not all(np.allclose(thetas[0], t) for t in thetas[1:])

    def test_std_positive(self, data, rng):
        X, y = data
        t = TreedGPRegressor(max_leaf_size=60, rng=rng)
        t.fit(X, y)
        mu, sd = t.predict(X[:30], return_std=True)
        assert np.all(sd >= 0) and mu.shape == sd.shape

    def test_prior_before_fit(self, rng):
        t = TreedGPRegressor(rng=rng)
        mu, sd = t.predict(np.zeros((3, 2)), return_std=True)
        assert np.allclose(mu, 0.0) and np.all(sd > 0)

    def test_refactor(self, data, rng):
        X, y = data
        t = TreedGPRegressor(max_leaf_size=60, rng=rng)
        t.fit(X, y)
        t.refactor(X[:100], y[:100])
        assert sum(t.leaf_sizes()) == 100

    def test_refactor_requires_fit(self, rng):
        t = TreedGPRegressor(rng=rng)
        with pytest.raises(RuntimeError):
            t.refactor(np.zeros((4, 1)), np.zeros(4))

    def test_works_in_active_learning(self, small_dataset):
        from repro.core import ActiveLearner, ALConfig, MaxSigma, random_partition

        rng = np.random.default_rng(4)
        part = random_partition(rng, len(small_dataset), n_init=25, n_test=30)
        learner = ActiveLearner(
            small_dataset,
            part,
            policy=MaxSigma(),
            rng=rng,
            config=ALConfig(
                max_iterations=5,
                surrogate="treed",
                surrogate_options={"max_leaf_size": 80, "n_restarts": 1},
            ),
        )
        traj = learner.run()
        assert len(traj) == 5
        assert np.all(np.isfinite(traj.rmse_cost))
