"""Tests for the sparse (DTC) GP approximation."""

import time

import numpy as np
import pytest

from repro import obs
from repro.gp.gpr import GPRegressor
from repro.gp.sparse import SparseGPRegressor


def smooth(X):
    return np.sin(3 * X[:, 0]) + 0.5 * X[:, 1]


@pytest.fixture
def data(rng):
    X = rng.uniform(0, 1, (300, 2))
    y = smooth(X) + 0.03 * rng.standard_normal(300)
    return X, y


class TestAccuracy:
    def test_close_to_exact_gp(self, data):
        X, y = data
        sparse = SparseGPRegressor(n_inducing=40, rng=np.random.default_rng(1))
        sparse.fit(X, y)
        exact = GPRegressor(rng=np.random.default_rng(1), n_restarts=1)
        exact.fit(X, y)
        Xt = np.random.default_rng(2).uniform(0.05, 0.95, (200, 2))
        rmse_sparse = np.sqrt(np.mean((sparse.predict(Xt) - smooth(Xt)) ** 2))
        rmse_exact = np.sqrt(np.mean((exact.predict(Xt) - smooth(Xt)) ** 2))
        assert rmse_sparse < 3.0 * rmse_exact + 0.02
        assert rmse_sparse < 0.1

    def test_more_inducing_points_no_worse(self, data):
        X, y = data
        Xt = np.random.default_rng(2).uniform(0.05, 0.95, (200, 2))
        rmses = []
        for m in (5, 80):
            sp = SparseGPRegressor(n_inducing=m, rng=np.random.default_rng(1))
            sp.fit(X, y)
            rmses.append(np.sqrt(np.mean((sp.predict(Xt) - smooth(Xt)) ** 2)))
        assert rmses[1] < rmses[0] + 0.02

    def test_variance_positive_and_bounded(self, data):
        X, y = data
        sp = SparseGPRegressor(n_inducing=30, rng=np.random.default_rng(1))
        sp.fit(X, y)
        _, sd = sp.predict(X[:50], return_std=True)
        assert np.all(sd >= 0)
        assert np.all(np.isfinite(sd))

    def test_uncertainty_grows_away_from_data(self, rng):
        X = rng.uniform(0.0, 0.3, (100, 2))
        y = smooth(X)
        sp = SparseGPRegressor(n_inducing=20, rng=rng)
        sp.fit(X, y)
        _, sd_in = sp.predict(np.array([[0.15, 0.15]]), return_std=True)
        _, sd_out = sp.predict(np.array([[0.95, 0.95]]), return_std=True)
        assert sd_out[0] > sd_in[0]


class TestScaling:
    def test_handles_larger_n_quickly(self, rng):
        """n = 2000 with m = 40 must stay well under a second per fit."""
        X = rng.uniform(0, 1, (2000, 2))
        y = smooth(X) + 0.05 * rng.standard_normal(2000)
        sp = SparseGPRegressor(n_inducing=40, rng=rng)
        t0 = time.perf_counter()
        sp.fit(X, y)
        sp.predict(X[:100], return_std=True)
        assert time.perf_counter() - t0 < 5.0

    def test_inducing_clamped_to_n(self, rng):
        sp = SparseGPRegressor(n_inducing=100, rng=rng)
        sp.fit(rng.uniform(0, 1, (12, 2)), rng.normal(size=12))
        assert sp.num_inducing <= 12


class TestApi:
    def test_prior_before_fit(self, rng):
        sp = SparseGPRegressor(rng=rng)
        mu, sd = sp.predict(np.zeros((3, 2)), return_std=True)
        assert np.allclose(mu, 0.0) and np.all(sd > 0)

    def test_refactor_keeps_hyperparameters(self, data, rng):
        X, y = data
        sp = SparseGPRegressor(n_inducing=25, rng=rng)
        sp.fit(X, y)
        theta = sp.kernel_.theta.copy()
        sp.refactor(X[:200], y[:200])
        assert np.array_equal(sp.kernel_.theta, theta)

    def test_refactor_requires_fit(self, rng):
        sp = SparseGPRegressor(rng=rng)
        with pytest.raises(RuntimeError):
            sp.refactor(np.zeros((5, 2)), np.zeros(5))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SparseGPRegressor(n_inducing=0, rng=rng)
        with pytest.raises(ValueError):
            SparseGPRegressor(rng=None)
        sp = SparseGPRegressor(rng=rng)
        with pytest.raises(ValueError):
            sp.fit(np.zeros((3, 2)), np.zeros(4))

class TestIncrementalAppend:
    def test_append_matches_full_rebuild(self, data):
        X, y = data
        inc = SparseGPRegressor(n_inducing=25, rng=np.random.default_rng(1))
        full = SparseGPRegressor(
            n_inducing=25, rng=np.random.default_rng(1), incremental=False
        )
        inc.fit(X[:200], y[:200])
        full.fit(X[:200], y[:200])
        for hi in (220, 250, 300):
            inc.refactor(X[:hi], y[:hi])
            # Rebuild against the *same* frozen basis for a fair twin.
            full.inducing_ = inc.inducing_.copy()
            full._factorize(X[:hi], y[:hi])
            full.X_train_, full.y_train_ = X[:hi], y[:hi]
        assert inc.last_factor_mode_ == "rank1"
        # Identical math, different summation order: accumulated A/Kmn_y
        # vs one BLAS-3 product — agreement is fp-roundoff, not exact.
        Xq = X[:40] + 0.01
        mu_i, sd_i = inc.predict(Xq, return_std=True)
        mu_f, sd_f = full.predict(Xq, return_std=True)
        np.testing.assert_allclose(mu_i, mu_f, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(sd_i, sd_f, rtol=1e-5, atol=1e-6)

    def test_shrink_or_reorder_falls_back_to_recluster(self, data):
        X, y = data
        sp = SparseGPRegressor(n_inducing=25, rng=np.random.default_rng(1))
        sp.fit(X, y)
        version = sp.cross_version_
        sp.refactor(X[:200], y[:200])  # not a prefix extension
        assert sp.last_factor_mode_ == "full"
        assert sp.cross_version_ == version + 1

    def test_counters_accumulate_across_fits(self, data):
        X, y = data
        sp = SparseGPRegressor(n_inducing=20, rng=np.random.default_rng(1))
        obs.reset()
        sp.fit(X[:150], y[:150])
        sp.refactor(X[:180], y[:180])  # append path
        sp.fit(X[:250], y[:250])  # second full fit
        counters = obs.counters()
        assert counters["sparse_append"] == 1
        assert counters["sparse_recluster"] == 2
        # Every subset-of-data fit's helper GP counts its workspace path.
        assert sum(
            counters.get(k, 0) for k in ("ws_hit", "ws_extend", "ws_rebuild")
        ) >= 2


class TestApiLoop:
    def test_works_in_active_learning(self, small_dataset):
        from repro.core import ActiveLearner, ALConfig, RandGoodness, random_partition

        rng = np.random.default_rng(4)
        part = random_partition(rng, len(small_dataset), n_init=25, n_test=30)
        learner = ActiveLearner(
            small_dataset,
            part,
            policy=RandGoodness(),
            rng=rng,
            config=ALConfig(
                max_iterations=6,
                surrogate="sparse",
                surrogate_options={"n_inducing": 20},
            ),
        )
        traj = learner.run()
        assert len(traj) == 6
        assert np.all(np.isfinite(traj.rmse_cost))
