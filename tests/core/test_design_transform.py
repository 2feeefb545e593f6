"""Tests for the log2-feature design transform and weighted-RMSE recording."""

import numpy as np
import pytest

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.policies import RandUniform
from repro.core.preprocessing import DesignTransform


class TestDesignTransform:
    @pytest.fixture
    def bounds(self):
        # p in [4, 32], r0 in [0.2, 0.5]
        return np.array([[4.0, 0.2], [32.0, 0.5]])

    def test_no_log_columns_matches_plain_scaling(self, bounds):
        t = DesignTransform(bounds)
        X = np.array([[4.0, 0.2], [32.0, 0.5], [18.0, 0.35]])
        U = t.transform(X)
        assert np.allclose(U[0], [0, 0]) and np.allclose(U[1], [1, 1])
        assert U[2, 0] == pytest.approx((18 - 4) / 28)

    def test_log2_column_equalizes_powers_of_two(self, bounds):
        """The paper's Sec. V-D example: 2^3 equidistant from 2^2 and 2^4."""
        t = DesignTransform(bounds, log2_columns=[0])
        U = t.transform(np.array([[4.0, 0.2], [8.0, 0.2], [16.0, 0.2]]))
        gaps = np.diff(U[:, 0])
        assert gaps[0] == pytest.approx(gaps[1])
        # Whereas in linear scaling the gaps double.
        U_lin = DesignTransform(bounds).transform(
            np.array([[4.0, 0.2], [8.0, 0.2], [16.0, 0.2]])
        )
        assert np.diff(U_lin[:, 0])[1] == pytest.approx(2 * np.diff(U_lin[:, 0])[0])

    def test_corners_still_map_to_unit_cube(self, bounds):
        t = DesignTransform(bounds, log2_columns=[0])
        U = t.transform(np.array([[4.0, 0.2], [32.0, 0.5]]))
        assert np.allclose(U, [[0, 0], [1, 1]])

    def test_roundtrip(self, bounds):
        t = DesignTransform(bounds, log2_columns=[0])
        X = np.array([[8.0, 0.3], [16.0, 0.45]])
        assert np.allclose(t.inverse_transform(t.transform(X)), X)

    def test_rejects_nonpositive_values(self, bounds):
        t = DesignTransform(bounds, log2_columns=[0])
        with pytest.raises(ValueError):
            t.transform(np.array([[0.0, 0.3]]))

    def test_rejects_bad_column(self, bounds):
        with pytest.raises(ValueError):
            DesignTransform(bounds, log2_columns=[5])

    def test_rejects_nonpositive_bounds(self):
        b = np.array([[-1.0, 0.2], [32.0, 0.5]])
        with pytest.raises(ValueError):
            DesignTransform(b, log2_columns=[0])

    def test_n_features(self, bounds):
        assert DesignTransform(bounds, log2_columns=[0, 1]).n_features == 2


class TestLoopIntegration:
    def test_log2_features_run(self, small_dataset):
        rng = np.random.default_rng(0)
        part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
        learner = ActiveLearner(
            small_dataset,
            part,
            policy=RandUniform(),
            rng=rng,
            # p and mx are powers of two
            config=ALConfig(max_iterations=5, log2_features=(0, 1)),
        )
        traj = learner.run()
        assert len(traj) == 5
        assert np.all(np.isfinite(traj.rmse_cost))

    def test_weighted_rmse_recorded(self, small_dataset):
        rng = np.random.default_rng(0)
        part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
        learner = ActiveLearner(
            small_dataset,
            part,
            policy=RandUniform(),
            rng=rng,
            config=ALConfig(max_iterations=5, weight_rmse_by_cost=True),
        )
        traj = learner.run()
        w = traj.rmse_cost_weighted
        assert np.all(np.isfinite(w))
        # Weighted and uniform metrics differ (test costs are not constant).
        assert not np.allclose(w, traj.rmse_cost)

    def test_weighted_rmse_nan_when_disabled(self, small_dataset):
        rng = np.random.default_rng(0)
        part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
        traj = ActiveLearner(
            small_dataset, part, RandUniform(), rng, config=ALConfig(max_iterations=3)
        ).run()
        assert np.all(np.isnan(traj.rmse_cost_weighted))
