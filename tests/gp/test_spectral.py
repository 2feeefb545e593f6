"""Tests for the sparse-spectrum (random Fourier feature) GP."""

import numpy as np
import pytest

from repro.gp.kernels import Matern, RBF, WhiteKernel, default_kernel
from repro.gp.spectral import SpectralGPRegressor, _extract_rbf_params


def smooth(X):
    return np.sin(3 * X[:, 0]) + 0.5 * X[:, 1]


class TestKernelExtraction:
    def test_default_kernel_accepted(self):
        ls, amp, noise = _extract_rbf_params(default_kernel(0.7, 2.0, 0.01))
        assert (ls, amp, noise) == (0.7, 2.0, 0.01)

    def test_rejects_matern(self):
        with pytest.raises(ValueError):
            _extract_rbf_params(default_kernel(matern_nu=1.5))

    def test_rejects_anisotropic(self):
        with pytest.raises(ValueError):
            _extract_rbf_params(default_kernel(anisotropic_dims=3))

    def test_rejects_bare_kernel(self):
        with pytest.raises(ValueError):
            _extract_rbf_params(RBF(1.0) + WhiteKernel(0.1) + WhiteKernel(0.1))


class TestFeatureMap:
    def test_feature_covariance_approximates_rbf(self, rng):
        """phi(x).phi(y) converges to the RBF kernel as m grows."""
        sp = SpectralGPRegressor(
            n_frequencies=3000, kernel=default_kernel(0.5, 1.0, 1e-4), rng=rng
        )
        X = rng.uniform(0, 1, (30, 2))
        sp.fit(X, smooth(X))
        ls, amp, _ = _extract_rbf_params(sp.kernel_)
        Phi = sp._features(X)
        K_hat = Phi @ Phi.T
        K_true = amp * RBF(ls)(X)
        assert np.abs(K_hat - K_true).max() < 0.12


class TestAccuracy:
    @pytest.fixture
    def data(self, rng):
        X = rng.uniform(0, 1, (250, 2))
        return X, smooth(X) + 0.03 * rng.standard_normal(250)

    def test_fits_smooth_function(self, data, rng):
        X, y = data
        sp = SpectralGPRegressor(n_frequencies=100, rng=rng)
        sp.fit(X, y)
        Xt = np.random.default_rng(9).uniform(0.05, 0.95, (200, 2))
        rmse = np.sqrt(np.mean((sp.predict(Xt) - smooth(Xt)) ** 2))
        assert rmse < 0.12

    def test_more_frequencies_help(self, data):
        X, y = data
        Xt = np.random.default_rng(9).uniform(0.05, 0.95, (200, 2))
        rmses = []
        for m in (4, 128):
            sp = SpectralGPRegressor(n_frequencies=m, rng=np.random.default_rng(0))
            sp.fit(X, y)
            rmses.append(np.sqrt(np.mean((sp.predict(Xt) - smooth(Xt)) ** 2)))
        assert rmses[1] < rmses[0]

    def test_variance_positive(self, data, rng):
        X, y = data
        sp = SpectralGPRegressor(n_frequencies=60, rng=rng)
        sp.fit(X, y)
        _, sd = sp.predict(X[:40], return_std=True)
        assert np.all(sd >= 0) and np.all(np.isfinite(sd))


class TestApi:
    def test_prior_before_fit(self, rng):
        sp = SpectralGPRegressor(rng=rng)
        mu, sd = sp.predict(np.zeros((3, 2)), return_std=True)
        assert np.allclose(mu, 0.0) and np.all(sd > 0)

    def test_refactor_keeps_frequencies(self, rng):
        X = rng.uniform(0, 1, (100, 2))
        y = smooth(X)
        sp = SpectralGPRegressor(n_frequencies=40, rng=rng)
        sp.fit(X, y)
        W = sp._W.copy()
        sp.refactor(X[:60], y[:60])
        assert np.array_equal(sp._W, W)

    def test_refactor_requires_fit(self, rng):
        sp = SpectralGPRegressor(rng=rng)
        with pytest.raises(RuntimeError):
            sp.refactor(np.zeros((4, 2)), np.zeros(4))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SpectralGPRegressor(n_frequencies=0, rng=rng)
        with pytest.raises(ValueError):
            SpectralGPRegressor(rng=None)
