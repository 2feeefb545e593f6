"""Conformance tests: every GP model satisfies the Surrogate protocol.

The ActiveLearner and the candidate-covariance cache talk to models only
through this surface, so each implementation is exercised against the
same shape/behaviour contract here.
"""

import numpy as np
import pytest

from repro import obs
from repro.gp import (
    GPRegressor,
    SparseGPRegressor,
    Surrogate,
    build_surrogate,
    cross_appends,
    cross_points,
    cross_version,
    supports_cross,
)
from repro.registry import surrogate_registry

#: Per-registry-name constructor options sized for the 40-sample fixture;
#: every *registered* surrogate is conformance-tested (a new registration
#: joins this suite automatically via the registry iteration below).
EXTRA_OPTIONS = {
    "sparse": {"n_inducing": 12},
    "local": {"n_regions": 2},
    "treed": {"max_leaf_size": 24, "min_leaf_size": 4},
}


@pytest.fixture(params=surrogate_registry.names())
def model(request, rng):
    return build_surrogate(
        request.param,
        rng=rng,
        n_restarts=0,
        options=EXTRA_OPTIONS.get(request.param, {}),
    )


@pytest.fixture()
def data(rng):
    X = rng.uniform(0.0, 1.0, size=(40, 3))
    y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(40)
    return X, y


class TestProtocolConformance:
    def test_satisfies_runtime_protocol(self, model):
        assert isinstance(model, Surrogate)

    def test_fit_predict_shapes(self, model, data):
        X, y = data
        assert not model.is_fitted
        assert model.fit(X, y) is model
        assert model.is_fitted
        Xq = X[:7]
        mean = model.predict(Xq)
        assert mean.shape == (7,)
        mean2, std = model.predict(Xq, return_std=True)
        assert mean2.shape == (7,) and std.shape == (7,)
        assert np.all(std >= 0.0)

    def test_refactor_keeps_predictions_working(self, model, data):
        X, y = data
        model.fit(X[:30], y[:30])
        assert model.refactor(X, y) is model
        assert model.predict(X[:5]).shape == (5,)

    def test_workspace_counters_schema(self, model, data):
        # Models keep no counts of their own: every fit, also one made by an
        # inner model (regions, leaves, levels, subset-of-data helpers),
        # counts how it obtained its kernel workspace in repro.obs.
        X, y = data
        obs.reset()
        model.fit(X, y)
        counters = obs.counters()
        ws = ("ws_hit", "ws_extend", "ws_rebuild")
        assert sum(counters.get(k, 0) for k in ws) >= 1
        assert all(isinstance(v, int) and v >= 0 for v in counters.values())

    def test_use_workspace_member(self, model):
        assert isinstance(model.use_workspace, bool)


class TestCrossCovarianceSupport:
    def test_cross_support_matches_model_family(self, model):
        # Exact GPs (incl. the iterative backend) cross against their
        # training set; the sparse model against its inducing set.  The
        # partition-based families have no single cross basis.
        expected = isinstance(model, (GPRegressor, SparseGPRegressor))
        assert bool(model.supports_cross) is expected
        assert supports_cross(model) is expected

    def test_unsupported_models_raise(self, model, data):
        if supports_cross(model):
            pytest.skip("model implements predict_from_cross")
        X, y = data
        model.fit(X, y)
        with pytest.raises(NotImplementedError):
            model.predict_from_cross(np.zeros((40, 2)), np.ones(2))

    def test_cross_basis_probes(self, model, data):
        X, y = data
        model.fit(X, y)
        assert isinstance(cross_appends(model), bool)
        assert isinstance(cross_version(model), int)
        if not supports_cross(model):
            return
        basis = cross_points(model)
        assert basis is not None and basis.ndim == 2
        if isinstance(model, SparseGPRegressor):
            # The inducing basis is frozen on acquire and versioned on
            # re-cluster, so the candidate cache never appends to it.
            assert cross_appends(model) is False
            np.testing.assert_array_equal(basis, model.inducing_)
        else:
            assert cross_appends(model) is True
            np.testing.assert_array_equal(basis, model.X_train_)
        # Cross rows against the declared basis must reproduce predict().
        Xq = X[:5] + 0.01
        Ks = model.kernel_(Xq, basis)
        prior = model.kernel_.diag(Xq)
        mean, std = model.predict_from_cross(Ks, prior, return_std=True)
        mean_ref, std_ref = model.predict(Xq, return_std=True)
        np.testing.assert_allclose(mean, mean_ref, atol=1e-8)
        np.testing.assert_allclose(std, std_ref, atol=1e-8)

    def test_exact_gp_cross_path_matches_predict(self, rng, data):
        X, y = data
        gp = GPRegressor(n_restarts=0).fit(X, y)
        Xq = X[:4] + 0.01
        Ks = gp.kernel_(Xq, gp.X_train_)
        prior = gp.kernel_.diag(Xq)
        mean, std = gp.predict_from_cross(Ks, prior, return_std=True)
        mean_ref, std_ref = gp.predict(Xq, return_std=True)
        np.testing.assert_allclose(mean, mean_ref, atol=1e-10)
        np.testing.assert_allclose(std, std_ref, atol=1e-8)


class TestSupportsCrossHelper:
    def test_undeclared_models_get_no_cross_path(self):
        # Only a declared ``supports_cross`` opts a model into the candidate
        # cache; having a ``predict_from_cross`` method is not a declaration.
        class Undeclared:
            def predict_from_cross(self, Ks, prior_diag, return_std=False):
                raise NotImplementedError

        class Bare:
            pass

        assert supports_cross(Undeclared()) is False
        assert supports_cross(Bare()) is False

    def test_explicit_attribute_wins(self):
        class OptedOut:
            supports_cross = False

            def predict_from_cross(self, Ks, prior_diag, return_std=False):
                raise NotImplementedError

        assert supports_cross(OptedOut()) is False
