"""Workspace-vs-direct parity for the hyperparameter-fit fast path.

The direct ``Kernel.__call__`` path is the reference implementation; the
cached :class:`KernelWorkspace` (``Kernel.prepare``) must reproduce its
kernel matrices, LML values and LML gradients to ≤ 1e-10 relative across
every supported kernel structure, through incremental extension, and
through a full seeded AL trajectory (identical selected indices).
"""

import numpy as np
import pytest

from repro import obs
from repro.core import ActiveLearner, ALConfig, MinPred, RandGoodness, random_partition
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import (
    RBF,
    ConstantKernel,
    Kernel,
    Matern,
    Product,
    Sum,
    WhiteKernel,
    default_kernel,
    workspace_signature,
)

#: Every supported kernel structure: leaves, sums, products, nestings.
STRUCTURES = [
    ConstantKernel(2.0),
    WhiteKernel(0.1),
    RBF(0.5),
    RBF([0.5, 1.0, 2.0]),
    Matern(0.7, nu=0.5),
    Matern(0.7, nu=1.5),
    Matern(0.7, nu=2.5),
    Sum(RBF(0.4), WhiteKernel(0.05)),
    Product(ConstantKernel(1.5), RBF(0.8)),
    Product(RBF(0.6), Matern(1.2, nu=1.5)),
    Sum(Product(ConstantKernel(2.0), RBF([0.3, 0.9, 1.4])), WhiteKernel(0.01)),
    Sum(Sum(ConstantKernel(0.5), Matern(0.9, nu=2.5)), WhiteKernel(0.2)),
    Product(Sum(RBF(0.7), ConstantKernel(0.3)), Matern(0.5, nu=0.5)),
    default_kernel(),
]


def random_X(n=14, d=3, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (n, d))


def random_thetas(kernel, count=3, seed=1):
    rng = np.random.default_rng(seed)
    return [
        kernel.theta + rng.uniform(-0.7, 0.7, kernel.n_theta)
        for _ in range(count)
    ]


def direct_grad_dot(kernel, X, inner, theta):
    """Reference: contract the dense (n, n, k) stack against sym(inner)."""
    K, K_grad = kernel.with_theta(theta)(X, eval_gradient=True)
    sym = 0.5 * (inner + inner.T)
    return np.einsum("ij,ijk->k", sym, K_grad)


@pytest.mark.parametrize("kernel", STRUCTURES, ids=lambda k: repr(k))
class TestWorkspaceParity:
    def test_kernel_matrix_matches_direct(self, kernel):
        X = random_X()
        ws = kernel.prepare(X)
        for theta in random_thetas(kernel):
            K_ws = ws.kernel_matrix(theta)
            K_direct = kernel.with_theta(theta)(X)
            assert np.allclose(K_ws, K_direct, rtol=1e-10, atol=1e-12)

    def test_grad_dot_matches_direct(self, kernel):
        X = random_X()
        ws = kernel.prepare(X)
        rng = np.random.default_rng(7)
        for theta in random_thetas(kernel):
            A = rng.standard_normal((X.shape[0], X.shape[0]))
            inner = A + A.T  # symmetric weight, the LML-gradient case
            ws.kernel_matrix(theta)  # grad_dot contract: value first
            g_ws = ws.grad_dot(inner, theta)
            g_direct = direct_grad_dot(kernel, X, inner, theta)
            scale = max(np.abs(g_direct).max(), 1.0)
            assert np.abs(g_ws - g_direct).max() <= 1e-10 * scale

    def test_grad_dot_uses_only_symmetric_part_and_diagonal(self, kernel):
        """The fused gradient may be fed an asymmetric ``inner`` whose
        symmetrization (and diagonal) equal the true weight matrix — the
        trick the GPR fast path uses to skip mirroring ``dpotri``."""
        X = random_X()
        ws = kernel.prepare(X)
        theta = kernel.theta
        rng = np.random.default_rng(8)
        S = rng.standard_normal((X.shape[0], X.shape[0]))
        S = S + S.T
        skew = rng.standard_normal(S.shape)
        skew = skew - skew.T  # zero diagonal, zero symmetric part
        ws.kernel_matrix(theta)
        g_sym = ws.grad_dot(S, theta)
        ws.kernel_matrix(theta)
        g_asym = ws.grad_dot(S + skew, theta)
        assert np.allclose(g_sym, g_asym, rtol=1e-10, atol=1e-12)

    def test_extension_matches_fresh_build(self, kernel):
        X = random_X(n=17, seed=3)
        ws = ws_small = kernel.prepare(X[:9])
        for upto in (10, 13, 17):  # one-row and multi-row appends
            assert ws.update(X[:upto]) == "extend"
            fresh = kernel.prepare(X[:upto])
            for theta in random_thetas(kernel, count=2, seed=upto):
                K_ext = ws.kernel_matrix(theta).copy()
                K_fresh = fresh.kernel_matrix(theta)
                assert np.allclose(K_ext, K_fresh, rtol=1e-12, atol=1e-14)
        assert ws is ws_small  # extended in place, never replaced

    def test_update_modes(self, kernel):
        X = random_X(n=12, seed=4)
        ws = kernel.prepare(X[:8])
        assert ws.update(X[:8]) == "hit"  # unchanged training set
        assert ws.update(X[:11]) == "extend"  # appended rows only
        X_changed = X[:11].copy()
        X_changed[2, 0] += 0.25  # prefix row edited -> cache invalid
        assert ws.update(X_changed) == "rebuild"
        K = ws.kernel_matrix(kernel.theta)
        K_direct = kernel(X_changed)
        assert np.allclose(K, K_direct, rtol=1e-12, atol=1e-14)

    def test_signature_reuse_contract(self, kernel):
        X = random_X()
        ws = kernel.prepare(X)
        # Same structure at different theta: reusable.
        moved = kernel.with_theta(kernel.theta - 0.3)
        assert ws.matches(moved)
        assert workspace_signature(kernel) == workspace_signature(moved)
        # A structurally different kernel is not.
        other = Sum(kernel, WhiteKernel(0.5))
        assert not ws.matches(other)


class TestGPRegressorParity:
    def _data(self, n=60, d=3, seed=11):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (n, d))
        y = np.sin(X @ np.linspace(1.0, 2.5, d)) + 0.1 * rng.standard_normal(n)
        return X, y

    def test_lml_and_gradient_parity(self):
        X, y = self._data()
        gp_ws = GPRegressor(n_restarts=0, use_workspace=True).fit(X, y)
        gp_dir = GPRegressor(n_restarts=0, use_workspace=False).fit(X, y)
        for shift in (0.0, 0.21, -0.4):
            theta = gp_dir.kernel_.theta + shift
            lw, gw = gp_ws.log_marginal_likelihood(theta, eval_gradient=True)
            ld, gd = gp_dir.log_marginal_likelihood(theta, eval_gradient=True)
            assert abs(lw - ld) <= 1e-10 * abs(ld)
            assert np.abs(gw - gd).max() <= 1e-10 * max(np.abs(gd).max(), 1.0)

    def test_fitted_theta_and_predictions_match(self):
        X, y = self._data(n=80)
        gp_ws = GPRegressor(n_restarts=0, use_workspace=True).fit(X, y)
        gp_dir = GPRegressor(n_restarts=0, use_workspace=False).fit(X, y)
        assert np.allclose(gp_ws.kernel_.theta, gp_dir.kernel_.theta, atol=1e-8)
        Xq = random_X(n=25, seed=5)
        mw, sw = gp_ws.predict(Xq, return_std=True)
        md, sd = gp_dir.predict(Xq, return_std=True)
        assert np.allclose(mw, md, atol=1e-8)
        assert np.allclose(sw, sd, atol=1e-8)

    def test_growing_fits_extend_workspace(self):
        X, y = self._data(n=50)
        gp = GPRegressor(n_restarts=0, use_workspace=True)
        obs.METRICS.reset()
        for m in (30, 31, 40, 50):
            gp.fit(X[:m], y[:m])
        counts = obs.METRICS.counters()
        assert counts["ws_rebuild"] == 1  # first fit builds
        assert counts["ws_extend"] == 3  # every later fit extends
        assert counts["lml_eval"] > 0 and counts["lml_grad"] > 0
        obs.METRICS.reset()

    def test_workspace_survives_restarts(self):
        X, y = self._data(n=40)
        gp_ws = GPRegressor(
            n_restarts=2, rng=np.random.default_rng(3), use_workspace=True
        ).fit(X, y)
        gp_dir = GPRegressor(
            n_restarts=2, rng=np.random.default_rng(3), use_workspace=False
        ).fit(X, y)
        assert np.allclose(gp_ws.kernel_.theta, gp_dir.kernel_.theta, atol=1e-8)

    def test_unsupported_kernel_falls_back(self):
        class Oddball(Kernel):
            n_theta = 1

            @property
            def theta(self):
                return np.zeros(1)

            def with_theta(self, theta):
                return self

            @property
            def bounds(self):
                return np.array([[-1.0, 1.0]])

            def __call__(self, X, Y=None, eval_gradient=False):
                n = X.shape[0]
                m = n if Y is None else Y.shape[0]
                K = np.eye(n, m) * 2.0
                if eval_gradient:
                    return K, np.zeros((n, m, 1))
                return K

            def diag(self, X):
                return np.full(X.shape[0], 2.0)

        X, y = self._data(n=20)
        gp = GPRegressor(kernel=Oddball(), n_restarts=0, use_workspace=True)
        gp.fit(X, y)  # must not raise: prepare() is NotImplemented
        assert gp.use_workspace is False
        assert gp._ws is None

    def test_refactor_unaffected_by_workspace(self):
        X, y = self._data(n=45)
        results = []
        for use_ws in (True, False):
            gp = GPRegressor(n_restarts=0, use_workspace=use_ws)
            gp.fit(X[:40], y[:40])
            gp.refactor(X, y)  # frozen-theta incremental extension
            results.append(gp.predict(X[:10], return_std=True))
        (mw, sw), (md, sd) = results
        assert np.allclose(mw, md, atol=1e-8)
        assert np.allclose(sw, sd, atol=1e-8)


class TestTrajectoryParity:
    """The acceptance bar: a seeded AL trajectory selects identical
    experiments with the fast path on and off."""

    @pytest.mark.parametrize("policy_cls", [RandGoodness, MinPred])
    def test_selected_indices_identical(self, small_dataset, policy_cls):
        def run(use_ws):
            rng = np.random.default_rng(21)
            part = random_partition(rng, len(small_dataset), n_init=12, n_test=30)
            learner = ActiveLearner(
                small_dataset,
                part,
                policy_cls(),
                rng,
                config=ALConfig(
                    max_iterations=12, surrogate_options={"use_workspace": use_ws}
                ),
            )
            traj = learner.run()
            return traj, learner.gpr_cost.kernel_.theta, learner.gpr_mem.kernel_.theta

        obs.METRICS.reset()
        t_ws, thc_ws, thm_ws = run(True)
        counts = obs.METRICS.counters()
        t_dir, thc_dir, thm_dir = run(False)
        assert np.array_equal(t_ws.selected_indices, t_dir.selected_indices)
        assert np.allclose(thc_ws, thc_dir, atol=1e-8)
        assert np.allclose(thm_ws, thm_dir, atol=1e-8)
        assert np.allclose(t_ws.rmse_cost, t_dir.rmse_cost, atol=1e-7)
        # The fast path actually engaged: the loop's growing training sets
        # extended the workspace instead of rebuilding it.
        assert counts["ws_extend"] > 0
        assert counts["lml_eval"] > 0
        obs.METRICS.reset()


class TestSwitchReachesEveryBackend:
    """``surrogate_options={"use_workspace": False}`` is the one way to
    turn the workspace off in the loop, so it must reach the models of
    every backend, and the models must then take no workspace path."""

    @pytest.mark.parametrize("use_ws", [True, False])
    @pytest.mark.parametrize(
        "fields",
        [
            {"surrogate": "dense"},
            {"surrogate": "iterative"},
            {"surrogate": "sparse"},
            {"surrogate": "local"},
            {"surrogate": "treed"},
            {"num_fidelities": 2, "batch_size": 2},
        ],
        ids=["dense", "iterative", "sparse", "local", "treed", "multifidelity"],
    )
    def test_option_reaches_models_and_counters(self, small_dataset, fields, use_ws):
        switch = {} if use_ws else {"surrogate_options": {"use_workspace": False}}
        cfg = ALConfig(max_iterations=3, n_restarts=0, **fields, **switch)
        rng = np.random.default_rng(5)
        part = random_partition(rng, len(small_dataset), n_init=20, n_test=30)
        learner = ActiveLearner(cfg.priced(small_dataset), part, rng=rng, config=cfg)
        assert learner.gpr_cost.use_workspace is use_ws
        assert learner.gpr_mem.use_workspace is use_ws
        obs.METRICS.reset()
        learner.run()
        ws = {
            k: v for k, v in obs.METRICS.counters().items()
            if k.startswith("ws_") and v
        }
        obs.METRICS.reset()
        assert bool(ws) is use_ws, ws
