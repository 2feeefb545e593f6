"""Tests for the iterative (CG/Lanczos) large-n GP fast path.

Three layers of evidence, mirroring the module's structure:

- **Solver primitives** — hypothesis drives :func:`pcg` against dense
  ``cho_solve`` across randomly composed kernel trees (RBF / Matérn /
  Sum / Product, isotropic and ARD), and pins the pivoted-Cholesky /
  Woodbury / SLQ identities on deterministic cases.
- **Stochastic LML** — with a *complete* probe basis (``Z = sqrt(n) I``,
  ``steps >= n``) the Hutchinson/SLQ estimator collapses to the exact
  value and gradient, so it is compared to the dense ``_lml`` directly;
  statistical unbiasedness is checked by averaging independent probe
  draws against the dense gradient.
- **Model contract** — small-n theta/prediction parity with the dense
  :class:`GPRegressor` (the AL selection-parity contract), matrix-free
  mode equivalence, refactor-extension parity, determinism under
  refitting, and the memory-budget guard rerouting story.

All hypothesis runs are seeded (``derandomize=True``): no flaky CI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from repro import obs
from repro.gp.gpr import GPRegressor
from repro.gp.iterative import (
    IterativeGPRegressor,
    KernelOperator,
    _Woodbury,
    noise_free_diag,
    pcg,
    pivoted_cholesky,
    slq_logdet,
)
from repro.gp.kernels import (
    RBF,
    ConstantKernel,
    Matern,
    WhiteKernel,
    default_kernel,
)


def _data(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    y = np.sin(X @ np.linspace(1.0, 3.0, d)) + 0.05 * rng.standard_normal(n)
    return X, y


# Kernel-tree strategy: every structural node the workspace knows about,
# isotropic and ARD leaves, always with a White term so K is well
# conditioned (the model never runs noise-free in practice either).
_D = 3


def _leaf(kind, ard):
    if kind == "rbf":
        # Only the RBF leaf supports per-dimension (ARD) length scales.
        ls = np.linspace(0.4, 0.8, _D) if ard else 0.5
        return RBF(length_scale=ls)
    return Matern(length_scale=0.5, nu=1.5)


@st.composite
def kernel_trees(draw):
    kind = draw(st.sampled_from(["rbf", "matern"]))
    ard = draw(st.booleans())
    base = _leaf(kind, ard)
    shape = draw(st.sampled_from(["plain", "scaled", "sum", "product"]))
    if shape == "scaled":
        base = ConstantKernel(1.7) * base
    elif shape == "sum":
        base = base + _leaf(draw(st.sampled_from(["rbf", "matern"])), False)
    elif shape == "product":
        base = base * ConstantKernel(0.8)
    return base + WhiteKernel(noise_level=draw(st.sampled_from([1e-2, 1e-1])))


class TestPCG:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(kernel=kernel_trees(), seed=st.integers(0, 10))
    def test_matches_dense_cho_solve(self, kernel, seed):
        X, y = _data(40, seed=seed)
        op = KernelOperator(kernel, X, K=kernel(X))
        pc = pivoted_cholesky(op, max_rank=20)
        wb = _Woodbury(pc.L, op.noise_diag + pc.d_resid)
        x_it, iters, rel = pcg(op.matmat, y, wb.solve, tol=1e-12, maxiter=200)
        x_ref = cho_solve(cho_factor(kernel(X), lower=True), y)
        assert rel <= 1e-12
        np.testing.assert_allclose(x_it, x_ref, rtol=1e-7, atol=1e-9)

    def test_batched_rhs_and_warm_start(self, rng):
        X, _ = _data(50, seed=3)
        kernel = default_kernel()
        K = kernel(X)
        op = KernelOperator(kernel, X, K=K)
        B = rng.standard_normal((50, 4))
        Xs, _, rel = pcg(op.matmat, B, tol=1e-11, maxiter=200)
        ref = cho_solve(cho_factor(K, lower=True), B)
        np.testing.assert_allclose(Xs, ref, rtol=1e-6, atol=1e-8)
        # Warm-starting from the solution converges immediately.
        _, iters, rel = pcg(op.matmat, B, tol=1e-10, maxiter=200, x0=Xs)
        assert iters == 0 and rel <= 1e-10

    def test_iteration_cap_is_not_an_error(self):
        X, y = _data(40, seed=5)
        kernel = default_kernel(noise_level=1e-6)
        op = KernelOperator(kernel, X, K=kernel(X))
        _, iters, rel = pcg(op.matmat, y, tol=1e-14, maxiter=2)
        assert iters == 2  # capped, deterministic, no exception


class TestPivotedCholeskyAndWoodbury:
    def test_full_rank_reconstructs_noise_free_K(self):
        X, _ = _data(30, seed=1)
        kernel = default_kernel(noise_level=0.05)
        op = KernelOperator(kernel, X, K=kernel(X))
        pc = pivoted_cholesky(op, max_rank=30, rtol=0.0)
        K_free = kernel(X) - np.diag(op.noise_diag)
        np.testing.assert_allclose(
            pc.L @ pc.L.T + np.diag(pc.d_resid), K_free, atol=1e-8
        )

    def test_truncated_rank_has_exact_diagonal(self):
        X, _ = _data(60, seed=2)
        kernel = default_kernel(noise_level=0.05)
        op = KernelOperator(kernel, X, K=kernel(X))
        pc = pivoted_cholesky(op, max_rank=8, rtol=0.0)
        assert pc.rank == 8
        diag_free = op.diag - op.noise_diag
        np.testing.assert_allclose(
            np.einsum("ij,ij->i", pc.L, pc.L) + pc.d_resid, diag_free, atol=1e-10
        )

    def test_extend_matches_from_scratch(self):
        X, _ = _data(50, seed=4)
        kernel = default_kernel(noise_level=0.05)
        op_old = KernelOperator(kernel, X[:40], K=kernel(X[:40]))
        pc = pivoted_cholesky(op_old, max_rank=12, rtol=0.0)
        pc.extend(kernel, X[40:], noise_free_diag(kernel, X[40:]))
        # Same pivots applied to the full set reproduce the extended rows.
        op_all = KernelOperator(kernel, X, K=kernel(X))
        K_free = kernel(X) - np.diag(op_all.noise_diag)
        recon = pc.L @ pc.L.T + np.diag(pc.d_resid)
        np.testing.assert_allclose(np.diag(recon), np.diag(K_free), atol=1e-10)
        np.testing.assert_allclose(
            recon[:, pc.pivots], K_free[:, pc.pivots], atol=1e-8
        )

    def test_woodbury_solves_its_model(self, rng):
        X, _ = _data(45, seed=6)
        kernel = default_kernel(noise_level=0.05)
        op = KernelOperator(kernel, X, K=kernel(X))
        pc = pivoted_cholesky(op, max_rank=45, rtol=0.0)
        D = op.noise_diag + pc.d_resid
        wb = _Woodbury(pc.L, D)
        K_hat = pc.L @ pc.L.T + np.diag(D)
        v = rng.standard_normal(45)
        np.testing.assert_allclose(K_hat @ wb.solve(v), v, atol=1e-8)
        Ks = rng.standard_normal((5, 45))
        q_ref = np.einsum("ij,ij->i", Ks @ np.linalg.inv(K_hat), Ks)
        np.testing.assert_allclose(wb.quad(Ks), q_ref, atol=1e-8)


class TestSLQ:
    def test_complete_probe_basis_is_exact(self):
        X, _ = _data(25, seed=7)
        kernel = default_kernel(noise_level=0.1)
        K = kernel(X)
        op = KernelOperator(kernel, X, K=K)
        n = K.shape[0]
        Z = np.sqrt(n) * np.eye(n)  # E[zz^T] = I and spans everything
        est, steps = slq_logdet(op.matmat, Z, steps=n)
        _, ref = np.linalg.slogdet(K)
        assert abs(est - ref) < 1e-6
        assert steps <= n * n

    def test_rademacher_probes_concentrate(self):
        X, _ = _data(80, seed=8)
        kernel = default_kernel(noise_level=0.1)
        K = kernel(X)
        op = KernelOperator(kernel, X, K=K)
        rng = np.random.default_rng(0)
        Z = rng.integers(0, 2, size=(80, 64)) * 2.0 - 1.0
        est, _ = slq_logdet(op.matmat, Z, steps=30)
        _, ref = np.linalg.slogdet(K)
        assert abs(est - ref) < 0.05 * abs(ref) + 0.5


class TestStochasticLML:
    def _setup(self, n=30, seed=9, **kw):
        X, y = _data(n, seed=seed)
        model = IterativeGPRegressor(n_restarts=0, cg_tol=1e-12, **kw)
        model.X_train_, model.y_train_ = X, y
        model._y_mean = float(y.mean())
        yc = model._centered_y()
        kernel = model.kernel
        ws = model._ensure_workspace(kernel, X)
        assert ws is not None
        return model, X, yc, ws

    def test_complete_probes_match_dense_lml(self):
        model, X, yc, ws = self._setup(lanczos_steps=64)
        n = X.shape[0]
        theta = model.kernel.theta
        Z = np.sqrt(n) * np.eye(n)
        inner = np.empty((n, n))
        lml, grad = model._lml_stochastic(theta, X, yc, ws, Z, inner)
        lml_ref, grad_ref = model._lml(theta, X, yc, eval_gradient=True)
        # With a complete basis, SLQ logdet and the Hutchinson trace both
        # collapse to the exact quantities — only CG tolerance remains.
        assert abs(lml - lml_ref) < 1e-6
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-6, atol=1e-7)

    def test_hutchinson_gradient_is_unbiased(self):
        model, X, yc, ws = self._setup(n=25)
        n = X.shape[0]
        theta = model.kernel.theta
        _, grad_ref = model._lml(theta, X, yc, eval_gradient=True)
        rng = np.random.default_rng(11)
        inner = np.empty((n, n))
        grads = []
        for _ in range(200):
            Z = rng.integers(0, 2, size=(n, 4)) * 2.0 - 1.0
            _, g = model._lml_stochastic(theta, X, yc, ws, Z, inner)
            grads.append(g)
        mean = np.mean(grads, axis=0)
        sem = np.std(grads, axis=0) / np.sqrt(len(grads))
        # Mean within 4 standard errors of the exact gradient, per theta.
        assert np.all(np.abs(mean - grad_ref) < 4.0 * sem + 1e-8)


class TestModelParity:
    def test_small_n_matches_dense_backend(self):
        X, y = _data(120, seed=12)
        dense = GPRegressor(n_restarts=1, rng=np.random.default_rng(0))
        it = IterativeGPRegressor(n_restarts=1, rng=np.random.default_rng(0))
        dense.fit(X, y)
        it.fit(X, y)
        # Identical optimizer trajectory (inherited exact LML + same rng
        # consumption) => bit-equal hyperparameters.
        np.testing.assert_array_equal(it.kernel_.theta, dense.kernel_.theta)
        mu_d, sd_d = dense.predict(X[:20] + 0.01, return_std=True)
        mu_i, sd_i = it.predict(X[:20] + 0.01, return_std=True)
        np.testing.assert_allclose(mu_i, mu_d, atol=1e-8)
        np.testing.assert_allclose(sd_i, sd_d, atol=1e-6)

    def test_matrix_free_matches_dense_structure(self):
        # Same frozen theta through both factorization modes: the
        # hyperparameter *fit* differs by design above the crossover
        # (stochastic vs subset-of-data), so theta is pinned via refactor.
        X, y = _data(100, seed=13)
        kw = dict(n_restarts=0)
        a = IterativeGPRegressor(rng=np.random.default_rng(1), **kw)
        b = IterativeGPRegressor(
            rng=np.random.default_rng(1), max_dense_bytes=0, **kw
        )
        a.fit(X, y)
        b.kernel_ = a.kernel_
        b.refactor(X, y)
        assert a._K_buf is not None and b._K_buf is None
        mu_a, sd_a = a.predict(X[:15] + 0.02, return_std=True)
        mu_b, sd_b = b.predict(X[:15] + 0.02, return_std=True)
        np.testing.assert_allclose(mu_b, mu_a, atol=1e-7)
        np.testing.assert_allclose(sd_b, sd_a, atol=1e-7)

    def test_operator_matrix_free_matvec_parity(self, rng):
        X, _ = _data(70, seed=14)
        kernel = default_kernel()
        dense = KernelOperator(kernel, X, K=kernel(X))
        free = KernelOperator(kernel, X, block_bytes=70 * 8 * 4)
        V = rng.standard_normal((70, 3))
        np.testing.assert_allclose(free.matmat(V), dense.matmat(V), atol=1e-10)
        np.testing.assert_allclose(
            free.row_noise_free(5), dense.row_noise_free(5), atol=1e-12
        )

    @pytest.mark.parametrize("dense_bytes", [4e9, 0.0])
    def test_refactor_extension_matches_cold(self, dense_bytes):
        X, y = _data(90, seed=15)
        kw = dict(
            n_restarts=0, exact_lml_max_n=60, sod_max=60,
            max_dense_bytes=dense_bytes,
        )
        warm = IterativeGPRegressor(rng=np.random.default_rng(2), **kw)
        cold = IterativeGPRegressor(
            rng=np.random.default_rng(2), incremental=False, **kw
        )
        warm.fit(X[:60], y[:60])
        cold.fit(X[:60], y[:60])
        warm.refactor(X, y)
        cold.refactor(X, y)
        assert warm.last_factor_mode_ == "rank1"
        assert cold.last_factor_mode_ == "full"
        Xq = X[:10] + 0.01
        mu_w, sd_w = warm.predict(Xq, return_std=True)
        mu_c, sd_c = cold.predict(Xq, return_std=True)
        np.testing.assert_allclose(mu_w, mu_c, atol=1e-7)
        # The extension keeps the old pivots frozen while the cold factor
        # re-pivots over all n, so the (approximate) variance agrees to
        # preconditioner accuracy, not solver tolerance.
        np.testing.assert_allclose(sd_w, sd_c, rtol=1e-2, atol=1e-4)

    def test_stochastic_fit_recovers_reasonable_model(self):
        X, y = _data(150, seed=16)
        model = IterativeGPRegressor(
            n_restarts=0, exact_lml_max_n=50, rng=np.random.default_rng(3)
        )
        model.fit(X, y)
        resid = model.predict(X) - y
        assert float(np.sqrt(np.mean(resid**2))) < 0.2

    def test_repeated_fits_are_deterministic(self):
        X, y = _data(80, seed=17)
        kw = dict(n_restarts=1, exact_lml_max_n=40)
        a = IterativeGPRegressor(rng=np.random.default_rng(4), **kw)
        b = IterativeGPRegressor(rng=np.random.default_rng(4), **kw)
        a.fit(X, y)
        b.fit(X, y)
        np.testing.assert_array_equal(a.kernel_.theta, b.kernel_.theta)
        np.testing.assert_array_equal(a.predict(X[:9]), b.predict(X[:9]))

    def test_workspace_counters_superset(self):
        """The solver's work reaches ``obs``: CG solves and the preconditioner."""
        X, y = _data(50, seed=18)
        obs.reset()
        IterativeGPRegressor(n_restarts=0).fit(X, y)
        assert obs.counters()["cg_solves"] >= 1
        assert obs.gauges()["precond_rank"] >= 1


class TestNoiseFreeDiag:
    def test_tree_walk_matches_cross_diagonal(self):
        X, _ = _data(20, seed=19)
        kernels = [
            default_kernel(),
            ConstantKernel(2.0) * RBF(0.5) + WhiteKernel(0.3),
            (RBF(0.5) + Matern(0.7, nu=2.5)) * ConstantKernel(1.5)
            + WhiteKernel(1e-2),
        ]
        for kernel in kernels:
            ref = np.diag(kernel(X, X.copy()))  # cross form excludes White
            np.testing.assert_allclose(noise_free_diag(kernel, X), ref, atol=1e-12)


class TestMemoryGuard:
    def test_dense_gp_raises_over_budget(self):
        X, y = _data(200, seed=20)
        model = GPRegressor(n_restarts=0, max_memory_MB=0.5)
        with pytest.raises(MemoryError, match="IterativeGPRegressor"):
            model.fit(X, y)

    def test_dense_gp_refactor_guarded(self):
        X, y = _data(200, seed=20)
        model = GPRegressor(n_restarts=0, max_memory_MB=0.5)
        model.max_memory_MB = None
        model.fit(X[:50], y[:50])
        model.max_memory_MB = 0.5
        with pytest.raises(MemoryError):
            model.refactor(X, y)

    def test_iterative_reroutes_under_same_budget(self):
        X, y = _data(200, seed=20)
        model = IterativeGPRegressor(
            n_restarts=0, max_memory_MB=0.5, exact_lml_max_n=20, sod_max=50
        )
        model.fit(X, y)  # small budget forces the matrix-free mode
        assert model._K_buf is None
        assert model.predict(X[:5]).shape == (5,)

    def test_within_budget_fits_normally(self):
        X, y = _data(60, seed=21)
        model = GPRegressor(n_restarts=0, max_memory_MB=100.0)
        model.fit(X, y)
        assert model.is_fitted
