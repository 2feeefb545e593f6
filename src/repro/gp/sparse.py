"""Sparse GP approximation with inducing points (DTC / projected process).

Sec. II-B of the paper singles out Sparse Pseudo-input GPs and Sparse
Spectrum GPs as optimizations that "drastically reduce computational
complexity of the modeling" and notes they are "compatible with the cost-
and memory-aware AL described here" — enabling AL over *massive*
experimental datasets.  This module provides that capability with the
Deterministic Training Conditional (DTC) approximation:

- ``m`` inducing inputs are placed at k-means centroids of the data;
- hyperparameters are fit exactly on a subset of the data
  (subset-of-data), then frozen for the sparse predictor;
- training cost drops from ``O(n^3)`` to ``O(n m^2)`` and prediction to
  ``O(m^2)`` per point.

The predictive equations (Quinonero-Candela & Rasmussen, 2005):

    A      = sigma_n^2 K_mm + K_mn K_nm
    mu(*)  = K_*m A^{-1} K_mn y
    var(*) = k_** - Q_** + sigma_n^2 K_*m A^{-1} K_m*

with ``Q_** = K_*m K_mm^{-1} K_m*``.

Because every training-set-size-n object above is a *sum over training
points* (``K_mn K_nm = sum_i k_m(x_i) k_m(x_i)^T``, ``K_mn y = sum_i
k_m(x_i) y_i``), the AL loop's one-acquisition growth is a rank-``m_new``
update: :meth:`SparseGPRegressor.refactor` detects appended rows, folds
their ``(m, m_new)`` cross block into the running ``A`` / ``K_mn y``
accumulators (raw, so target re-centering stays exact), and re-factorizes
only the m x m system — O(n) per acquisition instead of O(n m^2), with
the inducing set frozen.  Non-append refactors fall back to a full
re-cluster + rebuild.

The predictive state also exposes the *cross-covariance* surface of the
``Surrogate`` protocol: all predictions depend on the query points only
through ``K_*m`` against the **inducing set**, so
``cross_points_ = inducing_`` and batch acquisition over a large
candidate pool is one (M, m) @ (m,) BLAS pass through
:meth:`predict_from_cross` — no per-candidate solves.  Since inducing
points do not move when a candidate is acquired (append path), cached
candidate rows stay valid across AL iterations
(``cross_appends_on_acquire = False``); re-clustering bumps
``cross_version_`` so caches rebuild exactly when the basis moved.

The class mirrors :class:`~repro.gp.gpr.GPRegressor`'s surface and is
registered as ``"sparse"``, so the AL loop takes it through
``ALConfig.surrogate``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from repro import obs
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import Kernel, default_kernel
from repro.gp.local import kmeans
from repro.registry import register_surrogate

_JITTER = 1e-8


@register_surrogate("sparse")
class SparseGPRegressor:
    """DTC sparse GP with k-means inducing points.

    Parameters
    ----------
    n_inducing : int
        Number of inducing inputs ``m`` (clamped to the training size).
    kernel : Kernel, optional
        Prior covariance *including* a noise (White) component; defaults
        to the paper's amplitude * RBF + noise.
    rng : numpy.random.Generator
        Drives inducing-point clustering and the hyperparameter subset.
    sod_factor : int
        The hyperparameter fit uses ``min(n, sod_factor * m)`` random
        training points in an exact GP.
    normalize_y : bool
        Center targets before fitting (restored at prediction).
    use_workspace : bool
        Forwarded to the inner exact :class:`GPRegressor` doing the
        subset-of-data hyperparameter fit (kernel-workspace LML fast path).
    incremental : bool
        Allow :meth:`refactor` to fold appended rows into the running
        ``A`` / ``K_mn y`` accumulators (O(n) per acquisition, inducing
        set frozen) instead of re-clustering and rebuilding.  Disable to
        force the from-scratch path (equivalence tests).
    """

    #: Cached candidate cross rows survive acquisitions: the inducing set
    #: does not absorb acquired points on the append path (Surrogate
    #: cross-surface contract, see repro.gp.surrogate.cross_appends).
    cross_appends_on_acquire = False

    def __init__(
        self,
        n_inducing: int = 50,
        kernel: Kernel | None = None,
        rng: np.random.Generator | None = None,
        sod_factor: int = 3,
        normalize_y: bool = True,
        use_workspace: bool = True,
        incremental: bool = True,
    ) -> None:
        if n_inducing < 1:
            raise ValueError("n_inducing must be >= 1")
        if sod_factor < 1:
            raise ValueError("sod_factor must be >= 1")
        if rng is None:
            raise ValueError("SparseGPRegressor requires an rng")
        self.n_inducing = int(n_inducing)
        self.kernel = kernel if kernel is not None else default_kernel()
        self.rng = rng
        self.sod_factor = int(sod_factor)
        self.normalize_y = normalize_y
        self.use_workspace = bool(use_workspace)
        self.incremental = bool(incremental)

        self.kernel_: Kernel | None = None
        self.inducing_: np.ndarray | None = None
        self.X_train_: np.ndarray | None = None
        self.y_train_: np.ndarray | None = None
        self._y_mean = 0.0
        self._noise = 1e-2
        self._L_A: np.ndarray | None = None  # chol of A (+ jitter)
        self._L_mm: np.ndarray | None = None  # chol of K_mm
        self._beta: np.ndarray | None = None  # A^{-1} K_mn yc
        #: Raw training-sum state making appends exact under re-centering:
        #: A itself, K_mn @ y (uncentered), K_mn @ 1, and sum(y).
        self._A: np.ndarray | None = None
        self._Kmn_y_raw: np.ndarray | None = None
        self._Kmn_1: np.ndarray | None = None
        self._y_sum = 0.0
        #: Basis epoch: bumped whenever the inducing set moves, so cached
        #: cross rows against it are invalidated exactly then.
        self.cross_version_ = 0
        self.last_factor_mode_ = ""

    # ------------------------------------------------------------------ fit

    def _estimate_noise(self, Z: np.ndarray) -> float:
        """Noise variance = (diag incl. noise) - (noise-free diag)."""
        assert self.kernel_ is not None
        z0 = Z[:1]
        with_noise = float(self.kernel_.diag(z0)[0])
        without = float(self.kernel_(z0, z0)[0, 0])
        return max(with_noise - without, 1e-10)

    def fit(self, X, y) -> "SparseGPRegressor":
        """Fit hyperparameters on a subset, then build the DTC factors."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        n = X.shape[0]
        with obs.timed("fit", cat="gp", n=n):
            # 1. Subset-of-data hyperparameter fit (exact GP on a sample).
            m = min(self.n_inducing, n)
            n_sod = min(n, self.sod_factor * m)
            sod = self.rng.choice(n, size=n_sod, replace=False)
            exact = GPRegressor(
                kernel=self.kernel.with_theta(
                    self.kernel_.theta
                    if self.kernel_ is not None
                    else self.kernel.theta
                ),
                rng=self.rng,
                n_restarts=1 if self.kernel_ is None else 0,
                use_workspace=self.use_workspace,
            )
            exact.fit(X[sod], y[sod])
            self.kernel_ = exact.kernel_
            # 2. Inducing points at k-means centroids.
            self._recluster(X)
            self._factorize(X, y)
        self.last_factor_mode_ = "fit"
        return self

    def refactor(self, X, y) -> "SparseGPRegressor":
        """New data, frozen hyperparameters.

        Appended rows (the AL loop's acquisitions) are *folded into* the
        running sufficient statistics with the inducing set frozen —
        O(n m) for the new cross block plus an O(m^3) re-factorization of
        the m x m system.  Anything else re-clusters and rebuilds.
        """
        if self.kernel_ is None:
            raise RuntimeError("refactor() requires a prior fit()")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        if self._can_append(X):
            with obs.timed("rank1_update", cat="gp", n=len(X)):
                self._append(X, y)
            self.last_factor_mode_ = "rank1"
            return self
        with obs.timed("refactor", cat="gp", n=len(X)):
            self._recluster(X)
            self._factorize(X, y)
        self.last_factor_mode_ = "full"
        return self

    def _recluster(self, X: np.ndarray) -> None:
        """Re-place the inducing set; invalidates cached cross rows."""
        k = min(self.n_inducing, X.shape[0])
        self.inducing_, _ = kmeans(X, k, self.rng)
        self.cross_version_ += 1
        obs.incr("sparse_recluster")

    def _can_append(self, X: np.ndarray) -> bool:
        old = self.X_train_
        return (
            self.incremental
            and self._A is not None
            and old is not None
            and X.shape[0] > old.shape[0]
            and X.shape[1] == old.shape[1]
            and np.array_equal(X[: old.shape[0]], old)
        )

    def _append(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fold appended rows into ``A`` and the raw target statistics."""
        assert self.kernel_ is not None and self.inducing_ is not None
        assert self._A is not None
        assert self._Kmn_y_raw is not None and self._Kmn_1 is not None
        n_old = self.X_train_.shape[0]
        X_new, y_new = X[n_old:], y[n_old:]
        kmn_new = self.kernel_(self.inducing_, X_new)  # (m, m_new), noise-free
        self._A += kmn_new @ kmn_new.T
        self._Kmn_y_raw += kmn_new @ y_new
        self._Kmn_1 += kmn_new.sum(axis=1)
        self._y_sum += float(y_new.sum())
        self.X_train_ = X
        self.y_train_ = y
        self._refresh_solution()
        obs.incr("sparse_append")

    def _factorize(self, X: np.ndarray, y: np.ndarray) -> None:
        """From-scratch DTC factors + raw accumulators at the current basis."""
        assert self.kernel_ is not None and self.inducing_ is not None
        Z = self.inducing_
        self._noise = self._estimate_noise(Z)
        Kmm = self.kernel_(Z, Z) + _JITTER * np.eye(Z.shape[0])
        Kmn = self.kernel_(Z, X)  # cross-covariance: noise-free
        self._L_mm = cholesky(Kmm, lower=True, check_finite=False)
        self._A = self._noise * Kmm + Kmn @ Kmn.T
        self._Kmn_y_raw = Kmn @ y
        self._Kmn_1 = Kmn.sum(axis=1)
        self._y_sum = float(y.sum())
        self.X_train_ = X
        self.y_train_ = y
        self._refresh_solution()

    def _refresh_solution(self) -> None:
        """Re-factorize the m x m system from the current accumulators.

        The centered projection ``K_mn (y - y_mean)`` is recovered from the
        raw sums — exactly, even though every append shifts the mean.
        """
        assert self._A is not None and self.X_train_ is not None
        n = self.X_train_.shape[0]
        self._y_mean = self._y_sum / n if self.normalize_y else 0.0
        self._L_A = cholesky(
            self._A + _JITTER * np.eye(self._A.shape[0]),
            lower=True,
            check_finite=False,
        )
        rhs = self._Kmn_y_raw - self._y_mean * self._Kmn_1
        self._beta = cho_solve((self._L_A, True), rhs, check_finite=False)

    # ---------------------------------------------------------------- predict

    @property
    def is_fitted(self) -> bool:
        return self._beta is not None

    @property
    def supports_cross(self) -> bool:
        """Cross surface against the *inducing* set (see cross_points_)."""
        return True

    @property
    def cross_points_(self) -> np.ndarray | None:
        """Predictions read query points only through ``K_*m`` vs these."""
        return self.inducing_

    def predict_from_cross(self, Ks, prior_diag, return_std: bool = False):
        """Predict from precomputed ``K_*m`` against the inducing set.

        ``Ks`` must equal ``kernel_(X_query, inducing_)`` (shape
        ``(M, m)``) and ``prior_diag`` must equal
        ``kernel_.diag(X_query)`` — the same contract as the exact GP's
        cross path, with the inducing set as the basis.  One BLAS-3 pass
        scores the whole candidate pool: O(M m) mean + O(M m^2) variance.
        """
        if self._beta is None:
            raise RuntimeError("predict_from_cross() requires a fitted model")
        Ks = np.asarray(Ks, dtype=np.float64)
        if Ks.ndim != 2 or Ks.shape[1] != self._beta.shape[0]:
            raise ValueError("Ks must be (m_query, n_inducing)")
        with obs.timed("predict", cat="gp"):
            mean = Ks @ self._beta + self._y_mean
            if not return_std:
                return mean
            # Noise-free prior diag: prior_diag includes the white term.
            k_diag = np.asarray(prior_diag, dtype=np.float64) - self._noise
            v_mm = solve_triangular(
                self._L_mm, Ks.T, lower=True, check_finite=False
            )
            q_diag = np.einsum("ij,ij->j", v_mm, v_mm)
            v_a = solve_triangular(
                self._L_A, Ks.T, lower=True, check_finite=False
            )
            corr = self._noise * np.einsum("ij,ij->j", v_a, v_a)
            var = k_diag - q_diag + corr
            return mean, np.sqrt(np.maximum(var, 0.0))

    def predict(self, X, return_std: bool = False):
        """DTC predictive mean (and std) at query points."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if self._beta is None:
            kernel = self.kernel_ if self.kernel_ is not None else self.kernel
            mean = np.zeros(X.shape[0])
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(kernel.diag(X), 0.0))
        assert self.kernel_ is not None and self.inducing_ is not None
        Ksm = self.kernel_(X, self.inducing_)
        return self.predict_from_cross(
            Ksm, self.kernel_.diag(X), return_std=return_std
        )

    @property
    def num_inducing(self) -> int:
        """Inducing points currently in use."""
        return 0 if self.inducing_ is None else int(self.inducing_.shape[0])
