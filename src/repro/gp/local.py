"""Local Gaussian-process models: independent GPs on input-space regions.

The paper's future work (Sec. VI) proposes "train[ing] multiple local
performance models simultaneously"; its related work (Sec. II-B) points at
locally-weighted GP mixtures and treed GPR as the standard cures for GPR's
stationarity assumption and cubic cost.  This module implements the
partitioned variant: k-means regions over the (unit-cube) inputs, one
:class:`~repro.gp.gpr.GPRegressor` per region, and distance-weighted
blending of the nearest regions' predictions.

The class mirrors the ``fit`` / ``predict`` / ``refactor`` surface of
:class:`GPRegressor` and is registered as ``"local"``, so
:class:`repro.core.loop.ActiveLearner` swaps it in through
``ALConfig(surrogate="local", surrogate_options={"n_regions": ...})``.
"""

from __future__ import annotations

import numpy as np

from repro.gp.gpr import GPRegressor
from repro.gp.kernels import Kernel, default_kernel
from repro.registry import register_surrogate


def kmeans(
    X: np.ndarray, k: int, rng: np.random.Generator, n_iter: int = 25
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's algorithm.

    Returns ``(centroids, labels)``.  Initialization is k-means++-style
    (distance-proportional seeding); empty clusters are re-seeded on the
    farthest point.  Deterministic given the generator.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # k-means++ seeding.
    centroids = [X[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [(np.sum((X - c) ** 2, axis=1)) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(X[rng.integers(n)])
            continue
        centroids.append(X[rng.choice(n, p=d2 / total)])
    C = np.array(centroids)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d2 = np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                C[j] = X[members].mean(axis=0)
            else:
                # Re-seed an empty cluster on the overall farthest point.
                far = np.argmax(np.min(d2, axis=1))
                C[j] = X[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return C, labels


@register_surrogate("local")
class LocalGPRegressor:
    """K independent local GPs with distance-weighted prediction blending.

    Parameters
    ----------
    n_regions : int
        Number of k-means regions (clamped to the training-set size).
    kernel : Kernel, optional
        Prior covariance shared (as a template) by all local models.
    blend : int
        Number of nearest regions blended per query point (inverse-distance
        weights); 1 gives hard region assignment.
    rng : numpy.random.Generator
        Drives clustering and local LML restarts.
    n_restarts : int
        Restarts of each local model's first fit.
    use_workspace : bool
        Forwarded to every per-region :class:`GPRegressor` (kernel-workspace
        LML fast path).
    """

    def __init__(
        self,
        n_regions: int = 4,
        kernel: Kernel | None = None,
        blend: int = 2,
        rng: np.random.Generator | None = None,
        n_restarts: int = 1,
        use_workspace: bool = True,
    ) -> None:
        if n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if blend < 1:
            raise ValueError("blend must be >= 1")
        if rng is None:
            raise ValueError("LocalGPRegressor requires an rng")
        self.n_regions = int(n_regions)
        self.blend = int(blend)
        self.rng = rng
        self.n_restarts = int(n_restarts)
        self.use_workspace = bool(use_workspace)
        self._template = kernel if kernel is not None else default_kernel()
        self.centroids_: np.ndarray | None = None
        self.models_: list[GPRegressor] = []
        self._labels: np.ndarray | None = None

    # -------------------------------------------------------------------- fit

    def _effective_k(self, n: int) -> int:
        # Each region needs a handful of points to fit three hyperparameters.
        return max(1, min(self.n_regions, n // 5, n))

    def fit(self, X, y) -> "LocalGPRegressor":
        """Cluster the inputs and fit one GP per region."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        k = self._effective_k(X.shape[0])
        self.centroids_, self._labels = kmeans(X, k, self.rng)
        self.models_ = []
        for j in range(k):
            members = self._labels == j
            gp = GPRegressor(
                kernel=self._template.with_theta(self._template.theta),
                rng=self.rng,
                n_restarts=self.n_restarts,
                use_workspace=self.use_workspace,
            )
            gp.fit(X[members], y[members])
            self.models_.append(gp)
        return self

    def refactor(self, X, y) -> "LocalGPRegressor":
        """Re-cluster and refit with frozen per-region hyperparameters.

        New data can shift regions, so clustering reruns; each region's GP
        reuses the hyperparameters of the (positionally) nearest previous
        region via warm start — matching the AL loop's cheap-refit path.
        """
        if self.centroids_ is None:
            raise RuntimeError("refactor() requires a prior fit()")
        return self.fit(X, y)

    # ---------------------------------------------------------------- predict

    @property
    def is_fitted(self) -> bool:
        return bool(self.models_)

    @property
    def supports_cross(self) -> bool:
        """Blended regional posteriors have no single cross-covariance."""
        return False

    def predict_from_cross(self, Ks, prior_diag, return_std: bool = False):
        raise NotImplementedError("LocalGPRegressor has no cross-covariance path")

    def predict(self, X, return_std: bool = False):
        """Blend the nearest regions' predictions by inverse distance."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if not self.models_:
            mean = np.zeros(X.shape[0])
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(self._template.diag(X), 0.0))
        C = self.centroids_
        k = C.shape[0]
        m = min(self.blend, k)
        d2 = np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=2)
        nearest = np.argsort(d2, axis=1)[:, :m]  # (nq, m)

        mus = np.stack([gp.predict(X) for gp in self.models_], axis=1)  # (nq, k)
        if return_std:
            stds = np.stack(
                [gp.predict(X, return_std=True)[1] for gp in self.models_], axis=1
            )
        w = 1.0 / (np.take_along_axis(d2, nearest, axis=1) + 1e-12)
        w = w / w.sum(axis=1, keepdims=True)
        mu = np.sum(np.take_along_axis(mus, nearest, axis=1) * w, axis=1)
        if not return_std:
            return mu
        # Blend variances + dispersion between local means (mixture moment).
        local_mu = np.take_along_axis(mus, nearest, axis=1)
        local_sd = np.take_along_axis(stds, nearest, axis=1)
        var = np.sum(w * (local_sd**2 + (local_mu - mu[:, None]) ** 2), axis=1)
        return mu, np.sqrt(np.maximum(var, 0.0))

    # --------------------------------------------------------------- metadata

    def region_sizes(self) -> list[int]:
        """Training points per region after the last fit."""
        if self._labels is None:
            return []
        return np.bincount(self._labels, minlength=len(self.models_)).tolist()
