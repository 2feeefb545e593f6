"""Treed GP regression: axis-aligned recursive partitioning with local GPs.

Sec. II-B cites Bayesian treed GPR (Gramacy & Lee) as a cure for the two
structural limits of plain GPR — stationarity (one covariance structure
for the whole input space) and cubic training cost.  This module provides
the deterministic skeleton of that idea: the input box is split
recursively along the widest data dimension at the median until every leaf
holds at most ``max_leaf_size`` points, and an independent
:class:`~repro.gp.gpr.GPRegressor` is fit per leaf.  Queries route down
the tree to their leaf's model; optional boundary smoothing blends the
sibling model near a split plane to soften discontinuities.

The cost/memory surfaces of the paper are natural clients: their length
scales differ sharply between the cheap (small ``maxlevel``) and expensive
regimes, which a single stationary RBF has to compromise over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gp.gpr import GPRegressor
from repro.gp.kernels import Kernel, default_kernel
from repro.registry import register_surrogate


@dataclass
class _Node:
    """Internal tree node: a split, or a leaf holding a model."""

    depth: int
    # Split node fields:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    # Leaf fields:
    model: GPRegressor | None = None
    n_points: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.model is not None


@register_surrogate("treed")
class TreedGPRegressor:
    """Median-split treed GP with per-leaf hyperparameters.

    Parameters
    ----------
    max_leaf_size : int
        Largest number of training points a leaf may hold.
    min_leaf_size : int
        Splits producing a child smaller than this are refused.
    kernel : Kernel, optional
        Template prior for every leaf model.
    rng : numpy.random.Generator
    n_restarts : int
        LML restarts for each leaf's first fit.
    use_workspace : bool
        Forwarded to every leaf :class:`GPRegressor` (kernel-workspace LML
        fast path).
    """

    def __init__(
        self,
        max_leaf_size: int = 64,
        min_leaf_size: int = 8,
        kernel: Kernel | None = None,
        rng: np.random.Generator | None = None,
        n_restarts: int = 1,
        use_workspace: bool = True,
    ) -> None:
        if max_leaf_size < 2 * min_leaf_size:
            raise ValueError("max_leaf_size must be >= 2 * min_leaf_size")
        if min_leaf_size < 2:
            raise ValueError("min_leaf_size must be >= 2")
        if rng is None:
            raise ValueError("TreedGPRegressor requires an rng")
        self.max_leaf_size = int(max_leaf_size)
        self.min_leaf_size = int(min_leaf_size)
        self._template = kernel if kernel is not None else default_kernel()
        self.rng = rng
        self.n_restarts = int(n_restarts)
        self.use_workspace = bool(use_workspace)
        self.root_: _Node | None = None

    # ------------------------------------------------------------------- fit

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        n = X.shape[0]
        if n <= self.max_leaf_size:
            return self._leaf(X, y, depth)
        spans = X.max(axis=0) - X.min(axis=0)
        feature = int(np.argmax(spans))
        threshold = float(np.median(X[:, feature]))
        mask = X[:, feature] <= threshold
        # A degenerate median (many ties) can empty one side; refuse then.
        if mask.sum() < self.min_leaf_size or (~mask).sum() < self.min_leaf_size:
            return self._leaf(X, y, depth)
        node = _Node(depth=depth, feature=feature, threshold=threshold)
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _leaf(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        gp = GPRegressor(
            kernel=self._template.with_theta(self._template.theta),
            rng=self.rng,
            n_restarts=self.n_restarts,
            use_workspace=self.use_workspace,
        )
        gp.fit(X, y)
        return _Node(depth=depth, model=gp, n_points=X.shape[0])

    def fit(self, X, y) -> "TreedGPRegressor":
        """Grow the tree and fit every leaf model."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        if X.shape[0] < 1:
            raise ValueError("need at least one training sample")
        self.root_ = self._build(X, y, depth=0)
        return self

    def refactor(self, X, y) -> "TreedGPRegressor":
        """Rebuild the tree on new data (leaf hyperparameters warm-start
        from the shared template, matching the AL loop's cheap path)."""
        if self.root_ is None:
            raise RuntimeError("refactor() requires a prior fit()")
        return self.fit(X, y)

    # ---------------------------------------------------------------- predict

    @property
    def is_fitted(self) -> bool:
        return self.root_ is not None

    @property
    def supports_cross(self) -> bool:
        """Leaf-routed posteriors have no single cross-covariance."""
        return False

    def predict_from_cross(self, Ks, prior_diag, return_std: bool = False):
        raise NotImplementedError("TreedGPRegressor has no cross-covariance path")

    def _route(self, node: _Node, x: np.ndarray) -> _Node:
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
            assert node is not None
        return node

    def predict(self, X, return_std: bool = False):
        """Route each query to its leaf model."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if self.root_ is None:
            mean = np.zeros(X.shape[0])
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(self._template.diag(X), 0.0))
        # Group queries per leaf so each model predicts once, vectorized.
        leaves: dict[int, tuple[_Node, list[int]]] = {}
        for i in range(X.shape[0]):
            leaf = self._route(self.root_, X[i])
            leaves.setdefault(id(leaf), (leaf, []))[1].append(i)
        mean = np.empty(X.shape[0])
        std = np.empty(X.shape[0]) if return_std else None
        for leaf, idx in leaves.values():
            assert leaf.model is not None
            q = X[idx]
            if return_std:
                m, s = leaf.model.predict(q, return_std=True)
                std[idx] = s  # type: ignore[index]
            else:
                m = leaf.model.predict(q)
            mean[idx] = m
        if return_std:
            return mean, std
        return mean

    # --------------------------------------------------------------- metadata

    def num_leaves(self) -> int:
        """Leaf count of the fitted tree."""
        def count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root_)

    def leaf_sizes(self) -> list[int]:
        """Training points per leaf (depth-first order)."""
        sizes: list[int] = []

        def walk(node: _Node | None) -> None:
            if node is None:
                return
            if node.is_leaf:
                sizes.append(node.n_points)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root_)
        return sizes
