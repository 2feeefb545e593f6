"""Byte identity of ``Kernel.__call__`` against a plain reference.

Without gradients, composite kernels build their matrix in one pass: a
``ConstantKernel`` factor scales the other factor's fresh matrix in
place, a ``WhiteKernel`` term is never materialized (its noise goes on
the diagonal of square inputs), and the squared distances and the RBF
exponential run in place.  Each element must still get the same IEEE
operations as the plain evaluation, so the candidate caches, the test-set
predictions and every selection stay bit for bit where they were.

The reference here evaluates each leaf alone, with the textbook
expressions, and combines the leaves with plain ``*`` and ``+``.
"""

import math

import numpy as np
import pytest

from repro.gp.kernels import (
    RBF,
    ConstantKernel,
    Matern,
    Product,
    Sum,
    WhiteKernel,
    default_kernel,
)


def _ref_sqdist(X, Y, ls):
    Xs = X / ls
    Ys = Y / ls
    d = (
        np.sum(Xs**2, axis=1)[:, None]
        + np.sum(Ys**2, axis=1)[None, :]
        - 2.0 * (Xs @ Ys.T)
    )
    d = np.maximum(d, 0.0)
    if Y is X:
        np.fill_diagonal(d, 0.0)
    return d


def _ref_leaf(kernel, X, Y):
    m = Y.shape[0]
    if isinstance(kernel, ConstantKernel):
        return np.full((X.shape[0], m), kernel.constant)
    if isinstance(kernel, WhiteKernel):
        if Y is X:
            return kernel.noise_level * np.eye(m)
        return np.zeros((X.shape[0], m))
    if isinstance(kernel, RBF):
        return np.exp(-0.5 * _ref_sqdist(X, Y, kernel.length_scale))
    assert isinstance(kernel, Matern)
    r = np.sqrt(_ref_sqdist(X, Y, np.array([kernel.length_scale])))
    if kernel.nu == 0.5:
        return np.exp(-r)
    if kernel.nu == 1.5:
        s = math.sqrt(3.0) * r
        return (1.0 + s) * np.exp(-s)
    s = math.sqrt(5.0) * r
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def _reference(kernel, X, Y):
    """``kernel(X, Y)``; ``Y is X`` stands for the one-argument call."""
    if isinstance(kernel, Sum):
        return _reference(kernel.k1, X, Y) + _reference(kernel.k2, X, Y)
    if isinstance(kernel, Product):
        return _reference(kernel.k1, X, Y) * _reference(kernel.k2, X, Y)
    return _ref_leaf(kernel, X, Y)


def _reference_diag(kernel, X):
    if isinstance(kernel, Sum):
        return _reference_diag(kernel.k1, X) + _reference_diag(kernel.k2, X)
    if isinstance(kernel, Product):
        return _reference_diag(kernel.k1, X) * _reference_diag(kernel.k2, X)
    if isinstance(kernel, ConstantKernel):
        return np.full(X.shape[0], kernel.constant)
    if isinstance(kernel, WhiteKernel):
        return np.full(X.shape[0], kernel.noise_level)
    return np.ones(X.shape[0])


def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


KERNELS = {
    "default": default_kernel(),
    "ard": default_kernel(anisotropic_dims=4),
    "matern-0.5": default_kernel(matern_nu=0.5),
    "matern-1.5": default_kernel(matern_nu=1.5),
    "matern-2.5": default_kernel(matern_nu=2.5),
    "rbf-times-constant": RBF(0.8) * ConstantKernel(1.7),
    "white-plus-constant-rbf": WhiteKernel(0.05) + ConstantKernel(2.0) * RBF(0.7),
    "rbf-plus-rbf": RBF(0.3) + RBF(1.5),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_call_is_byte_identical_to_reference(name, seed):
    rng = np.random.default_rng(seed)
    kernel = KERNELS[name]
    kernel = kernel.with_theta(kernel.theta + rng.uniform(-1.0, 1.0, kernel.n_theta))
    X = rng.uniform(0.0, 1.0, (37, 4))
    X[5] = X[3]  # a repeat: zero distance through the cancellation clip
    Y = rng.uniform(0.0, 1.0, (23, 4))
    Y[0] = X[3]

    _assert_same_bytes(kernel(X, Y), _reference(kernel, X, Y))
    _assert_same_bytes(kernel(Y, X), _reference(kernel, Y, X))
    _assert_same_bytes(kernel(X), _reference(kernel, X, X))
    _assert_same_bytes(kernel.diag(X), _reference_diag(kernel, X))
