"""Pickled GP models hold live state only, and continue exactly.

Campaign checkpoints pickle the learner's two :class:`GPRegressor` models
after every committed slice.  The pickle drops what the model rebuilds on
demand — the Cholesky capacity buffer behind ``_L``, the zeros above
``_L``'s diagonal, the flat LML scratch, the kernel workspace's headroom
and evaluation buffers — and keeps everything a value depends on.  These tests pin both halves: the
round trip is bit-for-bit, and the restored model takes the same fast
paths (rank-1 extension, workspace extension) as the live one.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.gp.gpr import GPRegressor
from repro.gp.kernels import default_kernel

KERNELS = {
    "rbf": lambda: default_kernel(),
    "ard": lambda: default_kernel(anisotropic_dims=3),
    "matern": lambda: default_kernel(matern_nu=2.5),
}


def _data(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d))
    y = np.sin(X @ np.linspace(1.0, 3.0, d)) + 0.05 * rng.standard_normal(n)
    return X, y


def _grown(kernel_name: str):
    """A model whose factor and workspace both live in capacity buffers."""
    X, y = _data(60)
    gp = GPRegressor(kernel=KERNELS[kernel_name](), rng=np.random.default_rng(1))
    gp.fit(X[:30], y[:30])
    gp.fit(X[:36], y[:36])  # extends the workspace past its first shape
    for n in range(37, 46):
        gp.refactor(X[:n], y[:n])  # rank-1 appends into _L_buf headroom
    assert gp._L.base is gp._L_buf and gp._L_buf.shape[0] > 45
    return gp, X, y


def _structure(gp: GPRegressor) -> list[np.ndarray]:
    """Every cached distance structure of the model's workspace tree."""
    out = []

    def visit(node):
        out.extend(getattr(node, name) for name in node._structure)
        for child in (getattr(node, "a", None), getattr(node, "b", None)):
            if child is not None:
                visit(child)

    visit(gp._ws._root)
    return out


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
class TestCompactPickle:
    def test_round_trip_is_bit_for_bit(self, kernel_name):
        gp, _, _ = _grown(kernel_name)
        clone = pickle.loads(pickle.dumps(gp))
        np.testing.assert_array_equal(clone._L, gp._L)
        np.testing.assert_array_equal(clone._alpha, gp._alpha)
        np.testing.assert_array_equal(clone.kernel_.theta, gp.kernel_.theta)
        n = gp._ws.n
        live = _structure(gp)
        assert live
        for restored, original in zip(_structure(clone), live):
            np.testing.assert_array_equal(restored, original[..., :n, :n])

    def test_pickle_holds_live_state_only(self, kernel_name):
        gp, _, _ = _grown(kernel_name)
        buf = gp._L_buf
        clone = pickle.loads(pickle.dumps(gp))
        # No headroom and no scratch in the clone ...
        assert clone._L_buf is clone._L
        assert clone._chol_flat is None and clone._grad_flat is None
        n = gp._ws.n
        for arr in _structure(clone):
            assert arr.shape[-2:] == (n, n)
        assert not hasattr(clone._ws._root, "_eval_flat")
        # ... the factor ships its lower triangle only, and comes back
        # square, bit for bit, with zeros above the diagonal ...
        n_train = gp._L.shape[0]
        assert gp.__getstate__()["_L"].shape == (n_train * (n_train + 1) // 2,)
        assert clone._L.shape == (n_train, n_train)
        assert clone._L.tobytes() == np.ascontiguousarray(gp._L).tobytes()
        assert not np.triu(clone._L, 1).any()
        # ... and pickling left the live model's buffers in place.
        assert gp._L_buf is buf and gp._L.base is buf
        assert gp._chol_flat is not None

    def test_every_factor_path_leaves_zeros_above_the_diagonal(self, kernel_name):
        """The packed pickle keeps only the lower triangle, so each way a
        factor is built must leave nothing above it."""
        X, y = _data(40)
        fitted = GPRegressor(kernel=KERNELS[kernel_name](), rng=np.random.default_rng(1))
        fitted.fit(X[:30], y[:30])  # the optimizer's dpotrf factor
        direct = GPRegressor(
            kernel=KERNELS[kernel_name](),
            rng=np.random.default_rng(1),
            use_workspace=False,
        )
        direct.fit(X[:30], y[:30])  # scipy's cholesky
        extended = pickle.loads(pickle.dumps(fitted))
        extended.refactor(X[:33], y[:33])  # the rank-1 extension's buffer
        assert extended.last_factor_mode_ == "rank1"
        full = pickle.loads(pickle.dumps(fitted))
        full.refactor(X[5:35], y[5:35])  # a from-scratch refactor
        assert full.last_factor_mode_ == "full"
        for gp in (fitted, direct, extended, full):
            assert not np.triu(gp._L, 1).any()
            clone = pickle.loads(pickle.dumps(gp))
            assert clone._L.tobytes() == np.ascontiguousarray(gp._L).tobytes()

    def test_restored_model_takes_the_same_fast_paths(self, kernel_name):
        gp, X, y = _grown(kernel_name)
        clone = pickle.loads(pickle.dumps(gp))
        for model in (gp, clone):
            model.refactor(X[:46], y[:46])
            assert model.last_factor_mode_ == "rank1"
        np.testing.assert_array_equal(clone._L, gp._L)
        np.testing.assert_array_equal(clone._alpha, gp._alpha)
        before = clone.workspace_counters()
        for model in (gp, clone):
            model.fit(X[:50], y[:50])
        after = clone.workspace_counters()
        assert after["ws_extend"] == before["ws_extend"] + 1
        assert after["ws_rebuild"] == before["ws_rebuild"]
        assert after == gp.workspace_counters()
        np.testing.assert_array_equal(clone.kernel_.theta, gp.kernel_.theta)
        np.testing.assert_array_equal(clone._L, gp._L)
        np.testing.assert_array_equal(clone._alpha, gp._alpha)
