"""Parity pin: ``repro.gp.optimize.lbfgsb`` against scipy's public L-BFGS-B.

Every GP hyperparameter fit runs :func:`repro.gp.optimize.lbfgsb`, which
drives scipy's private compiled routine ``scipy.optimize._lbfgsb.setulb``
the way ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` does, without
``minimize``'s wrappers.  Each case here runs one objective under both
and requires the same result bit for bit: the same ``x``
(``np.array_equal``), the same ``f``, and the same sequence of evaluated
points.

A failure here means the installed scipy changed its L-BFGS-B routine or
the driver loop around it (the ``setulb`` signature, the task codes, the
work arrays, the initial evaluation or the stopping rules).  Make
``lbfgsb`` match the installed ``_minimize_lbfgsb`` again, or raise the
scipy floor in ``pyproject.toml``; a second code path keeps neither the
golden pins nor this tripwire honest.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

import repro.gp.iterative as iterative_mod
from repro.gp.gpr import GPRegressor
from repro.gp.iterative import IterativeGPRegressor
from repro.gp.kernels import RBF, ConstantKernel, WhiteKernel, default_kernel
from repro.gp.optimize import lbfgsb


def _data(n, d=2, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, d))
    y = np.sin(3.0 * X.sum(axis=1)) + noise * rng.standard_normal(n)
    return X, y - y.mean()


def _lml_objective(kernel, X, y, use_workspace=True):
    """The GP fit's objective, ``-LML`` and its gradient via ``_lml``."""
    gp = GPRegressor(kernel=kernel, n_restarts=0)
    ws = kernel.prepare(X) if use_workspace else None

    def objective(theta):
        lml, grad = gp._lml(theta, X, y, eval_gradient=True, ws=ws)
        return -lml, -grad

    return objective


def _recording(objective, points):
    def wrapped(theta):
        points.append(np.array(theta, copy=True))
        return objective(theta)

    return wrapped


def _run_both(objective, x0, bounds):
    ours, ref = [], []
    x, f = lbfgsb(_recording(objective, ours), x0, bounds)
    res = minimize(
        _recording(objective, ref), x0,
        method="L-BFGS-B", jac=True, bounds=bounds,
    )
    return (x, f, ours), (res.x, res.fun, ref)


def _assert_parity(ours, ref):
    x, f, points = ours
    x_ref, f_ref, points_ref = ref
    assert np.array_equal(x, x_ref), (x, x_ref)
    assert f == f_ref, (f, f_ref)
    assert len(points) == len(points_ref)
    for p, q in zip(points, points_ref):
        assert np.array_equal(p, q)


def _case(name):
    """(objective, x0, bounds) of one named parity case."""
    if name.startswith("default-n"):
        n = int(name[len("default-n"):])
        X, y = _data(n, seed=n)
        kernel = default_kernel()
        # n=2 also covers the direct (workspace-free) LML path.
        objective = _lml_objective(kernel, X, y, use_workspace=n > 2)
        return objective, kernel.theta, kernel.bounds
    if name == "ard":
        X, y = _data(40, d=5, seed=3)
        kernel = default_kernel(anisotropic_dims=5)
        assert kernel.n_theta == 7
        return _lml_objective(kernel, X, y), kernel.theta, kernel.bounds
    if name == "start-outside-bounds":
        X, y = _data(30, seed=4)
        kernel = default_kernel()
        b = kernel.bounds
        x0 = np.array([b[0, 1] + 2.0, b[1, 0] - 3.0, b[2, 1] + 0.5])
        return _lml_objective(kernel, X, y), x0, b
    if name == "optimum-on-bound":
        # Nearly noise-free targets against a noise level floored at
        # 0.05: the fitted noise sits on its lower bound.
        X, y = _data(30, seed=5)
        noise = WhiteKernel(1.0, bounds=(0.05, 10.0))
        kernel = ConstantKernel(1.0) * RBF(1.0) + noise
        return _lml_objective(kernel, X, y), kernel.theta, kernel.bounds
    if name == "indefinite-points":
        # Points where every jitter rung fails make _lml return
        # (-inf, zeros): here every amplitude above e^1, so the first
        # steps of the search land on infinite objective values.
        X, y = _data(20, seed=6)
        kernel = default_kernel()
        inner = _lml_objective(kernel, X, y)

        def objective(theta):
            if theta[0] > 1.0:
                return np.inf, np.zeros_like(theta)
            return inner(theta)

        return objective, np.array([0.9, 0.0, -4.0]), kernel.bounds
    if name == "all-fixed":
        # minimize returns at once when every bound is tight; the routine
        # converges on its first projected gradient, at the same point.
        X, y = _data(10, seed=7)
        kernel = (
            ConstantKernel(2.0, bounds=(2.0, 2.0)) * RBF(0.5, bounds=(0.5, 0.5))
            + WhiteKernel(0.1, bounds=(0.1, 0.1))
        )
        return _lml_objective(kernel, X, y), np.zeros(3), kernel.bounds
    raise KeyError(name)


CASES = [
    "default-n2",
    "default-n20",
    "default-n120",
    "ard",
    "start-outside-bounds",
    "optimum-on-bound",
    "indefinite-points",
    "all-fixed",
]


@pytest.mark.parametrize("name", CASES)
def test_lbfgsb_matches_scipy_minimize(name):
    objective, x0, bounds = _case(name)
    ours, ref = _run_both(objective, x0, bounds)
    _assert_parity(ours, ref)
    x, f, points = ours
    assert len(points) >= 1
    if name == "start-outside-bounds":
        assert np.array_equal(points[0], np.clip(x0, bounds[:, 0], bounds[:, 1]))
    if name == "optimum-on-bound":
        assert x[2] == bounds[2, 0]
    if name == "indefinite-points":
        assert any(p[0] > 1.0 for p in points)
        assert np.isfinite(f)


def test_iterative_stochastic_fit_matches_scipy_minimize(monkeypatch):
    """One SLQ/Hutchinson fit, with one restart, under both optimizers."""
    X, y = _data(60, seed=8)

    def fit(optimizer):
        points = []

        def recorded(objective, x0, bounds):
            return optimizer(_recording(objective, points), x0, bounds)

        monkeypatch.setattr(iterative_mod, "lbfgsb", recorded)
        gp = IterativeGPRegressor(
            n_restarts=1,
            rng=np.random.default_rng(0),
            exact_lml_max_n=10,
            precond_rank=16,
            n_probes=4,
            lanczos_steps=8,
        )
        gp.fit(X, y)
        return gp.kernel_.theta, points

    def scipy_minimize(objective, x0, bounds):
        res = minimize(objective, x0, method="L-BFGS-B", jac=True, bounds=bounds)
        return res.x, res.fun

    theta, points = fit(lbfgsb)
    theta_ref, points_ref = fit(scipy_minimize)
    assert np.array_equal(theta, theta_ref)
    assert len(points) == len(points_ref) > 0
    for p, q in zip(points, points_ref):
        assert np.array_equal(p, q)
