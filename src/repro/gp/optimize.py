"""Box-bounded L-BFGS-B for the GP hyperparameter fits.

Every GP fit maximizes its log marginal likelihood with L-BFGS-B, and an
AL campaign refits after every acquisition, so the optimizer runs
thousands of times per campaign at 10–15 evaluations each.  At these
sizes the work of one evaluation (a Cholesky factorization and the
kernel exponentials) is comparable to what ``scipy.optimize.minimize``
spends *around* it: option parsing, bound standardization, the
``ScalarFunction``/``MemoizeJac`` wrappers, an ``OptimizeResult`` per
iteration and an inverse-Hessian operator at exit.

:func:`lbfgsb` drives scipy's compiled L-BFGS-B routine
(``scipy.optimize._lbfgsb.setulb``) directly, call for call as
``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` does under
``minimize(method="L-BFGS-B", jac=True, bounds=...)`` with default
options, and keeps nothing else.  It therefore evaluates the objective
at the same points in the same order and returns the same ``(x, f)``,
bit for bit; ``tests/gp/test_lbfgsb.py`` pins that parity against the
public ``minimize``.  ``setulb`` is private to scipy, and its signature
(integer ``task`` arrays, ``ln_task``) dates from the C translation of
the Fortran routine in scipy 1.15, the floor in ``pyproject.toml``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import _lbfgsb

__all__ = ["lbfgsb"]

#: scipy's L-BFGS-B defaults: corrections kept, ``factr = ftol / eps``
#: with the default ``ftol``, projected-gradient tolerance, line-search
#: steps, and the iteration and evaluation caps.
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXITER = 15000
_MAXFUN = 15000

#: ``setulb`` task codes (``task[0]``): evaluate f and g at x, new iterate,
#: and the stop request written back to the routine.
_FG = 3
_NEW_X = 1
_STOP = 5
_STOP_MAXITER = 504
_STOP_MAXFUN = 502


def lbfgsb(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    bounds: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimize ``fun_and_grad`` over the box ``bounds``; return ``(x, f)``.

    ``fun_and_grad(x)`` returns the objective and its gradient at a copy
    of ``x``.  ``bounds`` is ``(n, 2)`` (``-inf``/``inf`` mark a free
    side), and ``x0`` is clipped into it first.  The result equals
    ``minimize(fun_and_grad, x0, method="L-BFGS-B", jac=True,
    bounds=bounds)``'s ``(res.x, res.fun)``: one evaluation at the clipped
    start, none when the routine asks again at the point it last
    evaluated, and the same stops (convergence, line-search failure,
    15000 iterations or evaluations).
    """
    lo = np.asarray(bounds[:, 0], dtype=np.float64)
    hi = np.asarray(bounds[:, 1], dtype=np.float64)
    if (lo > hi).any():
        raise ValueError(
            "LBFGSB - one of the lower bounds is greater than an upper bound."
        )
    x0 = np.clip(np.asarray(x0, dtype=np.float64).ravel(), lo, hi)
    n = x0.shape[0]
    has_lo = ~np.isinf(lo)
    has_hi = ~np.isinf(hi)
    # 0 free, 1 lower only, 2 both, 3 upper only (the routine's encoding).
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0))
    nbd = nbd.astype(np.int32)
    low_bnd = np.where(has_lo, lo, 0.0)
    upper_bnd = np.where(has_hi, hi, 0.0)

    # The start is evaluated before the loop (scipy's ScalarFunction
    # does so on construction); the routine's first request for f and g
    # at the unmoved start then reuses it.
    x_seen = x0.copy()
    f_seen, g_seen = fun_and_grad(x_seen.copy())
    nfev = 1

    m = _M
    x = np.array(x0, dtype=np.float64)
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros((n,), dtype=np.float64)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29, dtype=np.float64)
    n_iterations = 0
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(
            m, x, low_bnd, upper_bnd, nbd, f, g, _FACTR, _PGTOL, wa,
            iwa, task, lsave, isave, dsave, _MAXLS, ln_task,
        )
        if task[0] == _FG:
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fun_and_grad(x_seen.copy())
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == _NEW_X:
            n_iterations += 1
            if n_iterations >= _MAXITER:
                task[0], task[1] = _STOP, _STOP_MAXITER
            elif nfev > _MAXFUN:
                task[0], task[1] = _STOP, _STOP_MAXFUN
        else:
            break
    return x, f
