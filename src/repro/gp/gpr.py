"""Gaussian Process regressor: exact inference with LML-fitted kernels.

Implements Eqs. (2)–(9) of the paper via Algorithm 2.1 of Rasmussen &
Williams: a Cholesky factorization of the training covariance gives the
predictive mean and variance, and the log marginal likelihood (with its
analytic gradient in log-hyperparameter space) is maximized by L-BFGS-B
with optional random restarts.

The AL loop refits the model after every acquired sample; following the
paper ("use old model's parameters as a starting point in hyperparameter
fitting"), :meth:`GPRegressor.fit` warm-starts from the current kernel.

When hyperparameter refits are thinned out (``hyper_refit_interval > 1``
in the AL loop), :meth:`GPRegressor.refactor` detects that the new
training set is the old one plus appended rows and *extends* the stored
Cholesky factor in O(n^2) (a rank-``m`` block update) instead of
refactorizing from scratch in O(n^3).  The fast path applies only when
the hyperparameters are frozen and the stored factorization needed no
jitter; otherwise it falls back to the exact full factorization.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from repro import obs
from repro.gp.kernels import Kernel, KernelWorkspace, default_kernel
from repro.registry import register_surrogate

#: Jitter ladder tried when the covariance is numerically indefinite.
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

#: Factorization failures we recover from; anything else is a real bug.
_CHOL_ERRORS = (np.linalg.LinAlgError, scipy.linalg.LinAlgError)


@register_surrogate("dense")
class GPRegressor:
    """Exact GP regression with marginal-likelihood hyperparameter fitting.

    Parameters
    ----------
    kernel : Kernel, optional
        Prior covariance; defaults to :func:`repro.gp.kernels.default_kernel`.
    normalize_y : bool
        Center the targets before fitting (restored on prediction).  The
        paper's log10 responses have non-zero means, so this is on by
        default.
    n_restarts : int
        Extra random restarts of the LML optimization on the *first* fit.
        Subsequent fits warm-start from the incumbent hyperparameters and
        use a single optimization run unless ``restart_every_fit`` is set.
    restart_every_fit : bool
        Re-randomize on every fit (slower, used in validation tests).
    rng : numpy.random.Generator, optional
        Source for restart draws; required when ``n_restarts > 0``.
    incremental : bool
        Allow :meth:`refactor` to extend the stored Cholesky factor in
        O(n^2) when the new training set appends rows to the old one.
        Disable to force from-scratch factorization (equivalence tests).
    use_workspace : bool
        Evaluate the LML objective through a :class:`KernelWorkspace`
        (cached theta-independent kernel structure, fused symmetry-aware
        gradient traces via LAPACK ``dpotri`` instead of a dense
        ``cho_solve``-built inverse and an ``(n, n, k)`` gradient stack).
        The workspace is kept across fits and *extended* when the AL loop
        appends acquisitions.  Exact to floating-point roundoff; disable
        to force the direct reference path (parity tests).
    max_memory_MB : float, optional
        Budget for the O(n²) factorization/workspace capacity buffers
        (:func:`repro.machine.memory_model.gp_capacity_MB`).  When a fit
        or refactor would exceed it, :class:`MemoryError` is raised *before*
        allocating, naming the estimate — instead of silently growing the
        resident set.  ``None`` (default) disables the guard.

    Attributes
    ----------
    kernel_ : Kernel
        Fitted kernel (after :meth:`fit`).
    X_train_, y_train_ : ndarray
        Stored training data.
    last_factor_mode_ : str
        How the current ``(L, alpha)`` pair was produced: ``"fit"``,
        ``"full"`` (from-scratch :meth:`refactor`) or ``"rank1"``
        (incremental extension).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        normalize_y: bool = True,
        n_restarts: int = 2,
        restart_every_fit: bool = False,
        rng: np.random.Generator | None = None,
        incremental: bool = True,
        use_workspace: bool = True,
        max_memory_MB: float | None = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else default_kernel()
        self.normalize_y = normalize_y
        self.n_restarts = int(n_restarts)
        self.restart_every_fit = restart_every_fit
        self.rng = rng
        self.incremental = bool(incremental)
        self.use_workspace = bool(use_workspace)
        if max_memory_MB is not None and max_memory_MB <= 0:
            raise ValueError("max_memory_MB must be positive (or None)")
        self.max_memory_MB = max_memory_MB
        self._ws: KernelWorkspace | None = None
        #: Flat capacity buffers viewed as contiguous (n, n) scratch for the
        #: fused gradient and the in-place LAPACK factorization; sized with
        #: headroom so the AL loop's one-sample growth reshapes instead of
        #: reallocating per fit.
        self._grad_flat: np.ndarray | None = None
        self._chol_flat: np.ndarray | None = None
        #: Best (lml, theta, L, alpha, jitter) seen during the current
        #: fit's LML evaluations; lets :meth:`_factorize` reuse the
        #: optimizer's own factorization instead of rebuilding it.
        self._eval_stash: tuple | None = None
        self._stash_armed = False
        #: Per-model workspace-acquisition counts (the global obs counters
        #: aggregate across models; these answer "how did *this* model's
        #: fits get their workspace" — the Surrogate protocol surface).
        self._ws_counters = {"ws_hit": 0, "ws_extend": 0, "ws_rebuild": 0}
        if self.n_restarts > 0 and rng is None:
            raise ValueError("n_restarts > 0 requires an rng")
        self.kernel_: Kernel | None = None
        self.X_train_: np.ndarray | None = None
        self.y_train_: np.ndarray | None = None
        self._y_mean = 0.0
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._fit_count = 0
        #: Jitter the stored factorization needed (0.0 = exact kernel matrix).
        self._factor_jitter = 0.0
        #: Capacity buffer holding ``_L`` in its leading block, so repeated
        #: appends extend in place instead of copying the whole factor.
        self._L_buf: np.ndarray | None = None
        self.last_factor_mode_ = ""

    # ----------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Live state only: no capacity headroom, no LML scratch.

        ``_L`` pickles as the row-major lower triangle of its live
        ``(n, n)`` block, ``n(n+1)/2`` values: every path that builds it
        (``dpotrf`` with ``clean=1``, scipy's ``cholesky``, the rank-1
        extension's zeroed buffer) leaves zeros above the diagonal.  The
        capacity buffer behind it, the flat LML buffers and the fit-time
        stash are rebuilt on demand, so leaving them out changes no
        value.  The kernel workspace rides along (its nodes trim
        themselves), so a restored model *extends* it on the next fit,
        exactly as the pickled one would have.
        """
        state = self.__dict__.copy()
        state.update(_L_buf=None, _chol_flat=None, _grad_flat=None, _eval_stash=None)
        L = self._L
        if L is not None:
            state["_L"] = L[np.tri(L.shape[0], dtype=bool)]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        packed = self._L
        if packed is not None and packed.ndim == 1:
            # n(n+1)/2 values back into a square factor, bit for bit; a
            # square one (pickled before packing) is taken as it is.
            n = (math.isqrt(8 * packed.size + 1) - 1) // 2
            L = np.zeros((n, n))
            L[np.tri(n, dtype=bool)] = packed
            self._L = L
        self._L_buf = self._L  # capacity == size until the next extension

    # ------------------------------------------------------------------ LML

    def log_marginal_likelihood(
        self, theta: np.ndarray, eval_gradient: bool = False
    ) -> float | tuple[float, np.ndarray]:
        """Eq. (8) (and its theta-gradient) at the stored training data."""
        if self.X_train_ is None:
            raise RuntimeError("call fit() first (or use _lml_for_data)")
        ws = self._ws
        if not self.use_workspace or ws is None or ws.n != self.X_train_.shape[0]:
            ws = None
        return self._lml(
            theta, self.X_train_, self._centered_y(), eval_gradient, ws=ws
        )

    def _centered_y(self) -> np.ndarray:
        assert self.y_train_ is not None
        return self.y_train_ - self._y_mean

    def _lml(
        self,
        theta: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        eval_gradient: bool,
        ws: KernelWorkspace | None = None,
    ):
        obs.incr("lml_eval")
        if eval_gradient:
            obs.incr("lml_grad")
        with obs.span("lml_eval", cat="gp", n=y.shape[0], grad=bool(eval_gradient)):
            if ws is not None and ws.n == X.shape[0]:
                return self._lml_ws(theta, ws, y, eval_gradient)
            kernel = self.kernel.with_theta(theta)
            if eval_gradient:
                K, K_grad = kernel(X, eval_gradient=True)
            else:
                K = kernel(X)
            L = self._chol(K)
            if L is None:
                if eval_gradient:
                    return -np.inf, np.zeros_like(theta)
                return -np.inf
            alpha = cho_solve((L, True), y, check_finite=False)
            n = y.shape[0]
            lml = (
                -0.5 * float(y @ alpha)
                - float(np.log(np.diag(L)).sum())
                - 0.5 * n * np.log(2.0 * np.pi)
            )
            if not eval_gradient:
                return lml
            # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
            Kinv = cho_solve((L, True), np.eye(n), check_finite=False)
            inner = np.outer(alpha, alpha) - Kinv
            grad = 0.5 * np.einsum("ij,ijk->k", inner, K_grad)
            return lml, grad

    def _lml_ws(
        self,
        theta: np.ndarray,
        ws: KernelWorkspace,
        y: np.ndarray,
        eval_gradient: bool,
    ):
        """Workspace fast path for :meth:`_lml` — same math, fused.

        The kernel matrix comes out of the workspace's preallocated
        buffers (no pairwise-distance rebuild), ``K^{-1}`` comes from
        LAPACK ``dpotri`` on the already-computed Cholesky factor (n³/3
        flops on one triangle instead of the ~2n³ dense ``cho_solve``
        against the identity), and the gradient trace is evaluated
        per-component by :meth:`KernelWorkspace.grad_dot` without the
        ``(n, n, n_theta)`` stack.
        """
        n = y.shape[0]
        # Factorize onto a persistent buffer with raw LAPACK: the kernel
        # tree writes K straight into the buffer (no copy for the common
        # structures) and dpotrf on the transposed (Fortran-contiguous)
        # view overwrites it in place -- no scipy wrapper allocations.  Lw
        # ends up holding the lower factor, zeros above.  Jitter retries
        # re-evaluate the workspace value (rare: the ladder's first rung
        # succeeds whenever the kernel carries a noise term).
        flat = self._chol_flat
        if flat is None or flat.size < n * n:
            cap = max(int(1.5 * n) + 8, 64)
            flat = np.empty(cap * cap)
            self._chol_flat = flat
        Lw = flat[: n * n].reshape(n, n)
        L = None
        for jitter in _JITTERS:
            ws.kernel_matrix(theta, out=Lw)
            if jitter:
                np.einsum("ii->i", Lw)[...] += jitter
            _, info = dpotrf(Lw.T, lower=0, clean=1, overwrite_a=1)
            if info == 0:
                L = Lw
                break
            if info < 0:  # pragma: no cover - malformed input, not indefinite
                raise ValueError(f"dpotrf: illegal argument {-info}")
        if L is None:
            if eval_gradient:
                return -np.inf, np.zeros_like(theta)
            return -np.inf
        alpha, info = dpotrs(L.T, y, lower=0)
        if info != 0:  # pragma: no cover - factor is valid by construction
            raise ValueError(f"dpotrs: illegal argument {-info}")
        lml = (
            -0.5 * float(y @ alpha)
            - float(np.log(np.einsum("ii->i", L)).sum())
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        if self._stash_armed and (
            self._eval_stash is None or lml > self._eval_stash[0]
        ):
            # Keep the factorization of the best theta seen so far; if the
            # optimizer settles on it, _factorize() reuses it for free.
            # Copied before dpotri destroys L below.
            self._eval_stash = (lml, theta.copy(), L.copy(), alpha, jitter)
        if not eval_gradient:
            return lml
        flat = self._grad_flat
        if flat is None or flat.size < n * n:
            cap = max(int(1.5 * n) + 8, 64)
            flat = np.empty(cap * cap)
            self._grad_flat = flat
        inner = flat[: n * n].reshape(n, n)
        # In-place inverse from the factor: ``dpotri`` on the transposed
        # view overwrites L's memory (n^3/2 flops on one triangle, no
        # wrapper copy) instead of the ~2n^3 dense ``cho_solve`` against
        # the identity.  ``tri`` ends up holding the lower triangle of
        # K^{-1} with zeros above, C-contiguous.
        _, info = dpotri(L.T, lower=0, overwrite_c=1)
        tri = L
        if info != 0:  # pragma: no cover - dpotri cannot fail on a chol factor
            L2 = self._chol(ws.kernel_matrix(theta))
            Kinv = cho_solve((L2, True), np.eye(n), check_finite=False)
            np.multiply(alpha[:, None], alpha[None, :], out=inner)
            inner -= Kinv
        else:
            # grad_dot only consumes the symmetric part and the diagonal of
            # ``inner`` (symmetric-weight sums, total sums, traces), so pass
            # A = alpha alpha^T - 2*tri + diag(tri) whose symmetrization is
            # alpha alpha^T - K^{-1} -- no mirror pass, no second buffer.
            # BLAS dger folds the rank-1 alpha alpha^T into the scaled
            # triangle in one read-modify-write pass (inner.T is the
            # Fortran-ordered view dger updates in place; x == y makes the
            # transpose immaterial).
            np.multiply(tri, -2.0, out=inner)
            inner = dger(1.0, alpha, alpha, a=inner.T, overwrite_a=1).T
            np.einsum("ii->i", inner)[...] += np.einsum("ii->i", tri)
        grad = 0.5 * ws.grad_dot(inner, theta)
        return lml, grad

    @staticmethod
    def _chol_jitter(K: np.ndarray) -> tuple[np.ndarray, float] | None:
        """Cholesky with a jitter ladder; None if hopeless.

        Returns the factor *and* the jitter it needed — the incremental
        update path is only exact when the stored factorization used no
        jitter.  Only genuine indefiniteness (``LinAlgError``) climbs the
        ladder; shape errors or NaNs from a broken theta propagate.
        """
        n = K.shape[0]
        for jitter in _JITTERS:
            Kj = K if jitter == 0.0 else K + jitter * np.eye(n)
            try:
                L = cholesky(Kj, lower=True, check_finite=False)
                return L, jitter
            except _CHOL_ERRORS:
                continue
        return None

    @staticmethod
    def _chol(K: np.ndarray) -> np.ndarray | None:
        """Cholesky factor alone (see :meth:`_chol_jitter`)."""
        out = GPRegressor._chol_jitter(K)
        return None if out is None else out[0]

    # ------------------------------------------------------------------ fit

    def fit(self, X, y) -> "GPRegressor":
        """Fit hyperparameters by LML maximization and precompute factors."""
        with obs.timed("fit", cat="gp", n=len(X)):
            return self._fit(X, y)

    def _fit(self, X, y) -> "GPRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        if X.shape[0] < 1:
            raise ValueError("need at least one training sample")
        self._check_memory_budget(X.shape[0])
        self.X_train_ = X
        self.y_train_ = y
        self._y_mean = float(y.mean()) if self.normalize_y else 0.0
        yc = self._centered_y()

        start = self.kernel_ if self.kernel_ is not None else self.kernel
        bounds = start.bounds

        if start.n_theta == 0 or X.shape[0] == 1:
            # Nothing to optimize (or degenerate data): keep the prior.
            self.kernel_ = start
            self._eval_stash = None
        else:
            ws = self._ensure_workspace(start, X)
            self._eval_stash = None
            self._stash_armed = ws is not None
            best_theta, best_lml = self._optimize(start.theta, X, yc, bounds, ws)
            restarts = (
                self.n_restarts
                if (self._fit_count == 0 or self.restart_every_fit)
                else 0
            )
            for _ in range(restarts):
                assert self.rng is not None
                theta0 = self.rng.uniform(bounds[:, 0], bounds[:, 1])
                theta, lml = self._optimize(theta0, X, yc, bounds, ws)
                if lml > best_lml:
                    best_theta, best_lml = theta, lml
            self._stash_armed = False
            self.kernel_ = start.with_theta(best_theta)
            # Validate the stash against the optimizer's raw theta: the
            # kernel_ roundtrip through exp/log may perturb the last ulp,
            # but the stashed factorization is for exactly this optimum.
            if self._eval_stash is not None and not np.array_equal(
                self._eval_stash[1], best_theta
            ):
                self._eval_stash = None

        self._factorize(X, yc)
        self._eval_stash = None
        self.last_factor_mode_ = "fit"
        self._fit_count += 1
        return self

    def _check_memory_budget(self, n: int) -> None:
        """Refuse (with the estimate) rather than exceed ``max_memory_MB``.

        Raised *before* any allocation so a guarded model never has a
        chance to OOM the process; subclasses with a cheaper large-n mode
        (``IterativeGPRegressor``) override this to reroute instead.
        """
        if self.max_memory_MB is None:
            return
        from repro.machine.memory_model import gp_capacity_MB

        need = gp_capacity_MB(n)
        if need > self.max_memory_MB:
            raise MemoryError(
                f"dense GP factorization at n={n} needs ~{need:.0f} MB of "
                f"O(n^2) capacity buffers, over the configured "
                f"max_memory_MB={self.max_memory_MB:g}. Raise the budget, "
                f"shrink the training set, or switch to "
                f"repro.gp.iterative.IterativeGPRegressor, which streams "
                f"matvecs above its dense threshold."
            )

    def _stashed_factors(self, n: int):
        """The optimizer's own ``(L, alpha, jitter)`` for ``kernel_``, or None.

        Valid only when the best LML evaluation of the fit that just ran
        used exactly the theta the optimizer settled on (the common case:
        L-BFGS-B returns its best evaluated point) and matches the current
        training-set size; otherwise :meth:`_factorize` rebuilds directly.
        """
        stash = self._eval_stash
        if stash is None or self.kernel_ is None:
            return None
        _, _, L, alpha, jitter = stash
        if L.shape[0] != n:
            return None
        return L, alpha, jitter

    def _factorize(self, X: np.ndarray, yc: np.ndarray) -> None:
        """From-scratch factorization of the covariance at ``kernel_``."""
        assert self.kernel_ is not None
        stashed = self._stashed_factors(X.shape[0])
        if stashed is not None:
            self._L, self._alpha, self._factor_jitter = stashed
            self._L_buf = self._L
            self._eval_stash = None
            return
        K = self.kernel_(X)
        out = self._chol_jitter(K)
        if out is None:
            raise np.linalg.LinAlgError("covariance not positive definite")
        self._L, self._factor_jitter = out
        self._L_buf = self._L  # capacity == size until the first extension
        self._alpha = cho_solve((self._L, True), yc, check_finite=False)

    def refactor(self, X, y) -> "GPRegressor":
        """Replace the training data *without* re-optimizing hyperparameters.

        Used by the AL loop when hyperparameter refits are thinned out
        (``hyper_refit_interval > 1``).  Requires a prior :meth:`fit`.

        When ``incremental`` is enabled and the new training set is the old
        one with rows appended, the stored Cholesky factor is *extended* by
        a rank-``m`` block update in O(n^2) instead of being rebuilt in
        O(n^3).  The fast path is skipped — falling back to the exact full
        factorization — whenever the stored factor needed jitter, the
        prefix rows changed, or the Schur complement of the appended block
        is not positive definite.
        """
        if self.kernel_ is None:
            raise RuntimeError("refactor() requires a prior fit()")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        self._check_memory_budget(X.shape[0])
        if self._can_extend(X):
            with obs.timed("rank1_update", cat="gp", n=len(X)):
                if self._extend_factorization(X, y):
                    return self
        with obs.timed("refactor", cat="gp", n=len(X)):
            self.X_train_ = X
            self.y_train_ = y
            self._y_mean = float(y.mean()) if self.normalize_y else 0.0
            self._factorize(X, self._centered_y())
            self.last_factor_mode_ = "full"
            self._fit_count += 1
        return self

    def _can_extend(self, X: np.ndarray) -> bool:
        """Fast-path guard: appended-rows refactor with an exact factor."""
        old = self.X_train_
        return (
            self.incremental
            and self._L is not None
            and old is not None
            and self._factor_jitter == 0.0
            and X.shape[0] > old.shape[0]
            and X.shape[1] == old.shape[1]
            and np.array_equal(X[: old.shape[0]], old)
        )

    def _extend_factorization(self, X: np.ndarray, y: np.ndarray) -> bool:
        """Extend ``(L, alpha)`` by the appended rows of ``X`` in O(n^2).

        With ``K_new = [[K11, K12], [K12^T, K22]]`` and ``K11 = L L^T``
        already factorized, the extended factor is
        ``[[L, 0], [B^T, L22]]`` where ``B = L^{-1} K12`` and
        ``L22 = chol(K22 - B^T B)``.  Returns False (leaving state
        untouched) if the Schur complement is not positive definite, in
        which case the caller re-factorizes from scratch.
        """
        assert self.kernel_ is not None and self._L is not None
        assert self.X_train_ is not None
        n_old = self.X_train_.shape[0]
        X_new = X[n_old:]
        K12 = self.kernel_(self.X_train_, X_new)  # cross-cov, noise-free
        K22 = self.kernel_(X_new)  # includes the noise diagonal
        B = solve_triangular(self._L, K12, lower=True, check_finite=False)
        S = K22 - B.T @ B
        try:
            L22 = cholesky(S, lower=True, check_finite=False)
        except _CHOL_ERRORS:
            return False
        n_new = X.shape[0]
        buf = self._L_buf
        if (
            buf is None
            or buf.shape[0] < n_new
            or not (self._L is buf or self._L.base is buf)
        ):
            # (Re)allocate with headroom: one O(n^2) copy buys capacity for
            # ~n/2 in-place appends, keeping the amortized memory traffic
            # of the AL loop's one-sample acquisitions at O(n) each.
            cap = max(int(1.5 * n_new) + 8, 64)
            buf = np.zeros((cap, cap))
            buf[:n_old, :n_old] = self._L
            self._L_buf = buf
        buf[n_old:n_new, :n_old] = B.T
        buf[n_old:n_new, n_old:n_new] = L22
        L_ext = buf[:n_new, :n_new]
        self.X_train_ = X
        self.y_train_ = y
        self._y_mean = float(y.mean()) if self.normalize_y else 0.0
        self._L = L_ext
        # alpha depends on *all* centered targets (the mean shifted), but
        # with L in hand it is a pair of triangular solves: O(n^2).
        self._alpha = cho_solve((L_ext, True), self._centered_y(), check_finite=False)
        self.last_factor_mode_ = "rank1"
        self._fit_count += 1
        return True

    def _ensure_workspace(self, kernel: Kernel, X: np.ndarray):
        """The (possibly extended) workspace for ``X``, or None.

        Reuses the stored workspace when its kernel structure still
        matches — extending it in place when ``X`` appends rows to the
        previous training set, the AL loop's steady state.  Unsupported
        kernel structures disable the fast path for this model.
        """
        if not self.use_workspace:
            return None
        if self._ws is not None and self._ws.matches(kernel):
            mode = f"ws_{self._ws.update(X)}"
            obs.incr(mode)
            self._ws_counters[mode] += 1
            return self._ws
        try:
            self._ws = kernel.prepare(X)
        except NotImplementedError:
            self.use_workspace = False
            return None
        obs.incr("ws_rebuild")
        self._ws_counters["ws_rebuild"] += 1
        return self._ws

    def _optimize(self, theta0, X, yc, bounds, ws=None) -> tuple[np.ndarray, float]:
        def objective(theta):
            lml, grad = self._lml(theta, X, yc, eval_gradient=True, ws=ws)
            return -lml, -grad

        theta0 = np.clip(theta0, bounds[:, 0], bounds[:, 1])
        res = minimize(
            objective,
            theta0,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
        )
        return res.x, -float(res.fun)

    # ---------------------------------------------------------------- predict

    def predict(self, X, return_std: bool = False):
        """Predictive mean (and std) of Eq. (2)–(3) at query points ``X``.

        Before :meth:`fit`, returns the prior (zero mean, prior std).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if self.X_train_ is None or self._L is None:
            prior = self.kernel_ if self.kernel_ is not None else self.kernel
            mean = np.zeros(X.shape[0])
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(prior.diag(X), 0.0))
        kernel = self.kernel_
        assert kernel is not None and self._alpha is not None
        with obs.timed("predict", cat="gp"):
            Ks = kernel(X, self.X_train_)  # (m, n), no noise (cross-covariance)
            mean = Ks @ self._alpha + self._y_mean
            if not return_std:
                return mean
            V = solve_triangular(self._L, Ks.T, lower=True, check_finite=False)
            var = kernel.diag(X) - np.einsum("ij,ij->j", V, V)
            return mean, np.sqrt(np.maximum(var, 0.0))

    def predict_from_cross(
        self, Ks: np.ndarray, prior_diag: np.ndarray, return_std: bool = False
    ):
        """Predict from a *precomputed* cross-covariance against the train set.

        ``Ks`` must equal ``kernel_(X_query, X_train_)`` (shape ``(m, n)``)
        and ``prior_diag`` must equal ``kernel_.diag(X_query)``.  The AL
        loop maintains both incrementally across iterations
        (:class:`repro.core.loop.CandidateCovarianceCache`) so each
        iteration skips the O(m·n) kernel rebuild.
        """
        if self._L is None or self._alpha is None:
            raise RuntimeError("predict_from_cross() requires a factorized model")
        Ks = np.asarray(Ks, dtype=np.float64)
        if Ks.ndim != 2 or Ks.shape[1] != self._alpha.shape[0]:
            raise ValueError("Ks must be (m, n_train)")
        with obs.timed("predict", cat="gp"):
            mean = Ks @ self._alpha + self._y_mean
            if not return_std:
                return mean
            V = solve_triangular(self._L, Ks.T, lower=True, check_finite=False)
            var = np.asarray(prior_diag, dtype=np.float64) - np.einsum(
                "ij,ij->j", V, V
            )
            return mean, np.sqrt(np.maximum(var, 0.0))

    # ------------------------------------------------------------- utilities

    @property
    def is_fitted(self) -> bool:
        return self._L is not None

    @property
    def supports_cross(self) -> bool:
        """Exact-GP surface: :meth:`predict_from_cross` is available."""
        return True

    def workspace_counters(self) -> dict[str, int]:
        """How this model's fits obtained their kernel workspace.

        ``{"ws_hit", "ws_extend", "ws_rebuild"}`` counts (the
        :data:`repro.obs.METRICS` workspace counters); all zero when ``use_workspace`` is
        off or no fit has run.  Part of the
        :class:`repro.gp.surrogate.Surrogate` protocol.
        """
        return dict(self._ws_counters)

    def sample_y(self, X, rng: np.random.Generator, n_samples: int = 1) -> np.ndarray:
        """Draw functions from the posterior (or prior) at ``X``.

        Returns an array of shape (n_samples, len(X)).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        kernel = self.kernel_ if self.kernel_ is not None else self.kernel
        if self.X_train_ is None or self._L is None:
            mean = np.zeros(X.shape[0])
            cov = kernel(X)
        else:
            Ks = kernel(X, self.X_train_)
            mean = Ks @ self._alpha + self._y_mean
            V = solve_triangular(self._L, Ks.T, lower=True, check_finite=False)
            cov = kernel(X) - V.T @ V
        L = self._chol(cov)
        if L is None:
            raise np.linalg.LinAlgError("posterior covariance not PSD")
        z = rng.standard_normal((n_samples, X.shape[0]))
        return mean[None, :] + z @ L.T
