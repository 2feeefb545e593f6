"""Iterative (matrix-free capable) GP inference for the large-n regime.

The exact :class:`~repro.gp.gpr.GPRegressor` pays a dense O(n^3) Cholesky
per refit and an O(n^2) triangular solve per candidate batch — fine at the
paper's n ~ 600, fatal when a campaign grows a surrogate into the
n = 10^4–10^5 regime.  This module replaces the dense factorization with
Krylov machinery (the GPyTorch/"GPs-as-matvecs" playbook):

- **Preconditioned conjugate gradients** (:func:`pcg`) solve ``K x = b``
  to a requested tolerance using only covariance matvecs.
- **Pivoted Cholesky** (:func:`pivoted_cholesky`) builds an adaptive
  low-rank factor of the *noise-free* covariance; together with the noise
  diagonal (and the exact diagonal residual) it yields
  ``K_hat = L L^T + D``, applied in O(n r) through the Woodbury identity
  (:class:`_Woodbury`).  ``K_hat^{-1}`` serves double duty as the CG
  preconditioner and as the O(n r)-per-batch approximate predictive
  variance.
- **Stochastic Lanczos quadrature** (:func:`slq_logdet`) estimates
  ``log det K`` from Rademacher probes, and a **Hutchinson** trace
  estimator turns the LML gradient into
  ``0.5 * <alpha alpha^T - (K^{-1}Z) Z^T / p,  dK/dtheta_j>`` — evaluated
  by the PR-4 :meth:`KernelWorkspace.grad_dot` fused reduction, so no
  ``(n, n, k)`` gradient stack and no per-theta distance rebuild.

Two matvec backends, chosen by a memory threshold:

- **dense-structure** (default up to ``max_dense_bytes`` for the kernel
  matrix): K is materialized once per theta into a capacity buffer
  (written by the kernel workspace, extended by O(n m) cross blocks when
  the AL loop appends acquisitions) and matvecs are BLAS-2/3.
- **matrix-free** above the threshold: matvecs stream block rows
  ``kernel(X[b], X) @ V`` and K never needs O(n^2) storage; the noise
  diagonal is recovered analytically from the kernel tree.  In this mode
  hyperparameters are fit exactly on a subset of the data (the same
  subset-of-data scheme :class:`~repro.gp.sparse.SparseGPRegressor` uses)
  because the fused gradient needs the O(n^2) workspace structure.

Determinism contract (see DESIGN.md): probe vectors come from a fixed
``SeedSequence(probe_seed, spawn_key=(fit_count,))`` stream — never from
the learner's shared rng — and CG/Lanczos have fixed iteration caps, so
repeated runs (and checkpoint/resume through the campaign service) make
bit-identical selections.  Below ``exact_lml_max_n`` the hyperparameter
fit *is* the exact workspace-fused LML path inherited from
:class:`GPRegressor` (same optimizer trajectory, same rng consumption),
so small-n selections match the dense backend to solver tolerance.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import cho_solve, cholesky, eigh_tridiagonal, solve_triangular
from scipy.linalg.blas import dgemm

from repro import obs
from repro.gp.gpr import _CHOL_ERRORS, GPRegressor
from repro.gp.kernels import (
    Kernel,
    Product,
    Sum,
    WhiteKernel,
    _grow_square,
)
from repro.gp.optimize import lbfgsb
from repro.registry import register_surrogate

__all__ = [
    "IterativeGPRegressor",
    "KernelOperator",
    "PivotedCholesky",
    "pivoted_cholesky",
    "pcg",
    "slq_logdet",
    "noise_free_diag",
]

#: Jitter ladder for the (tiny, r x r) Woodbury capacitance factorization.
_WB_JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

#: Relative breakdown threshold for a Lanczos column (Krylov space exhausted).
_LANCZOS_BREAKDOWN = 1e-12


def noise_free_diag(kernel: Kernel, X: np.ndarray) -> np.ndarray:
    """``diag(kernel(X, X_copy))`` — the prior diagonal *without* noise.

    The kernel cross form excludes White components (they contribute only
    on the true diagonal), so the noise-free diagonal is the cross
    covariance of each point with itself.  Evaluated analytically by a
    kernel-tree walk instead of n one-point kernel calls.
    """
    if isinstance(kernel, WhiteKernel):
        return np.zeros(np.atleast_2d(X).shape[0])
    if isinstance(kernel, Sum):
        return noise_free_diag(kernel.k1, X) + noise_free_diag(kernel.k2, X)
    if isinstance(kernel, Product):
        return noise_free_diag(kernel.k1, X) * noise_free_diag(kernel.k2, X)
    return kernel.diag(X)


class KernelOperator:
    """Matvec access to the training covariance ``K = kernel(X)`` (noise incl.).

    With ``K`` given (a dense array or a strided capacity-buffer view),
    matvecs are one BLAS call.  Without it, matvecs stream block rows of
    the noise-free cross covariance and add the analytic noise diagonal —
    K itself is never materialized (the matrix-free path).
    """

    def __init__(
        self,
        kernel: Kernel,
        X: np.ndarray,
        K: np.ndarray | None = None,
        block_bytes: int = 1 << 26,
    ) -> None:
        self.kernel = kernel
        self.X = X
        self.n = X.shape[0]
        self._K = K
        self.noise_diag = np.maximum(
            kernel.diag(X) - noise_free_diag(kernel, X), 0.0
        )
        self.diag = kernel.diag(X)
        self.matvecs = 0
        self.matvec_seconds = 0.0
        self._block = max(1, int(block_bytes // max(self.n * 8, 1)))

    @property
    def dense(self) -> bool:
        return self._K is not None

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """``K @ V`` for ``V`` of shape (n,) or (n, p)."""
        t0 = time.perf_counter()
        V2 = V if V.ndim == 2 else V[:, None]
        if self._K is not None:
            out = self._K @ V2
        else:
            out = np.empty_like(V2)
            for lo in range(0, self.n, self._block):
                hi = min(lo + self._block, self.n)
                out[lo:hi] = self.kernel(self.X[lo:hi], self.X) @ V2
            out += self.noise_diag[:, None] * V2
        self.matvecs += V2.shape[1]
        self.matvec_seconds += time.perf_counter() - t0
        return out if V.ndim == 2 else out[:, 0]

    def row_noise_free(self, i: int) -> np.ndarray:
        """Row ``i`` of the noise-free covariance (pivoted-Cholesky feed)."""
        if self._K is not None:
            row = self._K[i].copy()
            row[i] -= self.noise_diag[i]
            return row
        return self.kernel(self.X[i : i + 1], self.X)[0]


class PivotedCholesky:
    """Adaptive low-rank factor ``K_f ~= L L^T`` of the noise-free covariance.

    Carries everything needed to *extend* the factor by appended training
    points without re-pivoting: the pivot coordinates, the pivot scales,
    and the pivot-row slice of ``L`` (the recurrence
    ``L[*, k] = (k_f(x*, x_{p_k}) - sum_{j<k} L[*, j] Lp[k, j]) / scale[k]``
    is O(r^2) per new point).  ``d_resid`` is the exact diagonal residual
    ``diag(K_f) - diag(L L^T)`` — adding it back keeps the preconditioner
    (and the Woodbury variance) exact on the diagonal at any rank.
    """

    def __init__(
        self,
        L: np.ndarray,
        d_resid: np.ndarray,
        pivots: np.ndarray,
        scale: np.ndarray,
        Lp: np.ndarray,
        X_piv: np.ndarray,
    ) -> None:
        self.L = L
        self.d_resid = d_resid
        self.pivots = pivots
        self.scale = scale
        self.Lp = Lp
        self.X_piv = X_piv

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def extend(
        self, kernel: Kernel, X_new: np.ndarray, diag_free_new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append rows for new training points; pivots stay fixed.

        Returns ``(L_new, d_new)`` — the appended factor rows and their
        diagonal residuals — after growing ``L`` / ``d_resid`` in place.
        """
        r = self.rank
        m = X_new.shape[0]
        L_new = np.zeros((m, r))
        if r:
            k_cross = kernel(X_new, self.X_piv)  # (m, r), noise-free
            for k in range(r):
                v = k_cross[:, k]
                if k:
                    v = v - L_new[:, :k] @ self.Lp[k, :k]
                L_new[:, k] = v / self.scale[k]
        d_new = np.maximum(
            diag_free_new - np.einsum("ij,ij->i", L_new, L_new), 0.0
        )
        self.L = np.vstack([self.L, L_new])
        self.d_resid = np.concatenate([self.d_resid, d_new])
        return L_new, d_new


def pivoted_cholesky(
    op: KernelOperator, max_rank: int, rtol: float = 1e-10
) -> PivotedCholesky:
    """Greedy pivoted Cholesky of the noise-free covariance behind ``op``.

    Stops at ``max_rank`` columns or when the residual trace has dropped
    below ``rtol`` times the initial trace, whichever comes first.  Each
    step costs one noise-free covariance row plus an O(n k) update.
    """
    n = op.n
    diag_free = op.diag - op.noise_diag
    d = np.maximum(diag_free, 0.0).copy()
    trace0 = float(d.sum())
    r_cap = min(max_rank, n)
    L = np.zeros((n, r_cap))
    pivots: list[int] = []
    scale: list[float] = []
    k = 0
    while k < r_cap:
        if trace0 <= 0.0 or float(d.sum()) <= rtol * trace0:
            break
        i = int(np.argmax(d))
        if d[i] <= 0.0:
            break
        row = op.row_noise_free(i)
        if k:
            row = row - L[:, :k] @ L[i, :k]
        piv = math.sqrt(d[i])
        col = row / piv
        col[i] = piv  # exact by construction; shields roundoff in row[i]
        L[:, k] = col
        d -= col * col
        d[i] = 0.0
        np.maximum(d, 0.0, out=d)
        pivots.append(i)
        scale.append(piv)
        k += 1
    piv_idx = np.asarray(pivots, dtype=np.int64)
    Lk = np.ascontiguousarray(L[:, :k])
    return PivotedCholesky(
        L=Lk,
        d_resid=d,
        pivots=piv_idx,
        scale=np.asarray(scale),
        Lp=Lk[piv_idx].copy() if k else np.zeros((0, 0)),
        X_piv=op.X[piv_idx].copy() if k else op.X[:0].copy(),
    )


class _Woodbury:
    """Apply ``K_hat^{-1}`` for ``K_hat = D + L L^T`` in O(n r) per vector.

    ``K_hat^{-1} = D^{-1} - D^{-1} L M^{-1} L^T D^{-1}`` with the r x r
    capacitance ``M = I + L^T D^{-1} L``.  Doubles as the CG
    preconditioner and the approximate predictive-variance solve; the
    capacitance update under appended rows is the rank-m correction
    ``M += L_new^T D_new^{-1} L_new`` (O(m r^2)), so the AL loop's
    one-acquisition growth never rebuilds the n x r products.
    """

    #: Floor keeping ``D^{-1}`` finite for (pathological) noise-free kernels.
    _D_FLOOR = 1e-30

    def __init__(self, L: np.ndarray, D: np.ndarray) -> None:
        self.L = L
        self.dinv = 1.0 / np.maximum(D, self._D_FLOOR)
        r = L.shape[1]
        if r:
            self.M = np.eye(r) + (L * self.dinv[:, None]).T @ L
        else:
            self.M = np.zeros((0, 0))
        self._refresh_chol()

    def _refresh_chol(self) -> None:
        if self.M.shape[0] == 0:
            self._C = np.zeros((0, 0))
            return
        r = self.M.shape[0]
        for jitter in _WB_JITTERS:
            try:
                self._C = cholesky(
                    self.M + jitter * np.eye(r), lower=True, check_finite=False
                )
                return
            except _CHOL_ERRORS:
                continue
        raise np.linalg.LinAlgError("Woodbury capacitance not positive definite")

    def extend(self, L_full: np.ndarray, L_new: np.ndarray, D_new: np.ndarray) -> None:
        """Account for appended rows: new full ``L`` plus their D entries."""
        self.L = L_full
        dinv_new = 1.0 / np.maximum(D_new, self._D_FLOOR)
        self.dinv = np.concatenate([self.dinv, dinv_new])
        if self.M.shape[0]:
            self.M = self.M + (L_new * dinv_new[:, None]).T @ L_new
        self._refresh_chol()

    def solve(self, V: np.ndarray) -> np.ndarray:
        """``K_hat^{-1} V`` for ``V`` of shape (n,) or (n, p)."""
        V2 = V if V.ndim == 2 else V[:, None]
        W = self.dinv[:, None] * V2
        if self.L.shape[1]:
            T = self.L.T @ W
            U = cho_solve((self._C, True), T, check_finite=False)
            W = W - self.dinv[:, None] * (self.L @ U)
        return W if V.ndim == 2 else W[:, 0]

    def quad(self, Ks: np.ndarray) -> np.ndarray:
        """``diag(Ks K_hat^{-1} Ks^T)`` for a (m, n) cross covariance."""
        A = Ks * self.dinv[None, :]
        q = np.einsum("ij,ij->i", A, Ks)
        if self.L.shape[1]:
            T = A @ self.L  # (m, r)
            W = solve_triangular(self._C, T.T, lower=True, check_finite=False)
            q = q - np.einsum("ji,ji->i", W, W)
        return q


def pcg(
    matmat,
    B: np.ndarray,
    precond=None,
    tol: float = 1e-10,
    maxiter: int = 400,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Batched preconditioned conjugate gradients for an SPD operator.

    Solves ``K X = B`` column-by-column (shared iteration), stopping when
    every column's residual satisfies ``||r|| <= tol * ||b||`` or at the
    ``maxiter`` cap — the cap is part of the determinism contract, never
    an exception.  Returns ``(X, iterations, worst_relative_residual)``.
    """
    B2 = B if B.ndim == 2 else B[:, None]
    X = np.zeros_like(B2) if x0 is None else np.array(
        x0 if x0.ndim == 2 else x0[:, None], dtype=np.float64
    )
    R = B2 - matmat(X) if x0 is not None else B2.copy()
    bnorm = np.linalg.norm(B2, axis=0)
    bsafe = np.where(bnorm > 0.0, bnorm, 1.0)
    Z = precond(R) if precond is not None else R.copy()
    P = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    rel = float(np.max(np.linalg.norm(R, axis=0) / bsafe))
    it = 0
    while it < maxiter and rel > tol:
        Q = matmat(P)
        pq = np.einsum("ij,ij->j", P, Q)
        step = np.where(pq > 0.0, rz / np.where(pq > 0.0, pq, 1.0), 0.0)
        X += step * P
        R -= step * Q
        it += 1
        rel = float(np.max(np.linalg.norm(R, axis=0) / bsafe))
        if rel <= tol:
            break
        Z = precond(R) if precond is not None else R
        rz_new = np.einsum("ij,ij->j", R, Z)
        beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        P = Z + beta * P
        rz = rz_new
    return (X if B.ndim == 2 else X[:, 0]), it, rel


def slq_logdet(
    matmat, Z: np.ndarray, steps: int
) -> tuple[float, int]:
    """Stochastic Lanczos quadrature estimate of ``log det K``.

    ``Z`` holds probe vectors (columns) with ``E[z z^T] = I`` (Rademacher).
    Each probe runs ``steps`` Lanczos iterations (with full
    reorthogonalization, batched across probes) and contributes the Gauss
    quadrature ``||z||^2 sum_i w_i log(lambda_i)`` of its tridiagonal;
    the estimate is the probe mean.  Returns ``(estimate, lanczos_steps)``
    where the step count sums over probes (the obs counter feed).
    """
    n, p = Z.shape
    m = min(steps, n)
    beta0 = np.linalg.norm(Z, axis=0)
    bsafe = np.where(beta0 > 0.0, beta0, 1.0)
    Q = np.zeros((m, n, p))
    alphas = np.zeros((m, p))
    betas = np.zeros((max(m - 1, 0), p))
    q = Z / bsafe
    active = beta0 > 0.0
    mj = np.zeros(p, dtype=np.int64)
    total_steps = 0
    for j in range(m):
        if not active.any():
            break
        Q[j] = q
        W = matmat(q)
        if j > 0:
            W -= betas[j - 1] * Q[j - 1]
        a = np.einsum("ij,ij->j", q, W)
        alphas[j] = a
        W -= a * q
        if j > 0:
            # Full reorthogonalization: cheap relative to the matvec and
            # keeps the Ritz values honest at the step counts we run.
            coef = np.einsum("knp,np->kp", Q[: j + 1], W)
            W -= np.einsum("knp,kp->np", Q[: j + 1], coef)
        mj[active] = j + 1
        total_steps += int(active.sum())
        if j < m - 1:
            b = np.linalg.norm(W, axis=0)
            alive = b > _LANCZOS_BREAKDOWN * bsafe
            active = active & alive
            betas[j] = np.where(active, b, 0.0)
            q = np.where(active, W / np.where(b > 0.0, b, 1.0), 0.0)
    est = np.zeros(p)
    for t in range(p):
        k = int(mj[t])
        if k == 0:
            continue
        if k == 1:
            lam = np.array([alphas[0, t]])
            w = np.array([1.0])
        else:
            lam, vec = eigh_tridiagonal(alphas[:k, t], betas[: k - 1, t])
            w = vec[0] ** 2
        lam = np.maximum(lam, 1e-300)
        est[t] = beta0[t] ** 2 * float(w @ np.log(lam))
    return float(est.mean()), total_steps


@register_surrogate("iterative")
class IterativeGPRegressor(GPRegressor):
    """Exact-interface GP regression via iterative solves (large-n fast path).

    A drop-in :class:`~repro.gp.surrogate.Surrogate` replacing the dense
    Cholesky with PCG solves for ``alpha``, a pivoted-Cholesky/Woodbury
    factor for the predictive variance and the CG preconditioner, and —
    above ``exact_lml_max_n`` training points — stochastic Lanczos/
    Hutchinson estimates for the LML value and gradient.  Below that
    threshold the hyperparameter fit is the *exact* inherited workspace
    path (identical optimizer trajectory and rng consumption to
    :class:`GPRegressor` — the small-n selection-parity contract); only
    the factorization and predictions go through the iterative machinery.

    Parameters (beyond :class:`GPRegressor`'s)
    ----------
    exact_lml_max_n : int
        Crossover below which hyperparameters are fit by the exact fused
        LML (the ``max_cholesky_size`` idea).  Above it, the stochastic
        estimator runs when the dense-structure mode and a kernel
        workspace are available, else a subset-of-data exact fit.
    cg_tol, cg_maxiter : float, int
        Relative-residual target and hard iteration cap for every CG
        solve.  The cap is part of the determinism contract (fixed caps +
        fixed probe seeds => reproducible selections) — hitting it
        degrades accuracy, never determinism.
    precond_rank, precond_rtol : int, float
        Pivoted-Cholesky rank cap and trace-residual stopping tolerance.
        The same factor preconditions CG and approximates the predictive
        variance, so these bound the variance error directly.
    n_probes, lanczos_steps : int
        Rademacher probes and Lanczos steps per probe for the stochastic
        LML (log-det and gradient-trace estimates).
    probe_seed : int
        Entropy for the probe stream: probes are drawn from
        ``SeedSequence(probe_seed, spawn_key=(fit_count,))`` — decoupled
        from the learner rng so iterative and dense runs consume the
        shared rng identically (trajectory parity).
    max_dense_bytes : float
        Dense-structure threshold: the kernel matrix is materialized (and
        kernel workspaces used) only while ``n^2 * 8`` stays below this.
        Above it, matvecs stream block rows and K never exists in memory.
        Note the dense-structure *mode* keeps a small constant number of
        O(n^2) buffers (K itself plus workspace distance caches with 1.5x
        capacity headroom) — budget accordingly.
    sod_max : int
        Subset size for the matrix-free hyperparameter fit.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        normalize_y: bool = True,
        n_restarts: int = 2,
        rng: np.random.Generator | None = None,
        incremental: bool = True,
        use_workspace: bool = True,
        max_memory_MB: float | None = None,
        exact_lml_max_n: int = 2000,
        cg_tol: float = 1e-10,
        cg_maxiter: int = 400,
        precond_rank: int = 256,
        precond_rtol: float = 1e-10,
        n_probes: int = 8,
        lanczos_steps: int = 24,
        probe_seed: int = 1234,
        max_dense_bytes: float = 4e9,
        sod_max: int = 2000,
    ) -> None:
        super().__init__(
            kernel=kernel,
            normalize_y=normalize_y,
            n_restarts=n_restarts,
            rng=rng,
            incremental=incremental,
            use_workspace=use_workspace,
            max_memory_MB=None,  # mode selection handles memory, see below
        )
        if exact_lml_max_n < 1:
            raise ValueError("exact_lml_max_n must be >= 1")
        if cg_maxiter < 1 or lanczos_steps < 1 or n_probes < 1:
            raise ValueError("cg_maxiter, lanczos_steps, n_probes must be >= 1")
        if precond_rank < 0:
            raise ValueError("precond_rank must be >= 0")
        self.max_memory_MB = max_memory_MB
        self.exact_lml_max_n = int(exact_lml_max_n)
        self.cg_tol = float(cg_tol)
        self.cg_maxiter = int(cg_maxiter)
        self.precond_rank = int(precond_rank)
        self.precond_rtol = float(precond_rtol)
        self.n_probes = int(n_probes)
        self.lanczos_steps = int(lanczos_steps)
        self.probe_seed = int(probe_seed)
        self.max_dense_bytes = float(max_dense_bytes)
        self.sod_max = int(sod_max)
        #: Iterative-solver counters, merged into :meth:`workspace_counters`.
        self._iter_counters = {
            "cg_solves": 0,
            "cg_iters": 0,
            "lanczos_steps": 0,
            "precond_rank": 0,
            "matvecs": 0,
        }
        self._pc: PivotedCholesky | None = None
        self._wb: _Woodbury | None = None
        #: Capacity buffer for the dense-structure kernel matrix, and the
        #: theta it currently holds (extension is valid only theta-frozen).
        self._K_buf: np.ndarray | None = None
        self._K_n = 0
        self._K_theta: np.ndarray | None = None
        self._inner_buf: np.ndarray | None = None

    # --------------------------------------------------------------- modes

    def _dense_ok(self, n: int) -> bool:
        """Whether the dense-structure (materialized-K) mode fits ``n``."""
        if n * n * 8 > self.max_dense_bytes:
            return False
        if self.max_memory_MB is not None:
            from repro.machine.memory_model import gp_capacity_MB

            if gp_capacity_MB(n) > self.max_memory_MB:
                return False
        return True

    def _check_memory_budget(self, n: int) -> None:
        """Override the dense guard: mode selection handles memory here."""

    def _probe_rng(self, *tag: int) -> np.random.Generator:
        """Deterministic generator decoupled from the learner rng."""
        ss = np.random.SeedSequence(
            entropy=self.probe_seed, spawn_key=(self._fit_count, *tag)
        )
        return np.random.default_rng(ss)

    def _count(self, **kv: int) -> None:
        for key, val in kv.items():
            if key == "precond_rank":
                self._iter_counters[key] = int(val)
                obs.gauge("precond_rank", float(val))
            else:
                self._iter_counters[key] += int(val)
                obs.incr(key, int(val))

    def _flush_op(self, op: KernelOperator) -> None:
        self._count(matvecs=op.matvecs)
        if op.matvecs:
            obs.add("iter_matvec", op.matvec_seconds, calls=op.matvecs)

    # ----------------------------------------------------------------- fit

    def _fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        if X.shape[0] < 1:
            raise ValueError("need at least one training sample")
        n = X.shape[0]
        if n <= self.exact_lml_max_n and self._dense_ok(n):
            # Exact hyperparameter path: inherited optimize (workspace
            # LML, warm starts, restarts) + our iterative _factorize.
            return super()._fit(X, y)
        self.X_train_ = X
        self.y_train_ = y
        self._y_mean = float(y.mean()) if self.normalize_y else 0.0
        yc = self._centered_y()
        start = self.kernel_ if self.kernel_ is not None else self.kernel
        if start.n_theta == 0:
            self.kernel_ = start
        elif self._dense_ok(n):
            ws = self._ensure_workspace(start, X)
            if ws is None:
                self.kernel_ = self._fit_theta_sod(start, X, y)
            else:
                self.kernel_ = self._fit_theta_stochastic(start, X, yc, ws)
        else:
            self.kernel_ = self._fit_theta_sod(start, X, y)
        self._factorize(X, yc)
        self.last_factor_mode_ = "fit"
        self._fit_count += 1
        return self

    def _fit_theta_stochastic(self, start, X, yc, ws):
        """L-BFGS-B on the SLQ/Hutchinson LML estimate (dense-structure).

        Probes are drawn once per fit (common random numbers), so the
        objective the optimizer sees is deterministic and smooth in theta;
        the estimator bias vanishes with probes/steps, not with luck.
        """
        n = X.shape[0]
        bounds = start.bounds
        Z = (
            self._probe_rng().integers(0, 2, size=(n, self.n_probes)) * 2.0
            - 1.0
        )
        buf = self._inner_buf
        if buf is None or buf.shape[0] != n:
            buf = np.empty((n, n))
            self._inner_buf = buf

        def objective(theta):
            lml, grad = self._lml_stochastic(theta, X, yc, ws, Z, buf)
            return -lml, -grad

        with obs.span("stochastic_fit", cat="gp", n=n):
            best_theta, f = lbfgsb(objective, start.theta, bounds)
            best_lml = -float(f)
            restarts = self.n_restarts if self._fit_count == 0 else 0
            for _ in range(restarts):
                assert self.rng is not None
                t0 = self.rng.uniform(bounds[:, 0], bounds[:, 1])
                theta, f = lbfgsb(objective, t0, bounds)
                if -float(f) > best_lml:
                    best_theta, best_lml = theta, -float(f)
        return start.with_theta(best_theta)

    def _lml_stochastic(self, theta, X, yc, ws, Z, inner):
        """Stochastic LML value + gradient at ``theta``.

        value: ``-0.5 y^T alpha - 0.5 logdet_SLQ - n/2 log 2 pi`` with
        ``alpha = K^{-1} y`` by PCG.  gradient: Hutchinson —
        ``0.5 <alpha alpha^T - (K^{-1}Z) Z^T / p, dK_j>`` fused through
        the workspace ``grad_dot`` (no (n, n, k) stack; the inner matrix
        is built in-place by BLAS ``dger``-style GEMM accumulation).
        """
        obs.incr("lml_eval")
        obs.incr("lml_grad")
        n = yc.shape[0]
        p = Z.shape[1]
        K = ws.kernel_matrix(theta)
        op = KernelOperator(self.kernel.with_theta(theta), X, K=K)
        pc = pivoted_cholesky(
            op, max_rank=min(self.precond_rank, n), rtol=self.precond_rtol
        )
        wb = _Woodbury(pc.L, op.noise_diag + pc.d_resid)
        rhs = np.concatenate([yc[:, None], Z], axis=1)
        sol, iters, _ = pcg(
            op.matmat, rhs, wb.solve, tol=self.cg_tol, maxiter=self.cg_maxiter
        )
        alpha = sol[:, 0]
        S = sol[:, 1:]
        logdet, lsteps = slq_logdet(op.matmat, Z, self.lanczos_steps)
        self._count(
            cg_solves=1, cg_iters=iters, lanczos_steps=lsteps,
            precond_rank=pc.rank,
        )
        self._flush_op(op)
        lml = (
            -0.5 * float(yc @ alpha)
            - 0.5 * logdet
            - 0.5 * n * math.log(2.0 * math.pi)
        )
        # inner = alpha alpha^T - S Z^T / p, assembled in the persistent
        # buffer.  grad_dot consumes only the symmetric part (plus the
        # diagonal), which Z S^T and S Z^T share — so the GEMM may write
        # the transposed orientation (inner.T is the F-ordered view of the
        # same memory, which BLAS accepts in place).
        np.multiply(alpha[:, None], alpha[None, :], out=inner)
        dgemm(
            alpha=-1.0 / p, a=Z, b=S, trans_b=True,
            beta=1.0, c=inner.T, overwrite_c=True,
        )
        grad = 0.5 * ws.grad_dot(inner, theta)
        return lml, grad

    def _fit_theta_sod(self, start, X, y):
        """Exact hyperparameter fit on a deterministic data subset.

        The matrix-free regime (and the no-workspace fallback): the fused
        Hutchinson gradient needs the O(n^2) workspace structure, so
        instead fit exactly on ``sod_max`` points chosen by the probe
        stream (never the learner rng — trajectory alignment).
        """
        n = X.shape[0]
        n_sod = min(n, self.sod_max)
        rng = self._probe_rng(1)
        idx = rng.choice(n, size=n_sod, replace=False) if n_sod < n else np.arange(n)
        helper = GPRegressor(
            kernel=start.with_theta(start.theta),
            normalize_y=self.normalize_y,
            n_restarts=self.n_restarts if self.kernel_ is None else 0,
            rng=rng,
            use_workspace=self.use_workspace,
        )
        with obs.span("sod_fit", cat="gp", n=n_sod):
            helper.fit(X[idx], y[idx])
        for key, val in helper.workspace_counters().items():
            self._ws_counters[key] += val
        assert helper.kernel_ is not None
        return helper.kernel_

    # ---------------------------------------------------------- factorize

    def _operator(self, kernel: Kernel, X: np.ndarray) -> KernelOperator:
        """Build the covariance operator, materializing K when allowed."""
        n = X.shape[0]
        if not self._dense_ok(n):
            self._K_buf = None
            self._K_n = 0
            self._K_theta = None
            return KernelOperator(kernel, X)
        self._K_buf = _grow_square(self._K_buf, 0, n)
        K = self._K_buf[:n, :n]
        ws = self._ws
        if self.use_workspace and ws is not None and ws.matches(kernel):
            # Re-target quietly: the fit already counted its workspace
            # acquisition; this is the same fit delivering K, not a new one.
            ws.update(X)
            ws.kernel_matrix(kernel.theta, out=K)
        else:
            K[...] = kernel(X)
        self._K_n = n
        self._K_theta = kernel.theta.copy()
        return KernelOperator(kernel, X, K=K)

    def _factorize(self, X: np.ndarray, yc: np.ndarray) -> None:
        """Iterative replacement for the dense from-scratch factorization."""
        assert self.kernel_ is not None
        self._eval_stash = None
        n = X.shape[0]
        with obs.timed("iter_factorize", cat="gp", n=n):
            op = self._operator(self.kernel_, X)
            pc = pivoted_cholesky(
                op, max_rank=min(self.precond_rank, n), rtol=self.precond_rtol
            )
            wb = _Woodbury(pc.L, op.noise_diag + pc.d_resid)
            alpha, iters, rel = pcg(
                op.matmat, yc, wb.solve, tol=self.cg_tol, maxiter=self.cg_maxiter
            )
            self._count(cg_solves=1, cg_iters=iters, precond_rank=pc.rank)
            self._flush_op(op)
        if rel > self.cg_tol:
            obs.event(
                "cg_capped", cat="gp", n=n, rel_residual=rel, cap=self.cg_maxiter
            )
        self._pc = pc
        self._wb = wb
        self._alpha = alpha
        self._noise_diag = op.noise_diag
        self._L = None  # no dense factor: everything below goes via _wb
        self._L_buf = None
        self._factor_jitter = 0.0

    def refactor(self, X, y):
        """Frozen-theta refactor; appended rows extend the iterative state.

        The fast path extends the materialized K by its new cross blocks
        (O(n m) kernel evaluations), appends rows to the pivoted-Cholesky
        factor (O(m r^2), pivots frozen), rank-m-updates the Woodbury
        capacitance, and warm-starts CG for ``alpha`` from the previous
        solution — typically a handful of iterations at the same
        tolerance as a cold solve.
        """
        if self.kernel_ is None:
            raise RuntimeError("refactor() requires a prior fit()")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) aligned with y (n,)")
        if self._can_extend_iterative(X):
            with obs.timed("rank1_update", cat="gp", n=len(X)):
                self._extend_iterative(X, y)
            self.last_factor_mode_ = "rank1"
            self._fit_count += 1
            return self
        with obs.timed("refactor", cat="gp", n=len(X)):
            self.X_train_ = X
            self.y_train_ = y
            self._y_mean = float(y.mean()) if self.normalize_y else 0.0
            self._factorize(X, self._centered_y())
            self.last_factor_mode_ = "full"
            self._fit_count += 1
        return self

    def _can_extend_iterative(self, X: np.ndarray) -> bool:
        old = self.X_train_
        if (
            not self.incremental
            or self._wb is None
            or self._pc is None
            or old is None
            or X.shape[0] <= old.shape[0]
            or X.shape[1] != old.shape[1]
            or self._dense_ok(X.shape[0]) != self._dense_ok(old.shape[0])
            or not np.array_equal(X[: old.shape[0]], old)
        ):
            return False
        if self._dense_ok(X.shape[0]):
            # The materialized K must cover the old set at the frozen theta.
            assert self.kernel_ is not None
            return (
                self._K_buf is not None
                and self._K_n == old.shape[0]
                and self._K_theta is not None
                and np.array_equal(self._K_theta, self.kernel_.theta)
            )
        return True

    def _extend_iterative(self, X: np.ndarray, y: np.ndarray) -> None:
        assert self.kernel_ is not None and self.X_train_ is not None
        assert self._pc is not None and self._wb is not None
        kernel = self.kernel_
        n_old = self.X_train_.shape[0]
        n = X.shape[0]
        X_new = X[n_old:]
        dense = self._dense_ok(n)
        if dense:
            assert self._K_buf is not None
            self._K_buf = _grow_square(self._K_buf, n_old, n)
            K12 = kernel(self.X_train_, X_new)  # cross: noise-free
            K22 = kernel(X_new)  # includes the noise diagonal
            self._K_buf[:n_old, n_old:n] = K12
            self._K_buf[n_old:n, :n_old] = K12.T
            self._K_buf[n_old:n, n_old:n] = K22
            self._K_n = n
            op = KernelOperator(kernel, X, K=self._K_buf[:n, :n])
        else:
            op = KernelOperator(kernel, X)
        diag_free_new = noise_free_diag(kernel, X_new)
        L_new, d_new = self._pc.extend(kernel, X_new, diag_free_new)
        noise_new = np.maximum(kernel.diag(X_new) - diag_free_new, 0.0)
        self._wb.extend(self._pc.L, L_new, noise_new + d_new)
        self.X_train_ = X
        self.y_train_ = y
        self._y_mean = float(y.mean()) if self.normalize_y else 0.0
        assert self._alpha is not None
        x0 = np.concatenate([self._alpha, np.zeros(n - n_old)])
        alpha, iters, rel = pcg(
            op.matmat,
            self._centered_y(),
            self._wb.solve,
            tol=self.cg_tol,
            maxiter=self.cg_maxiter,
            x0=x0,
        )
        self._count(cg_solves=1, cg_iters=iters, precond_rank=self._pc.rank)
        self._flush_op(op)
        if rel > self.cg_tol:
            obs.event(
                "cg_capped", cat="gp", n=n, rel_residual=rel, cap=self.cg_maxiter
            )
        self._alpha = alpha
        self._noise_diag = np.concatenate([self._noise_diag, noise_new])

    # ------------------------------------------------------------- predict

    @property
    def is_fitted(self) -> bool:
        return self._wb is not None and self._alpha is not None

    def predict(self, X, return_std: bool = False):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if self.X_train_ is None or self._wb is None:
            prior = self.kernel_ if self.kernel_ is not None else self.kernel
            mean = np.zeros(X.shape[0])
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(prior.diag(X), 0.0))
        kernel = self.kernel_
        assert kernel is not None and self._alpha is not None
        n = self.X_train_.shape[0]
        m = X.shape[0]
        with obs.timed("predict", cat="gp"):
            mean = np.empty(m)
            var = np.empty(m) if return_std else None
            # Block rows so the cross covariance stays bounded in memory
            # even when both the query batch and the train set are large.
            block = max(1, int((1 << 22) // max(n, 1)))
            for lo in range(0, m, block):
                hi = min(lo + block, m)
                Ks = kernel(X[lo:hi], self.X_train_)
                mean[lo:hi] = Ks @ self._alpha + self._y_mean
                if var is not None:
                    var[lo:hi] = kernel.diag(X[lo:hi]) - self._wb.quad(Ks)
            if not return_std:
                return mean
            return mean, np.sqrt(np.maximum(var, 0.0))

    def predict_from_cross(
        self, Ks: np.ndarray, prior_diag: np.ndarray, return_std: bool = False
    ):
        if self._wb is None or self._alpha is None:
            raise RuntimeError("predict_from_cross() requires a factorized model")
        Ks = np.asarray(Ks, dtype=np.float64)
        if Ks.ndim != 2 or Ks.shape[1] != self._alpha.shape[0]:
            raise ValueError("Ks must be (m, n_train)")
        with obs.timed("predict", cat="gp"):
            mean = Ks @ self._alpha + self._y_mean
            if not return_std:
                return mean
            var = np.asarray(prior_diag, dtype=np.float64) - self._wb.quad(Ks)
            return mean, np.sqrt(np.maximum(var, 0.0))

    def sample_y(self, X, rng: np.random.Generator, n_samples: int = 1) -> np.ndarray:
        """Posterior draws through the Woodbury-approximate covariance."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        kernel = self.kernel_ if self.kernel_ is not None else self.kernel
        if self.X_train_ is None or self._wb is None:
            mean = np.zeros(X.shape[0])
            cov = kernel(X)
        else:
            assert self._alpha is not None
            Ks = kernel(X, self.X_train_)
            mean = Ks @ self._alpha + self._y_mean
            cov = kernel(X) - Ks @ self._wb.solve(Ks.T)
        L = self._chol(cov)
        if L is None:
            raise np.linalg.LinAlgError("posterior covariance not PSD")
        z = rng.standard_normal((n_samples, X.shape[0]))
        return mean[None, :] + z @ L.T

    # ----------------------------------------------------------- utilities

    def workspace_counters(self) -> dict[str, int]:
        """Workspace counts plus the iterative-solver counters.

        Superset of the :class:`GPRegressor` surface: ``ws_hit`` /
        ``ws_extend`` / ``ws_rebuild`` plus ``cg_solves`` / ``cg_iters`` /
        ``lanczos_steps`` / ``precond_rank`` (rank of the current
        preconditioner) / ``matvecs``.
        """
        out = dict(self._ws_counters)
        out.update({k: int(v) for k, v in self._iter_counters.items()})
        return out
