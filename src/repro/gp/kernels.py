"""Covariance functions with analytic gradients in log-parameter space.

Every kernel exposes its tunable hyperparameters as ``theta``, the vector
of *natural logarithms* of the positive parameters — the standard trick
that turns positivity constraints into an unconstrained (box-bounded)
optimization and makes LML gradients well-scaled.

Conventions (matching scikit-learn, which the paper used):

- ``k(X)`` (one argument) is the training covariance **including** any
  white-noise diagonal; ``k(X, Y)`` (two arguments) is the cross-covariance
  and excludes noise.
- ``k(X, eval_gradient=True)`` also returns ``dK`` of shape
  ``(n, n, n_theta)`` with derivatives **with respect to theta** (log
  parameters), i.e. ``dK/dtheta_j = dK/dp_j * p_j``.
- ``kernel_a + kernel_b`` and ``kernel_a * kernel_b`` build :class:`Sum`
  and :class:`Product` nodes.

Hyperparameter fitting evaluates the same kernel at many ``theta`` over a
*fixed* training set (L-BFGS-B line searches, restarts, warm-started AL
refits).  :meth:`Kernel.prepare` builds a :class:`KernelWorkspace` that
caches everything theta-independent — unscaled squared distances for
isotropic RBF/Matérn, the per-dimension ``diff²`` stack for ARD — so each
evaluation is a scale-exp pass over preallocated buffers, and the LML
gradient trace ``tr(inner · ∂K/∂θ_j)`` is computed *fused* per component
(:meth:`KernelWorkspace.grad_dot`) instead of materializing the dense
``(n, n, n_theta)`` stack that ``__call__(eval_gradient=True)`` returns.
The direct ``__call__`` path stays untouched as the reference
implementation; workspace parity against it is pinned at ≤ 1e-10 relative
by ``tests/gp/test_workspace.py``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def _as2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError("inputs must be 2-D (n_samples, n_features)")
    return X


def _sqdist(X: np.ndarray, Y: np.ndarray, length_scale: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of scaled inputs, shape (n, m).

    Vectorized via the ||a||^2 + ||b||^2 - 2 a.b expansion; clipped at zero
    to kill the tiny negatives floating-point cancellation produces.
    """
    Xs = X / length_scale
    Ys = Y / length_scale
    d = (
        np.sum(Xs**2, axis=1)[:, None]
        + np.sum(Ys**2, axis=1)[None, :]
        - 2.0 * (Xs @ Ys.T)
    )
    return np.maximum(d, 0.0)


class Kernel(ABC):
    """Base covariance function."""

    # -- hyperparameter vector ------------------------------------------------

    @property
    @abstractmethod
    def theta(self) -> np.ndarray:
        """Log-parameters as a flat float array (may be empty)."""

    @abstractmethod
    def with_theta(self, theta: np.ndarray) -> "Kernel":
        """A copy of this kernel with the given log-parameters."""

    @property
    @abstractmethod
    def bounds(self) -> np.ndarray:
        """(n_theta, 2) log-space box bounds for the optimizer."""

    @property
    def n_theta(self) -> int:
        return self.theta.shape[0]

    # -- evaluation ------------------------------------------------------------

    @abstractmethod
    def __call__(
        self, X, Y=None, eval_gradient: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Covariance matrix (and optionally its theta-gradient)."""

    @abstractmethod
    def diag(self, X) -> np.ndarray:
        """Diagonal of ``self(X)`` without building the full matrix."""

    # -- workspaces -----------------------------------------------------------

    def prepare(self, X) -> "KernelWorkspace":
        """Cache the theta-independent structure of ``self(X)`` evaluations.

        The returned :class:`KernelWorkspace` evaluates the training
        covariance (and the fused LML-gradient trace) at any ``theta`` of a
        kernel with this *structure* — :meth:`with_theta` copies share one
        workspace.  Raises :class:`NotImplementedError` for kernel types
        without workspace support (callers fall back to ``__call__``).
        """
        return KernelWorkspace(self, X)

    # -- composition ----------------------------------------------------------

    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{v:.4g}" for v in np.exp(self.theta))
        return f"{type(self).__name__}({params})"


class ConstantKernel(Kernel):
    """Constant covariance ``sigma_f^2`` — the amplitude of Eq. (7).

    Usually composed as ``ConstantKernel(a) * RBF(l)``.
    """

    def __init__(self, constant: float = 1.0, bounds: tuple[float, float] = (1e-3, 1e3)):
        if constant <= 0:
            raise ValueError("constant must be positive")
        self.constant = float(constant)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.constant)])

    def with_theta(self, theta: np.ndarray) -> "ConstantKernel":
        return ConstantKernel(float(np.exp(theta[0])), self._bounds)

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.array([self._bounds]))

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        X = _as2d(X)
        m = X.shape[0] if Y is None else _as2d(Y).shape[0]
        K = np.full((X.shape[0], m), self.constant)
        if not eval_gradient:
            return K
        if Y is not None:
            raise ValueError("gradients only defined for K(X, X)")
        return K, K[:, :, None].copy()  # dK/dlog(c) = c = K

    def diag(self, X) -> np.ndarray:
        return np.full(_as2d(X).shape[0], self.constant)


class WhiteKernel(Kernel):
    """Observation noise ``sigma_n^2`` on the training diagonal (Eq. (1))."""

    def __init__(self, noise_level: float = 1e-2, bounds: tuple[float, float] = (1e-8, 1e1)):
        if noise_level <= 0:
            raise ValueError("noise_level must be positive")
        self.noise_level = float(noise_level)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.noise_level)])

    def with_theta(self, theta: np.ndarray) -> "WhiteKernel":
        return WhiteKernel(float(np.exp(theta[0])), self._bounds)

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.array([self._bounds]))

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        X = _as2d(X)
        n = X.shape[0]
        if Y is None:
            K = self.noise_level * np.eye(n)
            if eval_gradient:
                return K, K[:, :, None].copy()
            return K
        if eval_gradient:
            raise ValueError("gradients only defined for K(X, X)")
        return np.zeros((n, _as2d(Y).shape[0]))

    def diag(self, X) -> np.ndarray:
        return np.full(_as2d(X).shape[0], self.noise_level)


class RBF(Kernel):
    """Squared-exponential kernel, Eq. (7): ``exp(-d^2 / (2 l^2))``.

    ``length_scale`` may be a scalar (isotropic, the paper's choice) or a
    vector of per-dimension scales (anisotropic / ARD, the paper's
    future-work extension).
    """

    def __init__(self, length_scale=1.0, bounds: tuple[float, float] = (1e-2, 1e2)):
        ls = np.atleast_1d(np.asarray(length_scale, dtype=np.float64))
        if np.any(ls <= 0):
            raise ValueError("length_scale must be positive")
        self.length_scale = ls
        self._bounds = (float(bounds[0]), float(bounds[1]))

    @property
    def anisotropic(self) -> bool:
        return self.length_scale.shape[0] > 1

    @property
    def theta(self) -> np.ndarray:
        return np.log(self.length_scale)

    def with_theta(self, theta: np.ndarray) -> "RBF":
        return RBF(np.exp(theta), self._bounds)

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.tile(self._bounds, (self.length_scale.shape[0], 1)))

    def _ls(self, X: np.ndarray) -> np.ndarray:
        if self.anisotropic and self.length_scale.shape[0] != X.shape[1]:
            raise ValueError("anisotropic length_scale does not match n_features")
        return self.length_scale

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        X = _as2d(X)
        ls = self._ls(X)
        Ym = X if Y is None else _as2d(Y)
        d2 = _sqdist(X, Ym, ls)
        if Y is None:
            # Kill the ~1e-16 cancellation residue of the expansion: exact
            # zeros on the diagonal keep sqrt-based gradients clean.
            np.fill_diagonal(d2, 0.0)
        K = np.exp(-0.5 * d2)
        if not eval_gradient:
            return K
        if Y is not None:
            raise ValueError("gradients only defined for K(X, X)")
        if not self.anisotropic:
            # dK/dlog(l) = K * d^2 / l^2 ... with d2 already scaled: K * d2
            return K, (K * d2)[:, :, None]
        # Per-dimension: dK/dlog(l_k) = K * (x_k - y_k)^2 / l_k^2, all
        # dimensions at once over the (n, n, d) scaled-difference stack.
        diff = (X[:, None, :] - X[None, :, :]) / ls
        return K, np.einsum("ij,ijk,ijk->ijk", K, diff, diff)

    def diag(self, X) -> np.ndarray:
        return np.ones(_as2d(X).shape[0])


class Matern(Kernel):
    """Matérn kernel with smoothness ``nu`` in {0.5, 1.5, 2.5}.

    The family the paper's related work ([6], [8]) argues for; with
    ``nu -> inf`` it converges to the RBF.  Only the three closed-form
    smoothness values are supported (as in scikit-learn's fast paths).
    """

    def __init__(
        self,
        length_scale: float = 1.0,
        nu: float = 1.5,
        bounds: tuple[float, float] = (1e-2, 1e2),
    ):
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        if nu not in (0.5, 1.5, 2.5):
            raise ValueError("nu must be one of 0.5, 1.5, 2.5")
        self.length_scale = float(length_scale)
        self.nu = float(nu)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.length_scale)])

    def with_theta(self, theta: np.ndarray) -> "Matern":
        return Matern(float(np.exp(theta[0])), self.nu, self._bounds)

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.array([self._bounds]))

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        X = _as2d(X)
        Ym = X if Y is None else _as2d(Y)
        ls = np.array([self.length_scale])
        d2 = _sqdist(X, Ym, ls)
        if Y is None:
            np.fill_diagonal(d2, 0.0)
        r = np.sqrt(d2)  # scaled distance d/l
        if self.nu == 0.5:
            K = np.exp(-r)
            dK_dlog = K * r
        elif self.nu == 1.5:
            s = math.sqrt(3.0) * r
            K = (1.0 + s) * np.exp(-s)
            dK_dlog = s * s * np.exp(-s)
        else:  # nu == 2.5
            s = math.sqrt(5.0) * r
            K = (1.0 + s + s * s / 3.0) * np.exp(-s)
            dK_dlog = (s * s * (1.0 + s) / 3.0) * np.exp(-s)
        if not eval_gradient:
            return K
        if Y is not None:
            raise ValueError("gradients only defined for K(X, X)")
        return K, dK_dlog[:, :, None]

    def diag(self, X) -> np.ndarray:
        return np.ones(_as2d(X).shape[0])


class _Composite(Kernel):
    """Shared plumbing for binary kernel compositions."""

    def __init__(self, k1: Kernel, k2: Kernel):
        self.k1 = k1
        self.k2 = k2

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.k1.theta, self.k2.theta])

    def with_theta(self, theta: np.ndarray) -> "_Composite":
        n1 = self.k1.n_theta
        return type(self)(self.k1.with_theta(theta[:n1]), self.k2.with_theta(theta[n1:]))

    @property
    def bounds(self) -> np.ndarray:
        b1, b2 = self.k1.bounds, self.k2.bounds
        if b1.size == 0:
            return b2
        if b2.size == 0:
            return b1
        return np.vstack([b1, b2])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        op = "+" if isinstance(self, Sum) else "*"
        return f"({self.k1!r} {op} {self.k2!r})"


class Sum(_Composite):
    """``k1 + k2``."""

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        if not eval_gradient:
            return self.k1(X, Y) + self.k2(X, Y)
        K1, G1 = self.k1(X, Y, eval_gradient=True)
        K2, G2 = self.k2(X, Y, eval_gradient=True)
        return K1 + K2, np.concatenate([G1, G2], axis=2)

    def diag(self, X) -> np.ndarray:
        return self.k1.diag(X) + self.k2.diag(X)


class Product(_Composite):
    """``k1 * k2`` with the product-rule gradient."""

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        if not eval_gradient:
            return self.k1(X, Y) * self.k2(X, Y)
        K1, G1 = self.k1(X, Y, eval_gradient=True)
        K2, G2 = self.k2(X, Y, eval_gradient=True)
        K = K1 * K2
        G = np.concatenate([G1 * K2[:, :, None], G2 * K1[:, :, None]], axis=2)
        return K, G

    def diag(self, X) -> np.ndarray:
        return self.k1.diag(X) * self.k2.diag(X)


def default_kernel(
    length_scale: float = 1.0,
    amplitude: float = 1.0,
    noise_level: float = 1e-2,
    anisotropic_dims: int | None = None,
    matern_nu: float | None = None,
) -> Kernel:
    """The paper's surrogate-model kernel: ``sigma_f^2 * RBF(l) + sigma_n^2``.

    Parameters
    ----------
    anisotropic_dims : int, optional
        If given, use a per-dimension (ARD) length scale of this many dims.
    matern_nu : float, optional
        If given, substitute a Matérn kernel of that smoothness for the RBF
        (the paper's future-work variant).
    """
    if matern_nu is not None:
        if anisotropic_dims is not None:
            raise ValueError("anisotropic Matérn is not implemented")
        stationary: Kernel = Matern(length_scale, nu=matern_nu)
    elif anisotropic_dims is not None:
        stationary = RBF(np.full(anisotropic_dims, float(length_scale)))
    else:
        stationary = RBF(length_scale)
    return ConstantKernel(amplitude) * stationary + WhiteKernel(noise_level)


# ---------------------------------------------------------------------------
# Kernel workspaces: theta-independent structure cached per training set
# ---------------------------------------------------------------------------

_ONE = np.ones(1)


def _unscaled_sqdist(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """``_sqdist`` at unit length scale, diagonal exactly zero for Y=None."""
    d2 = _sqdist(X, X if Y is None else Y, _ONE)
    if Y is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def _grow_square(buf: np.ndarray | None, n_keep: int, n_new: int) -> np.ndarray:
    """Capacity buffer for an (n, n) structure matrix.

    Returns ``buf`` unchanged while it has room; otherwise allocates with
    ~1.5x headroom and copies the live ``(n_keep, n_keep)`` block — the
    same amortization contract as ``GPRegressor._L_buf``.
    """
    if buf is not None and buf.shape[-1] >= n_new:
        return buf
    cap = max(int(1.5 * n_new) + 8, 64)
    shape = buf.shape[:-2] + (cap, cap) if buf is not None else (cap, cap)
    new = np.zeros(shape)
    if buf is not None and n_keep:
        new[..., :n_keep, :n_keep] = buf[..., :n_keep, :n_keep]
    return new


class _WsNode(ABC):
    """Cached structure of one kernel-tree node over the training set.

    Contract: :meth:`value` evaluates ``K`` for this subtree at ``theta``
    (the subtree's slice of the full log-parameter vector) into a buffer
    owned by the node, and leaves that buffer intact until the next
    :meth:`value` call; :meth:`grad_dot` must run *after* :meth:`value`
    with the same ``theta`` and returns ``[sum(inner * dK/dtheta_j)]_j``
    without materializing any ``(n, n, n_theta)`` stack.
    """

    n_theta: int = 1
    #: Number of active rows/columns (leading block of the buffers).
    n: int = 0
    #: Capacity buffers of theta-independent structure, trimmed to their
    #: live ``(..., n, n)`` block when pickled.
    _structure: tuple[str, ...] = ()
    #: Evaluation scratch (buffers and the values ``grad_dot`` re-reads),
    #: left out of pickles: every :meth:`value` call rewrites it.
    _SCRATCH = frozenset({"_eval_flat", "_last_K", "_last", "_Ka", "_Kb", "_K"})

    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k not in self._SCRATCH}
        for name in self._structure:
            state[name] = state[name][..., : self.n, : self.n].copy()
        return state

    @abstractmethod
    def rebuild(self, X: np.ndarray) -> None:
        """Recompute all cached structure for a fresh training set."""

    @abstractmethod
    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        """Extend the structure by the appended rows ``X_new``."""

    @abstractmethod
    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (n, n) covariance block of this subtree at ``theta``.

        ``out``, when given, is a caller-owned (n, n) buffer the node *may*
        write its result into (returning ``out``) — the caller is then free
        to destroy it, e.g. by an in-place Cholesky.  Nodes whose
        :meth:`grad_dot` re-reads their own value (the exp-family leaves)
        ignore ``out`` and return their retained buffer instead, so callers
        must check ``result is out`` before assuming in-place delivery.
        """

    @abstractmethod
    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Fused trace terms ``sum(inner * dK/dtheta_j)`` per component."""

    def _scratch(self, count: int) -> tuple[np.ndarray, ...]:
        """``count`` contiguous (n, n) eval buffers with capacity headroom.

        Backed by flat capacity arrays so the one-acquisition growth of the
        AL loop reshapes views instead of reallocating (and page-faulting)
        per fit; the leading ``n*n`` elements of a flat buffer reshape to a
        C-contiguous square, which the in-place LAPACK calls require.
        """
        n = self.n
        flat = getattr(self, "_eval_flat", None)
        if flat is None or flat[0].size < n * n or len(flat) < count:
            cap = max(int(1.5 * n) + 8, 64)
            flat = tuple(np.empty(cap * cap) for _ in range(count))
            self._eval_flat = flat
        return tuple(b[: n * n].reshape(n, n) for b in flat[:count])


class _ConstantWs(_WsNode):
    """Constant kernel: no spatial structure at all."""

    is_scalar = True

    def rebuild(self, X: np.ndarray) -> None:
        self.n = X.shape[0]

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        self.n += X_new.shape[0]

    def scalar(self, theta: np.ndarray) -> float:
        return math.exp(theta[0])

    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        K = out if out is not None else self._scratch(1)[0]
        K.fill(self.scalar(theta))
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # dK/dlog(c) = c everywhere.
        return np.array([self.scalar(theta) * float(inner.sum())])


class _WhiteWs(_WsNode):
    """White noise: a theta-scaled identity."""

    is_diag = True
    _K: np.ndarray | None = None

    def rebuild(self, X: np.ndarray) -> None:
        self.n = X.shape[0]
        self._K: np.ndarray | None = None

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        self.n += X_new.shape[0]
        self._K = None

    def diag_value(self, theta: np.ndarray) -> float:
        return math.exp(theta[0])

    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            out.fill(0.0)
            np.fill_diagonal(out, self.diag_value(theta))
            return out
        if self._K is None or self._K.shape[0] != self.n:
            self._K = np.zeros((self.n, self.n))
        np.fill_diagonal(self._K, self.diag_value(theta))
        return self._K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # dK/dlog(noise) = noise * I -> noise * tr(inner).
        return np.array([self.diag_value(theta) * float(np.trace(inner))])


class _RBFIsoWs(_WsNode):
    """Isotropic RBF: caches the unscaled squared-distance matrix."""

    _structure = ("_d2",)

    def rebuild(self, X: np.ndarray) -> None:
        n = X.shape[0]
        self._d2 = _grow_square(None, 0, n)
        self._d2[:n, :n] = _unscaled_sqdist(X)
        self.n = n

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        n_old, m = self.n, X_new.shape[0]
        n = n_old + m
        self._d2 = _grow_square(self._d2, n_old, n)
        cross = _unscaled_sqdist(X_new, X_old)
        self._d2[n_old:n, :n_old] = cross
        self._d2[:n_old, n_old:n] = cross.T
        self._d2[n_old:n, n_old:n] = _unscaled_sqdist(X_new)
        self.n = n

    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # out is ignored: grad_dot re-reads the retained exp result.
        (K,) = self._scratch(1)
        inv_l2 = math.exp(-2.0 * theta[0])
        d2 = self._d2[: self.n, : self.n]
        np.multiply(d2, -0.5 * inv_l2, out=K)
        np.exp(K, out=K)
        self._last_K = K
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # dK/dlog(l) = K * d2/l^2, traced without forming the product matrix.
        inv_l2 = math.exp(-2.0 * theta[0])
        d2 = self._d2[: self.n, : self.n]
        g = np.einsum("ij,ij,ij->", inner, self._last_K, d2)
        return np.array([inv_l2 * g])


class _RBFArdWs(_WsNode):
    """Anisotropic RBF: caches the per-dimension ``diff²`` stack."""

    _structure = ("_diff2",)

    def __init__(self, n_dims: int):
        self.n_theta = n_dims

    def rebuild(self, X: np.ndarray) -> None:
        if X.shape[1] != self.n_theta:
            raise ValueError("anisotropic length_scale does not match n_features")
        n = X.shape[0]
        cap = max(int(1.5 * n) + 8, 64)
        self._diff2 = np.zeros((self.n_theta, cap, cap))
        diff = X[:, None, :] - X[None, :, :]
        self._diff2[:, :n, :n] = np.ascontiguousarray((diff * diff).transpose(2, 0, 1))
        self.n = n

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        n_old, m = self.n, X_new.shape[0]
        n = n_old + m
        self._diff2 = _grow_square(self._diff2, n_old, n)
        cross = X_new[:, None, :] - X_old[None, :, :]
        cross = (cross * cross).transpose(2, 0, 1)
        self._diff2[:, n_old:n, :n_old] = cross
        self._diff2[:, :n_old, n_old:n] = cross.transpose(0, 2, 1)
        self_block = X_new[:, None, :] - X_new[None, :, :]
        self._diff2[:, n_old:n, n_old:n] = (self_block * self_block).transpose(2, 0, 1)
        self.n = n

    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # out is ignored: grad_dot re-reads the retained exp result.
        K, = self._scratch(1)
        inv_l2 = np.exp(-2.0 * theta)
        d2 = self._diff2[:, : self.n, : self.n]
        np.einsum("k,kij->ij", -0.5 * inv_l2, d2, out=K)
        np.exp(K, out=K)
        self._last_K = K
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # dK/dlog(l_k) = K * diff2_k / l_k^2: one einsum over the stack.
        d2 = self._diff2[:, : self.n, : self.n]
        g = np.einsum("ij,ij,kij->k", inner, self._last_K, d2)
        return np.exp(-2.0 * theta) * g


class _MaternWs(_WsNode):
    """Matérn (nu in {0.5, 1.5, 2.5}): caches unscaled distances."""

    _structure = ("_r",)

    def __init__(self, nu: float):
        self.nu = nu

    def rebuild(self, X: np.ndarray) -> None:
        n = X.shape[0]
        self._r = _grow_square(None, 0, n)
        np.sqrt(_unscaled_sqdist(X), out=self._r[:n, :n])
        self.n = n

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        n_old, m = self.n, X_new.shape[0]
        n = n_old + m
        self._r = _grow_square(self._r, n_old, n)
        cross = np.sqrt(_unscaled_sqdist(X_new, X_old))
        self._r[n_old:n, :n_old] = cross
        self._r[:n_old, n_old:n] = cross.T
        self._r[n_old:n, n_old:n] = np.sqrt(_unscaled_sqdist(X_new))
        self.n = n

    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # out is ignored: grad_dot re-reads the retained S/E (or K) buffers.
        K, S, E, _ = self._scratch(4)
        r = self._r[: self.n, : self.n]
        inv_l = math.exp(-theta[0])
        if self.nu == 0.5:
            np.multiply(r, -inv_l, out=K)
            np.exp(K, out=K)
            self._last = (K,)
            return K
        scale = math.sqrt(3.0) if self.nu == 1.5 else math.sqrt(5.0)
        np.multiply(r, scale * inv_l, out=S)  # s = sqrt(2 nu) d / l
        np.negative(S, out=E)
        np.exp(E, out=E)  # exp(-s)
        if self.nu == 1.5:
            np.add(S, 1.0, out=K)  # (1 + s)
        else:
            np.multiply(S, S, out=K)
            K /= 3.0
            K += S
            K += 1.0  # (1 + s + s^2/3)
        K *= E
        self._last = (S, E)
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if self.nu == 0.5:
            # dK/dlog(l) = K * r/l  (with K = exp(-r/l) still in its buffer).
            (K,) = self._last
            r = self._r[: self.n, : self.n]
            g = math.exp(-theta[0]) * np.einsum("ij,ij,ij->", inner, K, r)
            return np.array([g])
        S, E = self._last
        if self.nu == 1.5:
            # dK/dlog(l) = s^2 exp(-s)
            g = np.einsum("ij,ij,ij,ij->", inner, S, S, E)
        else:
            # dK/dlog(l) = s^2 (1 + s)/3 exp(-s); T is the spare scratch
            # buffer (never the K buffer — parents may still read K).
            T = self._scratch(4)[3]
            np.add(S, 1.0, out=T)
            T *= E
            g = np.einsum("ij,ij,ij,ij->", inner, S, S, T) / 3.0
        return np.array([g])


class _CompositeWs(_WsNode):
    """Shared plumbing for Sum/Product workspace nodes."""

    def __init__(self, a: _WsNode, b: _WsNode):
        self.a = a
        self.b = b
        self.n_theta = a.n_theta + b.n_theta

    def rebuild(self, X: np.ndarray) -> None:
        self.a.rebuild(X)
        self.b.rebuild(X)
        self.n = X.shape[0]

    def append(self, X_old: np.ndarray, X_new: np.ndarray) -> None:
        self.a.append(X_old, X_new)
        self.b.append(X_old, X_new)
        self.n += X_new.shape[0]

    def _split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return theta[: self.a.n_theta], theta[self.a.n_theta :]


class _SumWs(_CompositeWs):
    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        K = out if out is not None else self._scratch(1)[0]
        ta, tb = self._split(theta)
        if isinstance(self.b, _WhiteWs):
            # K1 + noise*I without materializing the white matrix; when the
            # child delivered straight into the caller's buffer, the diag
            # bump is the only O(n) work left — no copy at all.
            Ka = self.a.value(ta, out=out)
            if Ka is not K:
                np.copyto(K, Ka)
            K.flat[:: self.n + 1] += self.b.diag_value(tb)
            self.b.n = self.n  # keep the bypassed node's size in sync
        else:
            np.add(self.a.value(ta), self.b.value(tb), out=K)
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        ta, tb = self._split(theta)
        return np.concatenate(
            [self.a.grad_dot(inner, ta), self.b.grad_dot(inner, tb)]
        )


class _ProductWs(_CompositeWs):
    def value(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # grad_dot only ever re-reads the *children's* retained values
        # (never the product), so the product can go straight into a
        # caller-owned ``out`` that a later Cholesky destroys.
        K = out if out is not None else self._scratch(3)[0]
        ta, tb = self._split(theta)
        if isinstance(self.a, _ConstantWs):
            self._Kb = self.b.value(tb)
            np.multiply(self._Kb, self.a.scalar(ta), out=K)
            self.a.n = self.n
        elif isinstance(self.b, _ConstantWs):
            self._Ka = self.a.value(ta)
            np.multiply(self._Ka, self.b.scalar(tb), out=K)
            self.b.n = self.n
        else:
            self._Ka = self.a.value(ta)
            self._Kb = self.b.value(tb)
            np.multiply(self._Ka, self._Kb, out=K)
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # Product rule: tr(inner dK1 K2) = tr((inner*K2) dK1) and vice
        # versa.  Both weighted inners are built before recursing so no
        # child may overwrite a value buffer the other still needs.
        _, t1, t2 = self._scratch(3)
        ta, tb = self._split(theta)
        if isinstance(self.a, _ConstantWs):
            # dK/dlog(c) = K = c * K2; the other factor sees inner*c.
            c = self.a.scalar(ta)
            ga = np.array([c * np.einsum("ij,ij->", inner, self._Kb)])
            np.multiply(inner, c, out=t2)
            return np.concatenate([ga, self.b.grad_dot(t2, tb)])
        if isinstance(self.b, _ConstantWs):
            c = self.b.scalar(tb)
            gb = np.array([c * np.einsum("ij,ij->", inner, self._Ka)])
            np.multiply(inner, c, out=t1)
            return np.concatenate([self.a.grad_dot(t1, ta), gb])
        np.multiply(inner, self._Kb, out=t1)
        np.multiply(inner, self._Ka, out=t2)
        return np.concatenate(
            [self.a.grad_dot(t1, ta), self.b.grad_dot(t2, tb)]
        )


def _build_ws_node(kernel: Kernel) -> _WsNode:
    if isinstance(kernel, Sum):
        return _SumWs(_build_ws_node(kernel.k1), _build_ws_node(kernel.k2))
    if isinstance(kernel, Product):
        return _ProductWs(_build_ws_node(kernel.k1), _build_ws_node(kernel.k2))
    if isinstance(kernel, ConstantKernel):
        return _ConstantWs()
    if isinstance(kernel, WhiteKernel):
        return _WhiteWs()
    if isinstance(kernel, RBF):
        if kernel.anisotropic:
            return _RBFArdWs(kernel.length_scale.shape[0])
        return _RBFIsoWs()
    if isinstance(kernel, Matern):
        return _MaternWs(kernel.nu)
    raise NotImplementedError(
        f"no workspace support for {type(kernel).__name__}"
    )


def workspace_signature(kernel: Kernel) -> str:
    """Structural fingerprint a workspace is keyed on.

    Two kernels with equal signatures share cached structure for the same
    training set — i.e. they differ at most in ``theta``.  ``with_theta``
    always preserves the signature.
    """
    if isinstance(kernel, _Composite):
        op = "+" if isinstance(kernel, Sum) else "*"
        return (
            f"({workspace_signature(kernel.k1)}{op}"
            f"{workspace_signature(kernel.k2)})"
        )
    if isinstance(kernel, ConstantKernel):
        return "const"
    if isinstance(kernel, WhiteKernel):
        return "white"
    if isinstance(kernel, RBF):
        return f"rbf[{kernel.length_scale.shape[0]}]"
    if isinstance(kernel, Matern):
        return f"matern[{kernel.nu}]"
    return f"?{type(kernel).__name__}"


class KernelWorkspace:
    """Theta-independent evaluation state for one kernel structure + X.

    Built by :meth:`Kernel.prepare`.  Holds, per kernel-tree node, the
    cached spatial structure (unscaled squared distances, ARD ``diff²``
    stacks) in capacity buffers, so that

    - :meth:`kernel_matrix` evaluates ``kernel.with_theta(theta)(X)`` as a
      scale-exp pass over preallocated memory, and
    - :meth:`grad_dot` computes the fused LML-gradient traces
      ``[sum(inner * dK/dtheta_j)]_j`` without any ``(n, n, k)`` stack;

    and that :meth:`update` *extends* the structure in O(n·m) per appended
    row instead of rebuilding in O(n² d) when the AL loop grows the
    training set by an acquisition (same capacity-buffer +
    full-rebuild-fallback contract as the incremental Cholesky in
    :class:`repro.gp.gpr.GPRegressor`).

    Exactness: values match the direct ``__call__`` path to floating-point
    roundoff (≤ 1e-10 relative, pinned by ``tests/gp/test_workspace.py``);
    the workspace never becomes silently stale because :meth:`update`
    compares the stored training set against the new one and falls back to
    a full rebuild on any mismatch.
    """

    def __init__(self, kernel: Kernel, X) -> None:
        self.signature = workspace_signature(kernel)
        self._root = _build_ws_node(kernel)  # may raise NotImplementedError
        X = _as2d(X)
        self._X = X.copy()
        self._root.rebuild(self._X)

    # ------------------------------------------------------------- lifecycle

    @property
    def n(self) -> int:
        """Training rows currently covered."""
        return self._root.n

    @property
    def n_theta(self) -> int:
        return self._root.n_theta

    def matches(self, kernel: Kernel) -> bool:
        """Whether ``kernel`` has the structure this workspace was built for."""
        return workspace_signature(kernel) == self.signature

    def update(self, X) -> str:
        """Re-target the workspace at training set ``X``.

        Returns how it got there: ``"hit"`` (already covered), ``"extend"``
        (``X`` appends rows to the stored set; only the new blocks are
        computed) or ``"rebuild"`` (anything else — the fallback is always
        a from-scratch rebuild, never a stale cache).
        """
        X = _as2d(X)
        n_old = self._X.shape[0]
        if X.shape[1] == self._X.shape[1]:
            if X.shape[0] == n_old and np.array_equal(X, self._X):
                return "hit"
            if X.shape[0] > n_old and np.array_equal(X[:n_old], self._X):
                X_new = X[n_old:].copy()
                self._root.append(self._X, X_new)
                self._X = np.vstack([self._X, X_new])
                return "extend"
        self._X = X.copy()
        self._root.rebuild(self._X)
        return "rebuild"

    # ------------------------------------------------------------ evaluation

    def kernel_matrix(
        self, theta: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``kernel.with_theta(theta)(X)`` into a reused buffer.

        Without ``out`` the returned array is owned by the workspace and
        valid until the next :meth:`kernel_matrix`/:meth:`update` call;
        callers must copy it if they need it to survive
        (``scipy.linalg.cholesky`` copies by default).  With ``out`` (a
        caller-owned C-contiguous (n, n) buffer) the value is delivered
        into ``out`` — written directly by the kernel tree where the root
        node supports it, copied otherwise — and the caller may destroy it
        (e.g. an in-place Cholesky); :meth:`grad_dot` stays valid either
        way because the gradient re-reads only node-retained buffers.
        """
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[0] != self._root.n_theta:
            raise ValueError("theta does not match the kernel structure")
        K = self._root.value(theta, out=out)
        if out is not None and K is not out:
            np.copyto(out, K)
            return out
        return K

    def grad_dot(self, inner: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Fused ``[sum(inner * dK/dtheta_j)]_j``.

        Must be called right after :meth:`kernel_matrix` with the same
        ``theta`` (node buffers still hold that evaluation); ``inner`` is
        any (n, n) weight matrix — for the LML gradient,
        ``alpha alpha^T - K^{-1}``.
        """
        theta = np.asarray(theta, dtype=np.float64)
        return self._root.grad_dot(inner, theta)
