"""The ``Surrogate`` protocol: what the AL loop requires of a model.

:class:`~repro.core.loop.ActiveLearner` and
:class:`~repro.core.loop.CandidateCovarianceCache` talk to their models
only through this contract:

- :class:`Surrogate` — a :class:`typing.Protocol` (``runtime_checkable``)
  listing the full surface the loop touches: ``fit`` / ``refactor`` /
  ``predict`` / ``predict_from_cross`` and the ``is_fitted`` /
  ``supports_cross`` / ``use_workspace`` flags.  How much work a model
  did (workspace hits, extensions and rebuilds, CG solves, sparse
  appends) is counted in :mod:`repro.obs`, not on the model.
- :func:`supports_cross` — the single place that decides whether a model
  offers the exact-GP cross-covariance fast path: the model's declared
  ``supports_cross``.

All built-in model families satisfy the protocol:
:class:`~repro.gp.gpr.GPRegressor` and
:class:`~repro.gp.iterative.IterativeGPRegressor` (cross rows against the
training set), :class:`~repro.gp.sparse.SparseGPRegressor` (cross rows
against the *inducing* set — see below), while
:class:`~repro.gp.local.LocalGPRegressor` and
:class:`~repro.gp.treed.TreedGPRegressor` declare
``supports_cross = False`` and raise ``NotImplementedError`` from the
cross path, which the cache therefore never takes.

The cross surface is parameterized by three *optional* attributes probed
through module helpers (the Protocol class itself stays fixed so
structural ``isinstance`` checks keep meaning the same thing):

- :func:`cross_points` — the basis the cached rows are computed against
  (``model.cross_points_`` when present, else ``model.X_train_``).
- :func:`cross_appends` — whether acquiring a candidate *appends* a
  column to cached rows (exact GPs grow their training set) or leaves
  them valid as-is (inducing bases don't move on acquisition);
  ``model.cross_appends_on_acquire``, default ``True``.
- :func:`cross_version` — a basis epoch (``model.cross_version_``,
  default 0); any bump invalidates cached rows wholesale (e.g. the
  sparse model re-clustering its inducing points).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Surrogate(Protocol):
    """Model surface required by the AL loop and its candidate cache.

    ``runtime_checkable``, so conformance is asserted structurally:
    ``isinstance(model, Surrogate)`` checks that every member below
    exists (Python cannot check signatures at runtime — the conformance
    test in ``tests/gp/test_surrogate_protocol.py`` exercises behaviour).
    """

    #: Route hyperparameter refits through the cached kernel workspace.
    use_workspace: bool

    @property
    def is_fitted(self) -> bool:
        """A prediction-ready factorization exists."""
        ...

    @property
    def supports_cross(self) -> bool:
        """``predict_from_cross`` is a real fast path, not a stub."""
        ...

    def fit(self, X: np.ndarray, y: np.ndarray) -> Any:
        """Full fit: optimize hyperparameters, then factorize."""
        ...

    def refactor(self, X: np.ndarray, y: np.ndarray) -> Any:
        """Refactorize on new data with frozen hyperparameters."""
        ...

    def predict(self, X: np.ndarray, return_std: bool = False):
        """Posterior mean (and std) at query points."""
        ...

    def predict_from_cross(
        self, Ks: np.ndarray, prior_diag: np.ndarray, return_std: bool = False
    ):
        """Posterior from a precomputed cross-covariance (exact GPs only).

        Models with ``supports_cross = False`` raise
        ``NotImplementedError``; callers must gate on
        :func:`supports_cross` first.
        """
        ...


def build_surrogate(
    name: str,
    *,
    kernel=None,
    rng=None,
    n_restarts: int | None = None,
    options=(),
) -> Any:
    """Construct the registered surrogate ``name`` with the loop's inputs.

    The single surrogate factory behind ``ALConfig.surrogate``: resolves
    ``name`` through :data:`repro.registry.surrogate_registry` (unknown
    names raise listing the registered keys) and adapts to the model's
    constructor signature — ``kernel``/``rng``/``n_restarts`` are
    forwarded only when the class accepts them, so e.g. the sparse model
    (no ``n_restarts``) needs no special case.  ``options`` (the config's
    ``surrogate_options``) always win over the adapted defaults; every
    other constructor argument, ``use_workspace`` included, is set there.
    """
    import inspect

    from repro.registry import surrogate_registry

    cls = surrogate_registry.get(name)
    kwargs = dict(options)
    params = inspect.signature(cls.__init__).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )

    def accepts(key: str) -> bool:
        return accepts_any or key in params

    if accepts("kernel") and kernel is not None:
        kwargs.setdefault("kernel", kernel)
    if accepts("rng") and rng is not None:
        kwargs.setdefault("rng", rng)
    if accepts("n_restarts") and n_restarts is not None:
        kwargs.setdefault("n_restarts", n_restarts)
    return cls(**kwargs)


def supports_cross(model: Any) -> bool:
    """Does ``model`` offer the exact-GP cross-covariance fast path?

    The model's declared ``supports_cross``; a model that declares
    nothing gets no cross path, so its candidates are not cached.
    """
    return bool(getattr(model, "supports_cross", False))


def cross_points(model: Any) -> np.ndarray | None:
    """The basis ``predict_from_cross`` rows are evaluated against.

    ``kernel_(X_query, cross_points(model))`` is what the candidate cache
    must maintain.  Exact GPs predict from cross rows against their
    training set; inducing-point models declare an explicit
    ``cross_points_`` basis instead.
    """
    pts = getattr(model, "cross_points_", None)
    if pts is not None:
        return np.asarray(pts)
    return getattr(model, "X_train_", None)


def cross_appends(model: Any) -> bool:
    """Whether acquiring a candidate appends a column to cached cross rows.

    True (the default) for training-set bases — the acquired point joins
    the basis, so the cache appends ``kernel_(U, u_new)``.  False for
    bases that don't move on acquisition (frozen inducing sets): cached
    rows stay valid with no column work at all.
    """
    return bool(getattr(model, "cross_appends_on_acquire", True))


def cross_version(model: Any) -> int:
    """Basis epoch: any change invalidates cached cross rows wholesale.

    Models whose basis can move outside the acquire/drop protocol (the
    sparse model re-clustering inducing points on a full refactor) bump
    ``cross_version_``; models with an append-only basis never need to.
    """
    return int(getattr(model, "cross_version_", 0))
