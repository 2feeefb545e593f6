"""Gaussian Process Regression from scratch (Rasmussen & Williams).

Implements the modeling layer of the paper's Sec. III: kernels (the RBF of
Eq. (7), plus the Matérn family and anisotropic variants flagged as future
work), the log marginal likelihood of Eq. (8) with analytic gradients, and
hyperparameter fitting by multi-restart L-BFGS-B maximization of the LML
(Eq. (9)).  The API mirrors scikit-learn 0.18's GaussianProcessRegressor,
which the paper used, including the kernel-composition operators.

Public API
----------
- Kernels: :class:`RBF`, :class:`Matern`, :class:`ConstantKernel`,
  :class:`WhiteKernel`, :class:`Sum`, :class:`Product` (also via ``+``/``*``).
- :class:`GPRegressor` — fit / predict with mean and standard deviation.
- :func:`default_kernel` — the paper's model: amplitude * RBF + noise.
- :class:`KernelWorkspace` / :func:`workspace_signature` — cached
  theta-independent kernel structure backing the hyperparameter-refit
  fast path (``Kernel.prepare``).
- :class:`Surrogate` / :func:`supports_cross` (plus the
  :func:`cross_points` / :func:`cross_appends` / :func:`cross_version`
  basis probes) — the protocol every model family satisfies (the surface
  the AL loop relies on) and the sanctioned cross-covariance probes.
  Models keep no work counts of their own: workspace reuse, CG and
  Lanczos work and sparse appends are counted in :mod:`repro.obs`.
- :class:`IterativeGPRegressor` — the large-n fast path: preconditioned
  CG solves, pivoted-Cholesky/Woodbury variance, stochastic Lanczos /
  Hutchinson LML above its exact crossover, matrix-free matvecs above its
  memory threshold.
"""

from repro.gp.kernels import (
    Kernel,
    KernelWorkspace,
    RBF,
    Matern,
    ConstantKernel,
    WhiteKernel,
    Sum,
    Product,
    default_kernel,
    workspace_signature,
)
from repro.gp.gpr import GPRegressor
from repro.gp.iterative import IterativeGPRegressor
from repro.gp.surrogate import (
    Surrogate,
    build_surrogate,
    cross_appends,
    cross_points,
    cross_version,
    supports_cross,
)
from repro.gp.multifidelity import MultiFidelityGPRegressor, split_fidelity_column
from repro.gp.local import LocalGPRegressor, kmeans
from repro.gp.sparse import SparseGPRegressor
from repro.gp.spectral import SpectralGPRegressor
from repro.gp.treed import TreedGPRegressor

__all__ = [
    "IterativeGPRegressor",
    "LocalGPRegressor",
    "MultiFidelityGPRegressor",
    "split_fidelity_column",
    "Surrogate",
    "build_surrogate",
    "cross_appends",
    "cross_points",
    "cross_version",
    "supports_cross",
    "SparseGPRegressor",
    "SpectralGPRegressor",
    "TreedGPRegressor",
    "kmeans",
    "Kernel",
    "RBF",
    "Matern",
    "ConstantKernel",
    "WhiteKernel",
    "Sum",
    "Product",
    "default_kernel",
    "GPRegressor",
    "KernelWorkspace",
    "workspace_signature",
]
