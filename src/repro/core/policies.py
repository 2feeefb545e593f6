"""The five candidate-selection algorithms of Sec. IV-B.

Each policy sees a :class:`CandidateView` — the remaining Active samples
with the current models' predictive means and standard deviations for the
(log10) cost and memory responses — and returns the position of the chosen
candidate, or ``None`` to terminate AL early (only RGMA does this, when no
candidate satisfies the memory constraint).

All predictions are in **log10 space**: ``sigma - mu`` of log values is the
log of the non-log ratio ``sigma-weighted uncertainty per unit cost`` that
MinPred and RandGoodness chase.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro import obs
from repro.registry import register_policy


def timed_select(select):
    """Credit a policy's ``select`` to the ``select`` metrics phase.

    Applied to every built-in policy so :func:`repro.obs.report` breaks
    the AL hot loop down into fit / refactor / predict / select without
    the loop having to wrap each call site.  When tracing is enabled the
    same region also becomes a ``select`` span (annotated with the policy
    name) nested under the current AL iteration.
    """

    @functools.wraps(select)
    def wrapper(self, view: "CandidateView", rng: np.random.Generator):
        with obs.timed("select", cat="al", policy=getattr(self, "name", "?")):
            return select(self, view, rng)

    return wrapper


@dataclass(frozen=True)
class CandidateView:
    """Model state over the remaining candidates at one AL iteration.

    Attributes
    ----------
    X : ndarray, shape (m, d)
        Scaled features of the remaining Active samples.
    mu_cost, sigma_cost : ndarray, shape (m,)
        Predictive mean / std of the log10-cost model.
    mu_mem, sigma_mem : ndarray, shape (m,)
        Predictive mean / std of the log10-memory model.
    """

    X: np.ndarray
    mu_cost: np.ndarray
    sigma_cost: np.ndarray
    mu_mem: np.ndarray
    sigma_mem: np.ndarray

    def __post_init__(self) -> None:
        m = self.X.shape[0]
        for name in ("mu_cost", "sigma_cost", "mu_mem", "sigma_mem"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have shape ({m},)")

    def __len__(self) -> int:
        return int(self.X.shape[0])


class SelectionPolicy(Protocol):
    """Callable deciding which candidate to run next."""

    #: Short name used in registries, tables and figures.
    name: str

    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        """Index into ``view`` of the next experiment, or None to stop."""
        ...


@register_policy("rand_uniform")
class RandUniform:
    """Uniform random sampling — the reference point, no model feedback.

    Not useful in sequential AL (batch sampling would be cheaper), but it
    anchors the comparison of every model-driven scheme.
    """

    name = "rand_uniform"

    @timed_select
    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        if len(view) == 0:
            return None
        return int(rng.integers(len(view)))


@register_policy("max_sigma")
class MaxSigma:
    """Uncertainty sampling: the largest predictive std of the cost model.

    Called "Variance Reduction" in the authors' earlier work; Settles'
    survey knows it as Uncertainty Sampling with least-confident selection.
    Ignores the magnitude of the cost itself, so it happily buys the most
    expensive experiment on the menu.
    """

    name = "max_sigma"

    @timed_select
    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        if len(view) == 0:
            return None
        return int(np.argmax(view.sigma_cost))


@register_policy("min_pred")
class MinPred:
    """Greedy "uncertainty per unit cost": argmax (sigma - mu) in log space.

    Equivalent to maximizing the non-log ratio ``sigma/mu``.  As the paper
    observes, the variation of ``mu`` across candidates dwarfs that of
    ``sigma`` (often by two orders of magnitude), so the policy degrades to
    selecting the *cheapest predicted* candidate — hence its name.
    """

    name = "min_pred"

    @timed_select
    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        if len(view) == 0:
            return None
        return int(np.argmax(view.sigma_cost - view.mu_cost))


def goodness_distribution(
    mu: np.ndarray, sigma: np.ndarray, base: float = 10.0
) -> np.ndarray:
    """Normalized candidate "goodness" ``base ** (sigma - mu)``.

    Base 10 matches the log10 pre-processing; higher bases skew the
    distribution further toward the cheap candidates.  The exponent is
    shifted by its maximum before exponentiation so the computation never
    overflows, which leaves the normalized distribution unchanged.
    """
    if base <= 1.0:
        raise ValueError("base must exceed 1")
    expo = sigma - mu
    expo = expo - expo.max()
    g = np.power(base, expo)
    total = g.sum()
    if not np.isfinite(total) or total <= 0:
        # Degenerate (all -inf but the max): fall back to the argmax.
        g = np.zeros_like(expo)
        g[np.argmax(expo)] = 1.0
        return g
    return g / total


@register_policy("rand_goodness")
class RandGoodness:
    """Randomized cost-efficiency sampling (the paper's exploration fix).

    Samples candidates from the goodness distribution
    ``g = 10 ** (sigma_cost - mu_cost)``, normalized.  Mostly picks near
    MinPred's choices but occasionally buys a more expensive, informative
    candidate — restoring the exploration MinPred lost.
    """

    name = "rand_goodness"

    def __init__(self, base: float = 10.0) -> None:
        self.base = float(base)

    @timed_select
    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        if len(view) == 0:
            return None
        g = goodness_distribution(view.mu_cost, view.sigma_cost, self.base)
        return int(rng.choice(len(view), p=g))


@register_policy("rgma")
class RGMA:
    """RandGoodness with Memory Awareness — Algorithm 2.

    Candidates whose predicted (log10) memory exceeds the limit are marked
    undesirable and removed before the goodness draw.  When *no* candidate
    satisfies the constraint the policy terminates AL early (the stopping
    condition discussed in Sec. V-D).

    Parameters
    ----------
    memory_limit_MB : float
        ``L_mem`` in raw MB; compared in log10 space against ``mu_mem``.
    base : float
        Goodness base, as in :class:`RandGoodness`.
    """

    name = "rgma"

    def __init__(self, memory_limit_MB: float, base: float = 10.0) -> None:
        if not memory_limit_MB > 0:
            raise ValueError("memory limit must be positive")
        self.memory_limit_MB = float(memory_limit_MB)
        self.base = float(base)

    @property
    def log_limit(self) -> float:
        return float(np.log10(self.memory_limit_MB))

    @timed_select
    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        if len(view) == 0:
            return None
        satisfying = np.flatnonzero(view.mu_mem < self.log_limit)
        if satisfying.size == 0:
            return None  # early termination: everything looks unsafe
        g = goodness_distribution(
            view.mu_cost[satisfying], view.sigma_cost[satisfying], self.base
        )
        return int(satisfying[rng.choice(satisfying.size, p=g)])
