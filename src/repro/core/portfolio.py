"""Batch multi-fidelity acquisition: portfolios of (point, fidelity) pairs.

The paper's RGMA loop picks one full-fidelity job at a time.  This module
extends selection to *portfolios*: each acquisition round greedily picks
up to B pairs ``(candidate, fidelity)`` — maximizing predicted
information per node-hour — subject to a per-round node-hour budget
tracked by a :class:`~repro.machine.accounting.CampaignLedger`
(following Li et al., "Batch Multi-Fidelity Active Learning with Budget
Constraints", PAPERS.md).

Invariants (DESIGN.md "Batch multi-fidelity portfolios"):

- **Budget feasibility**: every pick's *predicted* cost
  ``10**mu_cost`` is charged against the round ledger at selection
  time; a pair that does not fit the ledger's remaining node-hours is
  infeasible, so the predicted cost of every emitted batch never
  exceeds the round budget.
- **Exact B=1/F=1 reduction**: with one fidelity, batch size 1, and no
  round budget, :meth:`PortfolioPolicy.select_batch` evaluates the
  identical memory mask, goodness distribution, and single
  ``rng.choice`` draw as :meth:`repro.core.policies.RGMA.select` —
  selections are bit-identical to the sequential paper policy.
- **Y-free in-batch conditioning**: between picks of one round the cost
  sigmas are deflated by the *prior* covariance each already-picked pair
  shares with the remainder (no observations are fantasized), keeping
  the greedy selection submodular-style diverse without extra rng draws
  — it therefore never perturbs the B=1 reduction.
- Scoring uses the *effective* top-fidelity sigma ``|w_f| * sigma_f``:
  the share of a fidelity-``f`` observation's uncertainty that
  propagates into the top-fidelity posterior through the co-kriging
  recursion (``w_f = prod(rho_{f+1..F-1})``, exactly 1 at ``F=1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.policies import RGMA, goodness_distribution
from repro.machine.accounting import CampaignLedger
from repro.registry import register_policy

__all__ = ["PortfolioCandidateView", "PortfolioPolicy"]


@dataclass(frozen=True)
class PortfolioCandidateView:
    """Per-fidelity model state over the remaining candidates.

    The batch analogue of :class:`~repro.core.policies.CandidateView`:
    every predictive array carries one row per fidelity (low to high).

    Attributes
    ----------
    X : ndarray, shape (m, d)
        Scaled features of the remaining candidates.
    mu_cost, sigma_cost : ndarray, shape (F, m)
        Predictive mean / std of the log10-cost stack at each fidelity.
    mu_mem : ndarray, shape (F, m)
        Predictive mean of the log10-memory stack at each fidelity.
    weights : ndarray, shape (F,)
        ``|w_f|``: how much a fidelity-``f`` observation's sigma
        propagates into the top-fidelity posterior (1.0 at the top).
    blocked : ndarray of bool, shape (F, m)
        Pairs no longer available (already observed at that fidelity).
    """

    X: np.ndarray
    mu_cost: np.ndarray
    sigma_cost: np.ndarray
    mu_mem: np.ndarray
    weights: np.ndarray
    blocked: np.ndarray

    def __post_init__(self) -> None:
        F, m = self.mu_cost.shape
        if self.X.shape[0] != m:
            raise ValueError(f"X must have {m} rows")
        for name in ("sigma_cost", "mu_mem", "blocked"):
            if getattr(self, name).shape != (F, m):
                raise ValueError(f"{name} must have shape ({F}, {m})")
        if self.weights.shape != (F,):
            raise ValueError(f"weights must have shape ({F},)")

    @property
    def num_fidelities(self) -> int:
        return int(self.mu_cost.shape[0])

    def __len__(self) -> int:
        return int(self.X.shape[0])


@register_policy("portfolio")
class PortfolioPolicy(RGMA):
    """Greedy budgeted portfolio selection over (point, fidelity) pairs.

    Subclasses :class:`RGMA`, so the sequential ``select`` surface (and
    the memory-awareness parameters) behave exactly like the paper
    policy; :meth:`select_batch` is the batch extension every
    :class:`~repro.core.loop.ActiveLearner` round drives when the policy
    offers it.
    """

    name = "portfolio"

    def select_batch(
        self,
        view: PortfolioCandidateView,
        rng: np.random.Generator,
        ledger: CampaignLedger | None = None,
        batch_size: int = 1,
        conditioner=None,
    ) -> list[tuple[int, int]]:
        """Pick up to ``batch_size`` feasible ``(position, fidelity)`` pairs.

        Feasibility of a pair: predicted memory under the limit, pair not
        blocked, point not already picked this round, and — when a round
        ``ledger`` is given — predicted cost within its remaining
        node-hours (charged per pick, so the batch's predicted total
        never exceeds the budget).  Each pick consumes exactly one
        ``rng.choice`` through the RGMA goodness path; ``conditioner``
        (if given) deflates the remaining sigmas between picks.
        """
        with obs.timed("select", cat="al", policy=self.name):
            F, m = view.mu_cost.shape
            if m == 0:
                return []
            sigma = view.sigma_cost
            blocked = view.blocked.copy()
            mem_ok = view.mu_mem < self.log_limit
            mu_flat = view.mu_cost.reshape(-1)
            picks: list[tuple[int, int]] = []
            for b in range(batch_size):
                feasible = mem_ok & ~blocked
                if ledger is not None:
                    pred_cost = np.power(10.0, view.mu_cost)
                    feasible = feasible & (
                        pred_cost <= ledger.remaining_node_hours
                    )
                satisfying = np.flatnonzero(feasible.reshape(-1))
                if satisfying.size == 0:
                    break
                sigma_eff = (view.weights[:, None] * sigma).reshape(-1)
                g = goodness_distribution(
                    mu_flat[satisfying], sigma_eff[satisfying], self.base
                )
                j = int(satisfying[rng.choice(satisfying.size, p=g)])
                fid, pos = divmod(j, m)
                picks.append((pos, fid))
                # One observation per design point per round: picking the
                # same point twice in a batch would double-count its
                # (unconditioned) information.
                blocked[:, pos] = True
                if ledger is not None:
                    ledger.charge(float(10.0 ** view.mu_cost[fid, pos]))
                if b + 1 < batch_size and conditioner is not None:
                    sigma = conditioner(np.array(sigma, copy=True), pos, fid)
            return picks
