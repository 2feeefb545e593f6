"""Teacher-replay data generation for the amortized policy.

The training signal is *imitation*: run real RGMA campaigns through the
campaign service (the exact production scheduler — same seed tree, same
slicing, same checkpoint path) with a policy wrapper that records, at
every selection, the amortized feature matrix over the candidate pool and
the index RGMA chose.  The resulting :class:`~repro.policy.scorer
.DecisionLog` is what ``python -m repro.policy train`` consumes.

Provenance is part of the artifact: the log's ``meta`` carries the
teacher name, campaign count/seeds, partition sizes, iteration budget,
and the dataset fingerprint, and the trainer copies it into the scorer's
metadata — so any served policy file can be traced back to the exact
simulation that produced it (the DESIGN.md training-data-provenance
invariant).

This module imports :mod:`repro.core.service`; the ``repro.policy``
package ``__init__`` deliberately does not re-export it, so serving-only
consumers never pay the service import.
"""

from __future__ import annotations

import functools
import tempfile

import numpy as np

from repro.core.config import ALConfig
from repro.core.policies import RGMA, CandidateView
from repro.core.service import (
    CampaignService,
    CampaignSpec,
    dataset_fingerprint,
    loads_campaign,
)
from repro.data.dataset import Dataset
from repro.policy.features import FeatureExtractor, PolicyContext
from repro.policy.scorer import DecisionLog

__all__ = ["RecordingRGMA", "generate_decisions"]


class RecordingRGMA:
    """RGMA that also logs (feature matrix, chosen position) per selection.

    Selection is *delegated* to a real :class:`~repro.core.policies.RGMA`
    — same constraint filter, same goodness draw, same single
    ``rng.choice`` — so a recorded campaign is bit-identical to one run
    under plain RGMA; the wrapper only adds a parallel
    :class:`~repro.policy.features.FeatureExtractor` whose hooks keep the
    recorded features aligned with the pool the teacher saw.  Decisions
    accumulate on the instance, which rides the campaign checkpoint
    pickle, so they survive slicing, kills, and resumes like every other
    piece of loop state.
    """

    name = "rgma"

    def __init__(self, memory_limit_MB: float, base: float = 10.0) -> None:
        self._inner = RGMA(memory_limit_MB=memory_limit_MB, base=base)
        self.decisions: list[tuple[np.ndarray, int]] = []
        self._extractor: FeatureExtractor | None = None

    @property
    def memory_limit_MB(self) -> float:
        return self._inner.memory_limit_MB

    # Hooks the learner feeds any policy that exposes them.
    def prepare(self, ctx: PolicyContext) -> None:
        self._extractor = FeatureExtractor(ctx)

    def observe_acquire(self, pos: int, u_new, **kw) -> None:
        self._extractor.observe_acquire(pos, u_new, **kw)

    def observe_drop(self, pos: int, cost: float = 0.0) -> None:
        self._extractor.observe_drop(pos, cost=cost)

    def select(self, view: CandidateView, rng: np.random.Generator) -> int | None:
        pos = self._inner.select(view, rng)
        if pos is not None and self._extractor is not None:
            self.decisions.append((self._extractor.features(), int(pos)))
        return pos


def generate_decisions(
    dataset: Dataset,
    n_campaigns: int = 4,
    base_seed: int = 2024,
    n_init: int = 30,
    n_test: int = 60,
    iterations: int = 40,
    steps_per_slice: int = 8,
    memory_limit_MB: float | None = None,
) -> DecisionLog:
    """Replay RGMA campaigns through the service; return the decision log.

    Each campaign sits at its own seed-tree position (``base_seed``,
    ``traj_index=i``) — the same tree :func:`~repro.core.batch
    .run_trajectories` and production campaigns use — so the teacher's
    decisions are drawn from the exact distribution the served policy
    will face.
    """
    if memory_limit_MB is None:
        memory_limit_MB = dataset.memory_limit()
    cfg = ALConfig(max_iterations=iterations)
    specs = [
        CampaignSpec(
            campaign_id=f"sim-{i}",
            policy_factory=functools.partial(
                RecordingRGMA, memory_limit_MB=memory_limit_MB
            ),
            base_seed=base_seed,
            traj_index=i,
            n_init=n_init,
            n_test=n_test,
            config=cfg,
        )
        for i in range(n_campaigns)
    ]
    decisions: list[tuple[np.ndarray, int]] = []
    # The decisions ride the learner, and only a service with a store
    # keeps a finished campaign's learner: checkpoint to a scratch store.
    with tempfile.TemporaryDirectory(prefix="repro-simulate-") as root:
        svc = CampaignService(dataset, store=root, steps_per_slice=steps_per_slice)
        for spec in specs:
            svc.submit(spec)
        svc.run()
        for spec in specs:
            blob = svc.store.load(spec.campaign_id)["blob"]
            decisions.extend(loads_campaign(blob, dataset).policy.decisions)
    return DecisionLog.from_decisions(
        decisions,
        meta={
            "teacher": "rgma",
            "campaigns": n_campaigns,
            "base_seed": base_seed,
            "n_init": n_init,
            "n_test": n_test,
            "iterations": iterations,
            "memory_limit_MB": float(memory_limit_MB),
            "dataset_fingerprint": dataset_fingerprint(dataset),
        },
    )
