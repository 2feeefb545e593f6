"""Batch execution of AL trajectories (the paper's cross-validation).

The paper compares algorithms by running AL on many random partitions of
the dataset and reasoning about the statistics of the resulting
trajectories, parallelizing the batch with process-based workers.
:func:`run_batch` reproduces that: one trajectory per (policy, partition
seed) pair, translated into :class:`TrajectorySpec` jobs and executed by
:func:`run_trajectories` — serially (``processes=1``) or across worker
processes.

:func:`run_trajectories` runs on the campaign service
(:class:`~repro.core.service.CampaignService`): each spec is a campaign
that runs to its end in one slice, on a service with no checkpoint store
and no chaos.  So a batch has the service's worker runtime — one way to
ship the dataset, one failure-isolation rule, one observability merge.

Determinism: every spec derives its own ``Generator`` from
``SeedSequence(entropy=base_seed, spawn_key=(traj_index,))`` (through
:func:`~repro.core.service.build_learner`), so results are identical
serial or parallel, at any worker count, and specs with the same
``(base_seed, traj_index)`` share a partition (paired comparisons across
policies).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.config import ALConfig
from repro.core.service import CampaignService, CampaignSpec, TrajectoryFailure
from repro.core.trajectory import Trajectory
from repro.data.dataset import Dataset


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent AL run: a policy factory plus its seed-tree position.

    Attributes
    ----------
    name : str
        Display name the result is reported under.
    policy_factory : callable
        Zero-argument factory for a fresh policy instance.  Must be
        picklable for parallel execution — a policy class or a
        ``functools.partial``, not a lambda.
    base_seed, traj_index : int
        Position in the seed tree; specs sharing both get the same
        partition and RNG stream.
    n_init, n_test : int
        Partition sizes.
    max_iterations, hyper_refit_interval, n_restarts :
        The run's :class:`~repro.core.config.ALConfig` fields.
    learner_kwargs : dict
        Any further :class:`~repro.core.config.ALConfig` fields (e.g.
        ``stopping_rule``, ``cache_candidates``).
    """

    name: str
    policy_factory: Callable[[], object]
    base_seed: int = 0
    traj_index: int = 0
    n_init: int = 50
    n_test: int = 200
    max_iterations: int | None = None
    hyper_refit_interval: int = 1
    n_restarts: int = 2
    learner_kwargs: dict = field(default_factory=dict)

    @property
    def config(self) -> ALConfig:
        """The run's :class:`~repro.core.config.ALConfig`."""
        return ALConfig(
            n_restarts=self.n_restarts,
            hyper_refit_interval=self.hyper_refit_interval,
            max_iterations=self.max_iterations,
            **self.learner_kwargs,
        )


def default_workers(n_jobs: int) -> int:
    """Worker count capped by the job count and the machine's cores."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


def run_trajectories(
    dataset: Dataset,
    specs: Iterable[TrajectorySpec],
    max_workers: int | None = None,
    on_error: str = "raise",
) -> list[tuple[str, Trajectory | TrajectoryFailure]]:
    """Run every spec; return ``(name, trajectory)`` pairs in spec order.

    ``max_workers=None`` picks :func:`default_workers`; ``1`` runs
    serially in-process (no workers, easiest to debug/profile); larger
    values run on ``min(max_workers, len(specs))`` worker processes.
    Results are independent of the worker count by construction.

    Spec ``i`` is campaign ``i`` of a fresh service, so what it recorded
    (metrics, and spans when tracing) merges home on trace lane ``i + 1``
    under its ``campaign_slice`` span, serial runs included.

    Failure handling (``on_error``):

    - ``"raise"`` (default) — after *every* spec has finished, raise a
      ``RuntimeError`` naming each failed trajectory with its worker-side
      traceback.
    - ``"return"`` — substitute a :class:`TrajectoryFailure` for each
      failed trajectory and return the full, spec-ordered list.  Callers
      filter with ``isinstance(t, Trajectory)``.

    A trajectory that raises fails at once; one whose worker dies is
    re-run by the service's retry rule and fails once that gives up.
    Either way, every other trajectory's result is unaffected.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'")
    spec_list = list(specs)
    if max_workers is None:
        max_workers = default_workers(len(spec_list))
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")

    campaigns = [
        CampaignSpec(
            campaign_id=str(i),
            policy_factory=spec.policy_factory,
            base_seed=spec.base_seed,
            traj_index=spec.traj_index,
            n_init=spec.n_init,
            n_test=spec.n_test,
            config=spec.config,
        )
        for i, spec in enumerate(spec_list)
    ]
    # One slice runs a whole trajectory: a step that does not end the
    # run takes at least one (candidate, fidelity) pair out of the pool.
    fidelities = max((c.config.num_fidelities for c in campaigns), default=1)
    with CampaignService(
        dataset,
        workers=0 if max_workers == 1 else min(max_workers, len(spec_list)),
        steps_per_slice=len(dataset) * fidelities + 1,
    ) as service:
        for campaign in campaigns:
            service.submit(campaign)
        service.run()
        outcomes = [service.result(c.campaign_id) for c in campaigns]

    results = []
    for spec, outcome in zip(spec_list, outcomes):
        if isinstance(outcome, TrajectoryFailure):
            outcome = dataclasses.replace(outcome, name=spec.name)
        results.append((spec.name, outcome))
    failures = [t for _, t in results if isinstance(t, TrajectoryFailure)]
    if failures and on_error == "raise":
        detail = "\n".join(
            f"- {f.name}: {f.error}\n{f.traceback}".rstrip() for f in failures
        )
        raise RuntimeError(
            f"{len(failures)}/{len(spec_list)} trajectories failed:\n{detail}"
        )
    return results


@dataclass(frozen=True)
class BatchConfig:
    """Specification of a trajectory batch.

    Attributes
    ----------
    n_trajectories : int
        Random partitions per policy.
    n_init, n_test : int
        Partition sizes (paper: n_init in {1, 50, 100}, n_test = 200).
    max_iterations : int, optional
        Iteration cap per trajectory (None runs the Active pool dry).
    hyper_refit_interval : int
        Passed through to :class:`ActiveLearner`.
    n_restarts : int
        LML restarts for the initial fits.
    base_seed : int
        Root of the per-trajectory seed tree.
    processes : int
        Worker processes; 1 means serial in-process execution.
    """

    n_trajectories: int = 5
    n_init: int = 50
    n_test: int = 200
    max_iterations: int | None = None
    hyper_refit_interval: int = 1
    n_restarts: int = 2
    base_seed: int = 0
    processes: int = 1

    def __post_init__(self) -> None:
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")


@dataclass
class BatchResult:
    """Trajectories grouped by policy name."""

    trajectories: dict[str, list[Trajectory]] = field(default_factory=dict)

    def policies(self) -> list[str]:
        return sorted(self.trajectories)

    def __getitem__(self, policy_name: str) -> list[Trajectory]:
        return self.trajectories[policy_name]


def run_batch(
    dataset: Dataset,
    policy_factories: dict[str, Callable[[], object]],
    config: BatchConfig = BatchConfig(),
) -> BatchResult:
    """Run ``n_trajectories`` AL runs per policy.

    Parameters
    ----------
    policy_factories : dict
        Maps a display name to a zero-argument factory producing a fresh
        policy instance (policies may be stateful).  Factories must be
        picklable (a class or ``functools.partial``) when
        ``config.processes > 1``.

    Notes
    -----
    Trajectory ``i`` of *every* policy shares the same partition (same
    spawn key), giving a paired comparison across policies — differences in
    outcomes come from the algorithms, not from partition luck.
    """
    specs = [
        TrajectorySpec(
            name=name,
            policy_factory=factory,
            base_seed=config.base_seed,
            traj_index=i,
            n_init=config.n_init,
            n_test=config.n_test,
            max_iterations=config.max_iterations,
            hyper_refit_interval=config.hyper_refit_interval,
            n_restarts=config.n_restarts,
        )
        for i in range(config.n_trajectories)
        for name, factory in policy_factories.items()
    ]
    result = BatchResult({name: [] for name in policy_factories})
    for name, traj in run_trajectories(dataset, specs, max_workers=config.processes):
        result.trajectories[name].append(traj)
    return result
