"""Batch execution of AL trajectories (the paper's cross-validation).

The paper compares algorithms by running AL on many random partitions of
the dataset and reasoning about the statistics of the resulting
trajectories, parallelizing the batch with process-based workers.
:func:`run_batch` reproduces that: one trajectory per (policy, partition
seed) pair, translated into :class:`~repro.core.parallel.TrajectorySpec`
jobs and executed by :func:`repro.core.parallel.run_trajectories` —
serially (``processes=1``) or across a process pool.

Determinism: every trajectory derives its own ``Generator`` from
``(base_seed, trajectory_index)`` via ``SeedSequence.spawn``, so results
are identical whether run serially or in parallel, at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.parallel import TrajectorySpec, run_trajectories
from repro.core.trajectory import Trajectory
from repro.data.dataset import Dataset


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
