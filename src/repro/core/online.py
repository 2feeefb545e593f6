"""Online Active Learning: decide, *run*, then learn — no precomputed pool.

The paper's analysis framework "runs in an 'offline' mode, consulting a
database of precomputed performance samples ... In contrast, an 'online'
AL system makes decisions about what experiment to run next" and then
actually runs it.  This module implements that mode against the simulated
machine: the candidate pool is the full parameter grid (e.g. all 1920
Table I combinations), each selected configuration is executed by the
:class:`~repro.machine.runner.JobRunner`, and the measured cost/memory
feed the models.

:class:`OnlineActiveLearner` is an :class:`~repro.core.loop.ActiveLearner`
whose picks execute: it overrides the one experiment method
(``_acquire``) and lays out the learner's dataset, so the loop's fits,
candidate view, test RMSE, stop rules, spans and checkpointable state
apply unchanged.  The layout and how it differs from an offline run:

- the pool rows are the grid configurations, whose responses are unknown
  (NaN) until a pick runs; repeats are allowed only if ``allow_repeats``
  is set (machine noise makes them informative), which puts each
  executed row back in the pool;
- the Initial rows are the random runs executed before AL starts;
- the Test rows are noise-free machine-model copies of a held-out subset
  of the grid (something a real experimenter cannot do; it is reported
  for evaluation, exactly like the paper's simulator).  As copies they
  keep the partition disjoint while their configurations stay selectable;
- an out-of-memory run is a censored pick: its cost is charged and
  learned, its MaxRSS is recorded as ``inf`` and never reaches the memory
  model, and its cost is charged as regret against the execution limit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import Partition
from repro.core.policies import RGMA, SelectionPolicy
from repro.core.trajectory import StopReason, Trajectory
from repro.data.dataset import Dataset
from repro.data.space import ParameterSpace, TABLE1_SPACE
from repro.faults.acquisition import AcquisitionOutcome
from repro.machine.accounting import JobRecord
from repro.machine.runner import JobConfig, JobRunner


@dataclass(frozen=True)
class OnlineResult:
    """Trajectory plus the online-specific bookkeeping."""

    trajectory: Trajectory
    executed: tuple[JobConfig, ...]
    failed_configs: tuple[JobConfig, ...]
    total_node_hours: float


class OnlineActiveLearner(ActiveLearner):
    """AL driving real (simulated-machine) job executions.

    The constructor runs the initial phase; :meth:`run` (or the inherited
    :meth:`step`) runs the AL phase.

    Parameters
    ----------
    runner : JobRunner
        Executes selected configurations.
    policy : SelectionPolicy
        Any of the Sec. IV-B policies.
    rng : numpy.random.Generator
    space : ParameterSpace
        Candidate grid (default: the Table I space).
    n_init : int
        Random configurations run before AL starts (the paper's Initial
        phase; with ``n_init=1`` this is the "first run on a new platform"
        scenario).
    n_eval : int
        Held-out grid points used for ground-truth RMSE tracking.
    memory_limit_MB : float, optional
        Enforced at *execution*: selections whose measured memory reaches
        the limit crash (cost spent, memory unobserved).  Defaults to the
        RGMA policy's limit when one is used.
    max_runs : int
        Experiment budget (AL iterations after the initial phase).
    """

    def __init__(
        self,
        runner: JobRunner,
        policy: SelectionPolicy,
        rng: np.random.Generator,
        space: ParameterSpace = TABLE1_SPACE,
        n_init: int = 5,
        n_eval: int = 100,
        memory_limit_MB: float | None = None,
        max_runs: int = 50,
        hyper_refit_interval: int = 1,
        allow_repeats: bool = False,
    ) -> None:
        if n_init < 1 or max_runs < 1 or n_eval < 1:
            raise ValueError("n_init, n_eval and max_runs must be >= 1")
        if memory_limit_MB is None and isinstance(policy, RGMA):
            memory_limit_MB = policy.memory_limit_MB
        self.runner = runner
        self.allow_repeats = allow_repeats
        self.memory_limit_MB = memory_limit_MB
        self.grid = space.grid()
        n = len(self.grid)
        eval_idx = rng.choice(n, size=min(n_eval, n), replace=False)
        init_idx = rng.choice(n, size=n_init, replace=False)
        #: (grid index, record) of every executed job, in execution order.
        self._runs: list[tuple[int, JobRecord]] = []
        initial = [self._execute(int(i), rng) for i in init_idx]
        measured = [
            (r.wall_seconds, r.cost_node_hours, np.inf if r.failed else r.max_rss_MB)
            for r in initial
        ]
        truth = [runner.price(self.grid[i]) for i in eval_idx]
        responses = np.array([(np.nan,) * 3] * n + measured + truth)
        features = np.array([c.as_features() for c in self.grid])
        pool = np.arange(n) if allow_repeats else np.setdiff1d(np.arange(n), init_idx)
        super().__init__(
            Dataset(
                X=features[np.concatenate([np.arange(n), init_idx, eval_idx])],
                wall=responses[:, 0],
                cost=responses[:, 1],
                mem=responses[:, 2],
                bounds=space.bounds(),
            ),
            Partition(
                init_idx=np.arange(n, n + n_init),
                active_idx=pool,
                test_idx=np.arange(n + n_init, n + n_init + len(eval_idx)),
            ),
            policy=policy,
            rng=rng,
            config=ALConfig(
                max_iterations=max_runs, hyper_refit_interval=hyper_refit_interval
            ),
        )

    def _execute(self, grid_index: int, rng: np.random.Generator) -> JobRecord:
        record = self.runner.run(
            self.grid[grid_index],
            rng,
            job_id=len(self._runs),
            memory_limit_MB=self.memory_limit_MB,
        )
        self._runs.append((grid_index, record))
        return record

    def _acquire(
        self, ds_index: int, fid: int, top: bool
    ) -> tuple[float, float, AcquisitionOutcome]:
        record = self._execute(ds_index, self.rng)
        if self.allow_repeats:
            # The configuration stays selectable: back into the pool, in grid
            # order, and the candidate caches rebuild for the restored row.
            bisect.insort(self._remaining, ds_index)
            self._cache_cost.invalidate()
            self._cache_mem.invalidate()
        if record.failed:  # out of memory: cost spent, MaxRSS unobserved
            return record.cost_node_hours, np.inf, AcquisitionOutcome.CENSORED
        return record.cost_node_hours, record.max_rss_MB, AcquisitionOutcome.OK

    def start(self) -> None:
        super().start()
        # Regret is charged against the limit the jobs run under.
        self._memory_limit = self.memory_limit_MB

    def finalize(self, stop: StopReason | None = None) -> Trajectory:
        trajectory = super().finalize(stop)
        return replace(trajectory, policy_name=f"online_{trajectory.policy_name}")

    def run(self) -> OnlineResult:
        """AL-driven execution until the budget ends."""
        trajectory = super().run()
        total = 0.0
        for _, record in self._runs:  # in execution order, initial runs first
            total += record.cost_node_hours
        return OnlineResult(
            trajectory=trajectory,
            executed=tuple(self.grid[i] for i, _ in self._runs),
            failed_configs=tuple(self.grid[i] for i, r in self._runs if r.failed),
            total_node_hours=total,
        )
