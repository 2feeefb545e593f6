"""repro — cost- and memory-aware Active Learning for AMR performance modeling.

A from-scratch reproduction of *"Evaluating Active Learning with Cost and
Memory Awareness"* (Duplyakin, Brown & Calhoun, 2018): Gaussian-process
surrogate models of the cost and memory of Adaptive Mesh Refinement
simulations, driven by sequential experiment selection that balances
exploration against node-hour cost and avoids configurations that would
exceed a memory limit.

Layering (bottom up):

- :mod:`repro.mesh` — forest-of-quadtrees grid management (p4est analogue).
- :mod:`repro.solver` — finite-volume Euler solver (Clawpack analogue).
- :mod:`repro.amr` — patch-based AMR driver (ForestClaw analogue).
- :mod:`repro.machine` — simulated Edison supercomputer + SLURM accounting.
- :mod:`repro.faults` — fault injection (crash/OOM/timeout/straggler/
  MaxRSS-lost) and resilient, retrying execution.
- :mod:`repro.data` — the 1920-point input space and 600-job dataset.
- :mod:`repro.gp` — Gaussian Process Regression with LML-fitted kernels.
- :mod:`repro.core` — the AL loop, the five selection policies, metrics.
- :mod:`repro.analysis` — trajectory aggregation and figure/table output.

Quickstart::

    import numpy as np
    from repro import run_campaign, random_partition, ActiveLearner, RGMA

    rng = np.random.default_rng(0)
    ds = run_campaign(rng).dataset
    part = random_partition(rng, len(ds), n_init=50, n_test=200)
    policy = RGMA(memory_limit_MB=ds.memory_limit())
    trajectory = ActiveLearner(ds, part, policy, rng).run()
    print(trajectory.final_rmse_cost, trajectory.total_regret)
"""

from repro import obs
from repro.core import (
    ALConfig,
    ActiveLearner,
    BatchConfig,
    BatchResult,
    MaxSigma,
    MinPred,
    Partition,
    RGMA,
    RandGoodness,
    RandUniform,
    Trajectory,
    TrajectorySpec,
    random_partition,
    run_batch,
    run_trajectories,
)
from repro.data import (
    Dataset,
    ParameterSpace,
    TABLE1_SPACE,
    run_campaign,
)
from repro.faults import (
    AcquisitionFaultModel,
    FailurePolicy,
    FaultConfig,
    FaultEvent,
    FaultKind,
    ResilientJobRunner,
    RetryPolicy,
)
from repro.gp import GPRegressor, default_kernel
from repro.machine import EDISON, JobConfig, JobRunner

__version__ = "1.0.0"

__all__ = [
    "ALConfig",
    "ActiveLearner",
    "BatchConfig",
    "BatchResult",
    "MaxSigma",
    "MinPred",
    "Partition",
    "RGMA",
    "RandGoodness",
    "RandUniform",
    "Trajectory",
    "TrajectorySpec",
    "random_partition",
    "run_batch",
    "run_trajectories",
    "obs",
    "Dataset",
    "ParameterSpace",
    "TABLE1_SPACE",
    "run_campaign",
    "AcquisitionFaultModel",
    "FailurePolicy",
    "FaultConfig",
    "FaultEvent",
    "FaultKind",
    "ResilientJobRunner",
    "RetryPolicy",
    "GPRegressor",
    "default_kernel",
    "EDISON",
    "JobConfig",
    "JobRunner",
    "__version__",
]
