"""Cost- and memory-aware Active Learning (the paper's contribution).

Implements Algorithm 1 (the AL loop over an offline dataset, one
acquisition round per step — sequential or budgeted batch multi-fidelity),
the five candidate-selection policies of Sec. IV-B — RandUniform,
MaxSigma, MinPred, RandGoodness, and RGMA (Algorithm 2) — plus the
portfolio policy, and the evaluation metrics of Sec. V-B: test-set RMSE in
non-log space, cumulative cost, and cumulative regret under a memory limit.

Typical use::

    from repro.core import ActiveLearner, ALConfig, RGMA, random_partition
    from repro.data import run_campaign

    ds = run_campaign(rng).dataset
    part = random_partition(rng, len(ds), n_init=50, n_test=200)
    learner = ActiveLearner(
        ds, part, policy=RGMA(memory_limit_MB=ds.memory_limit()), rng=rng,
        config=ALConfig(max_iterations=150),
    )
    trajectory = learner.run()
"""

from repro.core.preprocessing import (
    DesignTransform,
    FeatureScaler,
    log10_response,
    unlog10_response,
)
from repro.core.partitions import Partition, random_partition
from repro.core.policies import (
    CandidateView,
    SelectionPolicy,
    RandUniform,
    MaxSigma,
    MinPred,
    RandGoodness,
    RGMA,
)
from repro.core.metrics import (
    rmse_nonlog,
    cumulative_cost,
    cumulative_regret,
    individual_regrets,
)
from repro.core.trajectory import IterationRecord, Trajectory, StopReason
from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner, CandidateCovarianceCache
from repro.core.batch import (
    BatchConfig,
    BatchResult,
    TrajectorySpec,
    run_batch,
    run_trajectories,
)
from repro.core.service import (
    CampaignInfo,
    CampaignQueue,
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ChaosConfig,
    CheckpointStore,
    ServiceError,
    ServiceReport,
    TrajectoryFailure,
    build_learner,
    dataset_fingerprint,
    dumps_campaign,
    loads_campaign,
)
from repro.core.portfolio import PortfolioCandidateView, PortfolioPolicy
from repro.core.online import OnlineActiveLearner, OnlineResult
from repro.core.advisor import ConfigurationAdvisor, Recommendation
from repro.core.stopping import (
    StoppingRule,
    NoEarlyStopping,
    StabilizingPredictions,
    UncertaintyReduction,
)

__all__ = [
    "ALConfig",
    "DesignTransform",
    "FeatureScaler",
    "log10_response",
    "unlog10_response",
    "Partition",
    "random_partition",
    "CandidateView",
    "SelectionPolicy",
    "RandUniform",
    "MaxSigma",
    "MinPred",
    "RandGoodness",
    "RGMA",
    "rmse_nonlog",
    "cumulative_cost",
    "cumulative_regret",
    "individual_regrets",
    "IterationRecord",
    "Trajectory",
    "StopReason",
    "ActiveLearner",
    "CandidateCovarianceCache",
    "TrajectoryFailure",
    "TrajectorySpec",
    "run_trajectories",
    "CampaignInfo",
    "CampaignQueue",
    "CampaignService",
    "CampaignSpec",
    "CampaignStatus",
    "ChaosConfig",
    "CheckpointStore",
    "ServiceError",
    "ServiceReport",
    "build_learner",
    "dataset_fingerprint",
    "dumps_campaign",
    "loads_campaign",
    "PortfolioCandidateView",
    "PortfolioPolicy",
    "BatchConfig",
    "OnlineActiveLearner",
    "OnlineResult",
    "ConfigurationAdvisor",
    "Recommendation",
    "BatchResult",
    "run_batch",
    "StoppingRule",
    "NoEarlyStopping",
    "StabilizingPredictions",
    "UncertaintyReduction",
]
