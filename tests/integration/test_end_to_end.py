"""End-to-end integration: campaign -> AL -> analysis, across subsystems."""

import numpy as np
import pytest

from repro.analysis import tradeoff_curve, violin_stats
from repro.core import (
    ActiveLearner,
    ALConfig,
    BatchConfig,
    MaxSigma,
    MinPred,
    RGMA,
    RandGoodness,
    RandUniform,
    random_partition,
    run_batch,
)
from repro.core.trajectory import StopReason
from repro.data import run_campaign, CampaignConfig


class TestFullPipeline:
    """The paper's entire workflow on a reduced dataset."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        rng = np.random.default_rng(99)
        ds = run_campaign(rng, config=CampaignConfig(num_unique=120, num_repeats=20)).dataset
        lmem = ds.memory_limit()
        factories = {
            "rand_uniform": RandUniform,
            "min_pred": MinPred,
            "rand_goodness": RandGoodness,
            "rgma": lambda: RGMA(memory_limit_MB=lmem),
        }
        batch = run_batch(
            ds,
            factories,
            BatchConfig(n_trajectories=2, n_init=15, n_test=40, max_iterations=20, base_seed=1),
        )
        return ds, lmem, batch

    def test_all_policies_completed(self, pipeline):
        _, _, batch = pipeline
        for name in ("rand_uniform", "min_pred", "rand_goodness", "rgma"):
            assert len(batch[name]) == 2
            for t in batch[name]:
                assert len(t) > 0

    def test_cost_bias_ordering(self, pipeline):
        """Fig. 2's headline: the cost-aware samplers select cheaper
        experiments than the unbiased ones."""
        _, _, batch = pipeline
        med = lambda name: np.median(np.concatenate([t.costs for t in batch[name]]))
        assert med("min_pred") < med("rand_uniform")
        assert med("rand_goodness") < med("rand_uniform")

    def test_rgma_zero_or_low_regret(self, pipeline):
        _, lmem, batch = pipeline
        for t in batch["rgma"]:
            viol = np.sum(t.mems >= lmem)
            assert viol <= 1  # may err once while the memory model is raw

    def test_analysis_runs_on_real_trajectories(self, pipeline):
        _, _, batch = pipeline
        stats = violin_stats("rgma", np.concatenate([t.costs for t in batch["rgma"]]))
        assert stats.n > 0
        curve = tradeoff_curve("u", batch["rand_uniform"])
        assert np.isfinite(curve.rmse_median).any()


class TestReproducibility:
    def test_identical_end_to_end_given_seed(self):
        def once():
            rng = np.random.default_rng(5)
            ds = run_campaign(rng, config=CampaignConfig(num_unique=60, num_repeats=10)).dataset
            part = random_partition(rng, len(ds), n_init=10, n_test=20)
            learner = ActiveLearner(
                ds, part, RandGoodness(), rng, config=ALConfig(max_iterations=8)
            )
            return learner.run()

        t1, t2 = once(), once()
        assert np.array_equal(t1.selected_indices, t2.selected_indices)
        assert np.allclose(t1.rmse_cost, t2.rmse_cost)
        assert t1.stop_reason == t2.stop_reason


class TestPaperScaleSmoke:
    """One shortened run at the paper's real dataset scale."""

    def test_600_jobs_n_init_50(self, campaign_dataset):
        rng = np.random.default_rng(0)
        part = random_partition(rng, len(campaign_dataset), n_init=50, n_test=200)
        assert part.n_active == 350
        learner = ActiveLearner(
            campaign_dataset, part, MaxSigma(), rng, config=ALConfig(max_iterations=10)
        )
        traj = learner.run()
        assert len(traj) == 10
        assert traj.stop_reason == StopReason.MAX_ITERATIONS
        assert np.isfinite(traj.final_rmse_cost)
