"""Tests for Algorithm 1 (the AL loop) on a small dataset."""

import numpy as np
import pytest

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.policies import MaxSigma, MinPred, RGMA, RandGoodness, RandUniform
from repro.core.stopping import UncertaintyReduction
from repro.core.trajectory import StopReason
from repro.data.dataset import Dataset


def make_learner(dataset, policy, seed=0, n_init=20, max_iterations=15, **kw):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=n_init, n_test=30)
    return ActiveLearner(
        dataset,
        part,
        policy=policy,
        rng=rng,
        config=ALConfig(max_iterations=max_iterations, **kw),
    )


class TestAlgorithm1Mechanics:
    def test_iteration_count_and_cap(self, small_dataset):
        traj = make_learner(small_dataset, RandUniform(), max_iterations=10).run()
        assert len(traj) == 10
        assert traj.stop_reason == StopReason.MAX_ITERATIONS

    def test_exhausts_active_pool(self, small_dataset):
        rng = np.random.default_rng(0)
        part = random_partition(rng, len(small_dataset), n_init=20, n_test=30, n_active=8)
        learner = ActiveLearner(small_dataset, part, RandUniform(), rng)
        traj = learner.run()
        assert len(traj) == 8
        assert traj.stop_reason == StopReason.EXHAUSTED

    def test_selected_indices_unique_and_from_active(self, small_dataset):
        rng = np.random.default_rng(1)
        part = random_partition(rng, len(small_dataset), n_init=20, n_test=30)
        learner = ActiveLearner(
            small_dataset, part, RandGoodness(), rng, config=ALConfig(max_iterations=25)
        )
        traj = learner.run()
        sel = traj.selected_indices
        assert np.unique(sel).size == sel.size
        assert set(sel).issubset(set(part.active_idx.tolist()))

    def test_records_actual_responses(self, small_dataset):
        traj = make_learner(small_dataset, RandUniform(), max_iterations=5).run()
        for r in traj.records:
            assert r.cost == small_dataset.cost[r.dataset_index]
            assert r.mem == small_dataset.mem[r.dataset_index]

    def test_cumulative_cost_consistency(self, small_dataset):
        traj = make_learner(small_dataset, RandUniform(), max_iterations=8).run()
        assert traj.cumulative_cost[-1] == pytest.approx(traj.costs.sum())
        assert np.all(np.diff(traj.cumulative_cost) > 0)

    def test_hyper_refit_interval_changes_work_not_results_shape(self, small_dataset):
        traj = make_learner(
            small_dataset, RandUniform(), max_iterations=6, hyper_refit_interval=3
        ).run()
        assert len(traj) == 6

    def test_invalid_interval(self, small_dataset):
        with pytest.raises(ValueError):
            make_learner(small_dataset, RandUniform(), hyper_refit_interval=0)


class TestModelImprovement:
    def test_rmse_improves_with_uninformed_sampling(self, small_dataset):
        """After learning most of the Active pool, cost RMSE must beat the
        n_init-only baseline for the unbiased sampler."""
        rng = np.random.default_rng(3)
        part = random_partition(rng, len(small_dataset), n_init=10, n_test=30, n_active=60)
        learner = ActiveLearner(small_dataset, part, RandUniform(), rng)
        traj = learner.run()
        assert traj.final_rmse_cost < traj.initial_rmse_cost

    def test_memory_model_also_trained(self, small_dataset):
        traj = make_learner(small_dataset, MaxSigma(), max_iterations=20, n_init=10).run()
        assert np.all(np.isfinite(traj.rmse_mem))
        assert traj.final_rmse_mem < traj.initial_rmse_mem * 2.0


class TestPolicyDrivenBehaviour:
    def test_minpred_selects_cheap(self, small_dataset):
        traj_cheap = make_learner(small_dataset, MinPred(), max_iterations=15).run()
        traj_rand = make_learner(small_dataset, RandUniform(), max_iterations=15).run()
        assert np.median(traj_cheap.costs) < np.median(traj_rand.costs)

    def test_maxsigma_spends_more_than_minpred(self, small_dataset):
        t_max = make_learner(small_dataset, MaxSigma(), max_iterations=15).run()
        t_min = make_learner(small_dataset, MinPred(), max_iterations=15).run()
        assert t_max.total_cost > t_min.total_cost

    def test_rgma_respects_limit_better_than_maxsigma(self, small_dataset):
        lmem = small_dataset.memory_limit()
        t_rgma = make_learner(
            small_dataset, RGMA(memory_limit_MB=lmem), max_iterations=25, seed=4
        ).run()
        t_max = make_learner(small_dataset, MaxSigma(), max_iterations=25, seed=4).run()
        viol_rgma = int(np.sum(t_rgma.mems >= lmem))
        viol_max = int(np.sum(t_max.mems >= lmem))
        assert viol_rgma <= viol_max

    def test_rgma_regret_recorded(self, small_dataset):
        lmem = float(np.median(small_dataset.mem))  # aggressive limit
        traj = make_learner(
            small_dataset, RGMA(memory_limit_MB=lmem), max_iterations=20
        ).run()
        # Regret matches the metric recomputed from selections.
        expect = np.cumsum(np.where(traj.mems >= lmem, traj.costs, 0.0))
        assert np.allclose(traj.cumulative_regret, expect)

    def test_rgma_early_termination(self, small_dataset):
        """With an impossible limit below every sample, RGMA stops at once."""
        tiny_limit = float(small_dataset.mem.min()) * 0.5
        traj = make_learner(
            small_dataset, RGMA(memory_limit_MB=tiny_limit), max_iterations=50, n_init=30
        ).run()
        assert traj.stop_reason == StopReason.MEMORY_CONSTRAINED
        assert len(traj) < 50

    def test_non_rgma_policies_report_zero_regret(self, small_dataset):
        traj = make_learner(small_dataset, RandUniform(), max_iterations=10).run()
        assert np.all(traj.cumulative_regret == 0.0)


class TestStoppingRules:
    def test_uncertainty_reduction_stops(self, small_dataset):
        rule = UncertaintyReduction(sigma_floor=10.0, patience=1)  # fires instantly
        traj = make_learner(
            small_dataset, RandUniform(), max_iterations=50, stopping_rule=rule
        ).run()
        assert traj.stop_reason == StopReason.STOPPING_RULE
        assert len(traj) == 0


class TestDeterminism:
    def test_same_seed_same_trajectory(self, small_dataset):
        t1 = make_learner(small_dataset, RandGoodness(), seed=9, max_iterations=10).run()
        t2 = make_learner(small_dataset, RandGoodness(), seed=9, max_iterations=10).run()
        assert np.array_equal(t1.selected_indices, t2.selected_indices)
        assert np.allclose(t1.rmse_cost, t2.rmse_cost)


class TestMemoryUnobservedRows:
    """Initial rows whose MaxRSS was never observed train the cost model only."""

    def _run(self, small_dataset, n_unobserved):
        rng = np.random.default_rng(4)
        part = random_partition(rng, len(small_dataset), n_init=6, n_test=30)
        mem = small_dataset.mem.copy()
        mem[part.init_idx[:n_unobserved]] = np.inf
        ds = Dataset(
            X=small_dataset.X,
            wall=small_dataset.wall,
            cost=small_dataset.cost,
            mem=mem,
            bounds=small_dataset.bounds,
        )
        learner = ActiveLearner(
            ds,
            part,
            policy=RandGoodness(),
            rng=rng,
            config=ALConfig(max_iterations=4, hyper_refit_interval=2),
        )
        return part, learner, learner.run()

    def test_unobserved_rows_skip_the_memory_model(self, small_dataset):
        part, learner, traj = self._run(small_dataset, n_unobserved=2)
        assert len(traj) == 4
        assert learner.gpr_cost.X_train_.shape[0] == 6 + 4
        assert learner.gpr_mem.X_train_.shape[0] == 4 + 4
        observed = learner.scaler.transform(small_dataset.X[part.init_idx[2:]])
        assert np.array_equal(learner.gpr_mem.X_train_[:4], observed)
        assert np.isfinite(traj.initial_rmse_mem)

    def test_no_observed_memory_keeps_the_prior(self, small_dataset):
        """With no MaxRSS to learn from, the memory model stays unfitted
        (NaN memory RMSE) until a pick observes one."""
        _, learner, traj = self._run(small_dataset, n_unobserved=6)
        assert np.isnan(traj.initial_rmse_mem)
        assert np.isfinite(traj.rmse_mem).all()
        assert learner.gpr_mem.X_train_.shape[0] == 4
