"""Tests for ActiveLearner's failure-aware acquisition path.

Covers the three on_failure policies (drop / next_best / impute), the
censoring split between the cost and memory models, the cached-candidate
path under faults, and the bit-identity contract when faults are off.
"""

import numpy as np
import pytest

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.policies import MinPred, RandUniform
from repro.faults import AcquisitionFaultModel, FailurePolicy
from tests.core.test_candidate_cache import straight_line_scoring


def _learner(dataset, seed=11, policy=None, **kw):
    rng = np.random.default_rng(seed)
    partition = random_partition(rng, len(dataset), n_init=15, n_test=20)
    kw.setdefault("max_iterations", 4)
    kw.setdefault("hyper_refit_interval", 2)
    return ActiveLearner(
        dataset,
        partition,
        policy=policy if policy is not None else RandUniform(),
        rng=rng,
        config=ALConfig(**kw),
    )


class TestBitIdentityWhenOff:
    def test_none_and_disabled_model_are_identical(self, small_dataset):
        """faults=None, a disabled model, and any on_failure string must
        all produce the same trajectory bit for bit."""
        runs = [
            _learner(small_dataset).run(),
            _learner(small_dataset, acquisition_faults=AcquisitionFaultModel()).run(),
            _learner(small_dataset, acquisition_faults=None, on_failure="drop").run(),
        ]
        ref = runs[0]
        for traj in runs[1:]:
            assert np.array_equal(ref.selected_indices, traj.selected_indices)
            assert np.array_equal(ref.rmse_cost, traj.rmse_cost)
            assert np.array_equal(ref.rmse_mem, traj.rmse_mem)
            assert traj.fault_events == ()

    def test_on_failure_string_normalized(self, small_dataset):
        learner = _learner(small_dataset, on_failure="impute")
        assert learner.config.on_failure is FailurePolicy.IMPUTE
        with pytest.raises(ValueError):
            _learner(small_dataset, on_failure="retry_forever")


class TestDropPolicy:
    def test_certain_crash_consumes_iterations_without_learning(self, small_dataset):
        learner = _learner(
            small_dataset,
            acquisition_faults=AcquisitionFaultModel(crash_probability=1.0),
            on_failure="drop",
            max_iterations=3,
        )
        pool_before = len(learner._remaining)
        traj = learner.run()
        # Three iterations, three failures, nothing learned.
        assert len(traj) == 3
        assert all(r.failed for r in traj.records)
        assert [r.iteration for r in traj.records] == [0, 1, 2]
        assert learner._learned == [] and learner._learned_mem == []
        assert len(learner._remaining) == pool_before - 3
        # Models still sit on the Initial partition alone.
        assert learner.gpr_cost.X_train_.shape[0] == learner.partition.n_init
        # RMSE curve is flat at the initial value (nothing retrained).
        assert np.all(traj.rmse_cost == traj.initial_rmse_cost)
        assert traj.num_failed_acquisitions == 3
        assert len(traj.fault_events) == 3
        # Cost is still charged for the crashed runs.
        assert traj.total_cost > 0.0


class TestNextBestPolicy:
    def test_replacement_shares_the_iteration(self, small_dataset):
        learner = _learner(
            small_dataset,
            seed=23,
            acquisition_faults=AcquisitionFaultModel(crash_probability=0.5),
            on_failure="next_best",
            max_iterations=5,
        )
        traj = learner.run()
        good = [r for r in traj.records if not r.failed]
        bad = [r for r in traj.records if r.failed]
        assert len(good) == 5  # failures never consume an iteration
        assert traj.num_failed_acquisitions == len(bad)
        assert bad, "seed 23 at p=0.5 should produce at least one crash"
        # Every failed record is followed by a record at the same iteration
        # (its replacement, or another failure that was itself replaced).
        for r in bad:
            sharers = [
                s for s in traj.records if s.iteration == r.iteration and s is not r
            ]
            assert sharers
        # Successful iterations are exactly 0..4, each learned once.
        assert sorted(r.iteration for r in good) == [0, 1, 2, 3, 4]
        assert len(learner._learned) == 5

    def test_pool_exhaustion_terminates(self, small_dataset):
        """With every acquisition crashing, next_best burns the whole pool
        and the loop must still terminate (EXHAUSTED, all failed)."""
        learner = _learner(
            small_dataset,
            acquisition_faults=AcquisitionFaultModel(crash_probability=1.0),
            on_failure="next_best",
            max_iterations=3,
        )
        pool = len(learner._remaining)
        traj = learner.run()
        assert len(traj.records) == pool
        assert all(r.failed for r in traj.records)
        assert learner._remaining == []


class TestCensoring:
    def test_censored_acquisitions_skip_the_memory_model(self, small_dataset):
        learner = _learner(
            small_dataset,
            acquisition_faults=AcquisitionFaultModel(censor_probability=1.0),
            on_failure="next_best",
            max_iterations=4,
        )
        traj = learner.run()
        assert all(r.censored for r in traj.records)
        assert traj.num_censored_acquisitions == 4
        # Cost model learned all four, memory model none of them.
        assert len(learner._learned) == 4
        assert len(learner._learned_mem) == 0
        assert learner.gpr_cost.X_train_.shape[0] == learner.partition.n_init + 4
        assert learner.gpr_mem.X_train_.shape[0] == learner.partition.n_init
        # Cost targets are the true observations (cost was measured).
        for i, ds_index in enumerate(learner._learned):
            assert learner._targets_cost[i] == float(learner._log_cost[ds_index])

    def test_impute_feeds_memory_model_posterior_mean(self, small_dataset):
        learner = _learner(
            small_dataset,
            acquisition_faults=AcquisitionFaultModel(censor_probability=1.0),
            on_failure="impute",
            max_iterations=3,
        )
        traj = learner.run()
        # Both models grow: the memory model trains on imputed targets.
        assert len(learner._learned_mem) == 3
        for i, ds_index in enumerate(learner._learned_mem):
            assert learner._targets_mem[i] != float(learner._log_mem[ds_index])
        assert np.isfinite(traj.rmse_mem).all()

    def test_impute_handles_total_crash(self, small_dataset):
        """IMPUTE on a crash imputes *both* responses and keeps going."""
        learner = _learner(
            small_dataset,
            acquisition_faults=AcquisitionFaultModel(crash_probability=1.0),
            on_failure="impute",
            max_iterations=3,
        )
        traj = learner.run()
        assert len(traj) == 3
        assert all(r.failed for r in traj.records)
        assert len(learner._learned) == 3 and len(learner._learned_mem) == 3
        assert np.isfinite(traj.rmse_cost).all()


class TestCacheUnderFaults:
    @pytest.mark.parametrize("on_failure", ["drop", "next_best", "impute"])
    def test_cache_on_off_identical_with_faults(
        self, small_dataset, on_failure, monkeypatch
    ):
        """The cached-candidate path must stay exact when acquisitions
        crash or get censored — drops delete rows, never append columns."""
        faults = AcquisitionFaultModel(crash_probability=0.3, censor_probability=0.3)

        def run(cache):
            learner = _learner(
                small_dataset,
                seed=31,
                policy=MinPred(),
                acquisition_faults=faults,
                on_failure=on_failure,
                max_iterations=5,
            )
            if cache:
                return learner.run()
            with straight_line_scoring(monkeypatch):
                return learner.run()

        runs = {cache: run(cache) for cache in (True, False)}
        assert np.array_equal(
            runs[True].selected_indices, runs[False].selected_indices
        )
        assert np.allclose(runs[True].rmse_cost, runs[False].rmse_cost, rtol=1e-10)
        assert np.allclose(runs[True].rmse_mem, runs[False].rmse_mem, rtol=1e-10)
        assert runs[True].fault_events == runs[False].fault_events

    def test_incremental_fast_path_survives_mixed_failures(self, small_dataset):
        """With thinned hyperparameter refits, the cost model's final
        refactor must still ride the rank-m extension despite censored
        acquisitions interleaving drops into the candidate cache."""
        learner = _learner(
            small_dataset,
            seed=31,
            acquisition_faults=AcquisitionFaultModel(censor_probability=0.5),
            on_failure="next_best",
            max_iterations=6,
            hyper_refit_interval=4,
        )
        traj = learner.run()
        assert len([r for r in traj.records if not r.failed]) == 6
        # Iterations 1-3 and 5 refactor with frozen theta; the cost model
        # appends on every success, so the last factorization of a
        # non-refit iteration is an incremental extension.
        assert learner.gpr_cost.last_factor_mode_ == "rank1"


class TestFaultsInBatchRounds:
    @pytest.mark.parametrize("on_failure", ["drop", "next_best", "impute"])
    def test_every_pick_of_a_round_takes_the_fault_path(
        self, small_dataset, on_failure
    ):
        """A B=4 round runs each pick through the same observation path:
        crashed and censored picks are charged and logged, and only the
        next_best policy keeps a crashed pick's iteration."""
        from repro.core import PortfolioPolicy

        traj = _learner(
            small_dataset,
            seed=7,
            policy=PortfolioPolicy(memory_limit_MB=float("inf")),
            acquisition_faults=AcquisitionFaultModel(
                crash_probability=0.3, censor_probability=0.3
            ),
            on_failure=on_failure,
            max_iterations=12,
            batch_size=4,
        ).run()
        sel = traj.selected_indices
        assert np.unique(sel).size == sel.size
        failed = traj.num_failed_acquisitions
        censored = traj.num_censored_acquisitions
        assert failed > 0 and censored > 0
        assert len(traj.fault_events) == failed + censored
        assert traj.total_cost == pytest.approx(sum(r.cost for r in traj.records))
        if on_failure == "next_best":
            # Crashed picks keep their iteration, so rounds start off the
            # batch grid; max_iterations is checked when a round starts.
            assert 12 <= len(traj) - failed < 12 + 4
        else:
            assert len(traj) == 12
