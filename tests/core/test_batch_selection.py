"""Batch rounds of :class:`ActiveLearner` (``ALConfig(batch_size=B)``).

A policy with ``select_batch`` takes up to B picks per round and the
models refit once per round.  ``strategy`` names how the later picks of a
round see the earlier ones: ``believer`` deflates the remaining cost
sigmas by each pick's prior covariance (the learner's in-batch
conditioner), ``independent`` scores every pick against the round's
opening posterior (the path of a surrogate without a fitted ``kernel_``).
At no memory limit the portfolio policy draws like RandGoodness.
"""

import numpy as np
import pytest

from repro.core import (
    ActiveLearner,
    ALConfig,
    PortfolioPolicy,
    StopReason,
    random_partition,
)


class IndependentPortfolio(PortfolioPolicy):
    """A portfolio policy that ignores the learner's in-batch conditioner."""

    def select_batch(self, view, rng, ledger=None, batch_size=1, conditioner=None):
        return super().select_batch(view, rng, ledger=ledger, batch_size=batch_size)


STRATEGIES = {"believer": PortfolioPolicy, "independent": IndependentPortfolio}


def make_batch_learner(
    dataset, batch_size, strategy, memory_limit=np.inf, seed=0, max_iterations=16
):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, len(dataset), n_init=15, n_test=30)
    return ActiveLearner(
        dataset,
        part,
        policy=STRATEGIES[strategy](memory_limit_MB=memory_limit),
        rng=rng,
        config=ALConfig(
            max_iterations=max_iterations,
            hyper_refit_interval=2,
            batch_size=batch_size,
        ),
    )


class TestValidation:
    def test_rejects_bad_batch_size(self, small_dataset):
        with pytest.raises(ValueError, match="batch_size"):
            make_batch_learner(small_dataset, 0, "independent")


@pytest.mark.parametrize("strategy", ["independent", "believer"])
class TestBatchMechanics:
    def test_selects_max_iterations_samples(self, small_dataset, strategy):
        traj = make_batch_learner(
            small_dataset, 4, strategy, max_iterations=12
        ).run()
        assert len(traj) == 12
        assert traj.stop_reason == StopReason.MAX_ITERATIONS

    def test_no_duplicate_selections(self, small_dataset, strategy):
        traj = make_batch_learner(
            small_dataset, 4, strategy, max_iterations=16
        ).run()
        sel = traj.selected_indices
        assert np.unique(sel).size == sel.size

    def test_rmse_constant_within_round(self, small_dataset, strategy):
        """The models refit once per round: every pick of a round records
        the same RMSE."""
        traj = make_batch_learner(small_dataset, 4, strategy, max_iterations=8).run()
        rmse = traj.rmse_cost
        assert rmse[0] == rmse[1] == rmse[2] == rmse[3]
        assert rmse[4] == rmse[5] == rmse[6] == rmse[7]

    def test_batch_size_one_reduces_to_sequential_count(self, small_dataset, strategy):
        traj = make_batch_learner(
            small_dataset, 1, strategy, max_iterations=5
        ).run()
        assert len(traj) == 5


class TestInBatchDiversity:
    def test_believer_diversifies_maxsigma(self, small_dataset):
        """Conditioning on a pick collapses its own cost sigma and raises
        no other, so a max-sigma ranking moves to another candidate."""
        learner = make_batch_learner(small_dataset, 5, "believer")
        learner.start()
        view = learner._candidate_view()
        sigma = view.sigma_cost[None, :]
        top = int(np.argmax(sigma[0]))
        deflated = learner._conditioner(view.X)(sigma.copy(), top, 0)
        assert deflated[0, top] == 0.0
        assert (deflated <= sigma).all()
        assert int(np.argmax(deflated[0])) != top

    def test_believer_restores_true_model(self, small_dataset):
        """In-batch conditioning is Y-free: after a B=4 round the cost
        model holds the rows it held before plus the four real
        observations, nothing more."""
        learner = make_batch_learner(small_dataset, 4, "believer")
        learner.start()
        n_train_before = learner.gpr_cost.X_train_.shape[0]
        assert learner.step()
        assert learner.gpr_cost.X_train_.shape[0] == n_train_before + 4


class TestBatchRGMA:
    def test_rgma_batch_respects_limit(self, small_dataset):
        lmem = small_dataset.memory_limit()
        traj = make_batch_learner(
            small_dataset, 4, "independent", memory_limit=lmem, max_iterations=24
        ).run()
        assert np.sum(traj.mems >= lmem) <= 2

    def test_rgma_batch_early_termination(self, small_dataset):
        tiny = float(small_dataset.mem.min()) * 0.5
        traj = make_batch_learner(
            small_dataset, 4, "independent", memory_limit=tiny, max_iterations=40
        ).run()
        assert traj.stop_reason == StopReason.MEMORY_CONSTRAINED


class TestBatchVsSequentialTradeoff:
    def test_fewer_rounds_than_samples(self, small_dataset):
        learner = make_batch_learner(
            small_dataset, 8, "independent", max_iterations=16
        )
        rounds = 0
        while learner.step():
            rounds += 1
        assert len(learner.records) == 16
        assert rounds == 2

    def test_batch_model_still_learns(self, small_dataset):
        traj = make_batch_learner(
            small_dataset, 4, "independent", max_iterations=24, seed=3
        ).run()
        assert traj.final_rmse_cost < traj.initial_rmse_cost * 1.5


def test_batch_round_on_kernel_free_surrogate(small_dataset):
    """A surrogate without a fitted ``kernel_`` (the local GP mixture) runs
    batch rounds without in-batch conditioning instead of failing."""
    rng = np.random.default_rng(5)
    part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
    traj = ActiveLearner(
        small_dataset,
        part,
        policy=PortfolioPolicy(memory_limit_MB=np.inf),
        rng=rng,
        config=ALConfig(
            max_iterations=8,
            batch_size=4,
            surrogate="local",
            surrogate_options={"n_regions": 2},
        ),
    ).run()
    assert len(traj) == 8
    assert np.unique(traj.selected_indices).size == 8
