"""Batch multi-fidelity portfolio selection (repro.core.portfolio).

Property tests (hypothesis, derandomized) pin the two DESIGN.md batch
invariants — every emitted batch is budget-feasible on predicted cost,
and B=1 selection equals sequential RGMA draw-for-draw — and the
learner-level tests pin the portfolio round of :class:`ActiveLearner`:
the F=1/B=1 reduction to sequential RGMA and the multi-fidelity
bookkeeping (the batch round mechanics have their own test module).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActiveLearner,
    ALConfig,
    PortfolioCandidateView,
    PortfolioPolicy,
    RGMA,
    StopReason,
    random_partition,
)
from repro.core.policies import CandidateView
from repro.data import MultiFidelityDataset, default_schedule
from repro.machine.accounting import CampaignLedger

MEM_LIMIT_MB = 100.0  # log10 = 2.0


def _view(rng, F, m, mem_high_frac=0.0):
    """A synthetic portfolio view over ``m`` candidates at ``F`` rungs."""
    mu_mem = rng.uniform(0.0, 1.5, size=(F, m))
    n_high = int(mem_high_frac * F * m)
    if n_high:
        flat = rng.choice(F * m, size=n_high, replace=False)
        mu_mem.reshape(-1)[flat] = 3.0  # over the log10 limit of 2.0
    return PortfolioCandidateView(
        X=rng.uniform(size=(m, 3)),
        mu_cost=rng.uniform(-2.0, 1.0, size=(F, m)),
        sigma_cost=rng.uniform(0.01, 1.0, size=(F, m)),
        mu_mem=mu_mem,
        weights=np.abs(rng.uniform(0.2, 1.5, size=F)),
        blocked=np.zeros((F, m), dtype=bool),
    )


class TestBudgetFeasibility:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        F=st.integers(1, 3),
        m=st.integers(1, 20),
        batch=st.integers(1, 8),
        budget=st.floats(0.01, 20.0),
    )
    def test_predicted_batch_cost_never_exceeds_round_budget(
        self, seed, F, m, batch, budget
    ):
        rng = np.random.default_rng(seed)
        view = _view(rng, F, m)
        ledger = CampaignLedger(budget_node_hours=budget)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        picks = policy.select_batch(
            view, rng, ledger=ledger, batch_size=batch
        )
        predicted = sum(10.0 ** view.mu_cost[f, i] for i, f in picks)
        assert predicted <= budget + 1e-12
        assert ledger.remaining_node_hours >= -1e-12
        # At most one observation per design point per round.
        assert len({i for i, _ in picks}) == len(picks)
        assert len(picks) <= batch

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), F=st.integers(1, 3), m=st.integers(1, 20))
    def test_memory_mask_never_violated(self, seed, F, m):
        rng = np.random.default_rng(seed)
        view = _view(rng, F, m, mem_high_frac=0.5)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        picks = policy.select_batch(view, rng, batch_size=F * m)
        for i, f in picks:
            assert view.mu_mem[f, i] < policy.log_limit

    def test_infeasible_budget_returns_empty(self, rng):
        view = _view(rng, 2, 6)
        ledger = CampaignLedger(budget_node_hours=1e-9)
        policy = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        assert policy.select_batch(view, rng, ledger=ledger, batch_size=3) == []


class TestSequentialReduction:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 30))
    def test_b1_f1_equals_rgma_draw_for_draw(self, seed, m):
        rng = np.random.default_rng(seed)
        view = _view(rng, 1, m, mem_high_frac=0.3)
        flat = CandidateView(
            X=view.X,
            mu_cost=view.mu_cost[0],
            sigma_cost=view.sigma_cost[0] * view.weights[0],
            mu_mem=view.mu_mem[0],
            sigma_mem=np.full(m, 0.1),
        )
        rgma = RGMA(memory_limit_MB=MEM_LIMIT_MB)
        portfolio = PortfolioPolicy(memory_limit_MB=MEM_LIMIT_MB)
        pos = rgma.select(flat, np.random.default_rng(seed + 1))
        picks = portfolio.select_batch(
            view, np.random.default_rng(seed + 1), batch_size=1
        )
        if pos is None:
            assert picks == []
        else:
            assert picks == [(pos, 0)]


@pytest.fixture(scope="module")
def mf_small(small_dataset):
    return MultiFidelityDataset.from_dataset(
        small_dataset, default_schedule(2), seed=0
    )


class TestMultiFidelityLearner:
    @pytest.mark.parametrize("use_workspace", [True, False])
    def test_f1_b1_reduces_to_sequential_rgma(self, small_dataset, use_workspace):
        part = random_partition(
            np.random.default_rng(11), len(small_dataset), n_init=20, n_test=40
        )
        cfg = ALConfig(
            max_iterations=10, surrogate_options={"use_workspace": use_workspace}
        )
        base = ActiveLearner(
            small_dataset,
            part,
            policy=RGMA(memory_limit_MB=small_dataset.memory_limit()),
            rng=np.random.default_rng(21),
            config=cfg,
        )
        tb = base.run()
        mf = ActiveLearner(
            small_dataset,
            part,
            policy=PortfolioPolicy(memory_limit_MB=small_dataset.memory_limit()),
            rng=np.random.default_rng(21),
            config=cfg,
        )
        tm = mf.run()
        np.testing.assert_array_equal(tb.selected_indices, tm.selected_indices)
        np.testing.assert_array_equal(tb.rmse_cost, tm.rmse_cost)
        assert tb.stop_reason == tm.stop_reason
        assert all(r.fidelity == 0 for r in tm.records)

    def test_mf_run_mixes_fidelities_and_respects_pairs(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        cfg = ALConfig(
            max_iterations=30,
            num_fidelities=2,
            batch_size=4,
            round_budget_node_hours=0.5,
        )
        learner = ActiveLearner(
            mf_small, part, rng=np.random.default_rng(3), config=cfg
        )
        traj = learner.run()
        fids = [r.fidelity for r in traj.records]
        assert set(fids) <= {0, 1}
        assert 0 in fids  # the coarse rung is actually used
        # No (point, fidelity) pair observed twice.
        pairs = [(r.dataset_index, r.fidelity) for r in traj.records]
        assert len(pairs) == len(set(pairs))
        # Ledger committed == sum of actual per-pick costs.
        assert learner.ledger.committed_node_hours == pytest.approx(
            sum(r.cost for r in traj.records)
        )

    def test_budget_exhaustion_stop_reason(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        cfg = ALConfig(
            num_fidelities=2, batch_size=2, round_budget_node_hours=1e-9
        )
        learner = ActiveLearner(
            mf_small, part, rng=np.random.default_rng(3), config=cfg
        )
        traj = learner.run()
        assert traj.stop_reason == StopReason.BUDGET_EXHAUSTED
        assert len(traj.records) == 0

    def test_config_normalized_to_dataset_reality(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        learner = ActiveLearner(
            mf_small,
            part,
            rng=np.random.default_rng(3),
            config=ALConfig(max_iterations=2),
        )
        assert learner.config.surrogate == "multifidelity"
        assert learner.config.num_fidelities == 2
        assert learner.config.fidelity_schedule == ((4, 1), (1, 0))

    def test_plain_dataset_rejected_for_f2(self, small_dataset):
        part = random_partition(
            np.random.default_rng(2), len(small_dataset), n_init=20, n_test=40
        )
        with pytest.raises(ValueError, match="MultiFidelityDataset"):
            ActiveLearner(
                small_dataset,
                part,
                rng=np.random.default_rng(3),
                config=ALConfig(num_fidelities=2),
            )

    def test_policy_without_select_batch_rejected(self, mf_small):
        part = random_partition(
            np.random.default_rng(2), len(mf_small.base), n_init=20, n_test=40
        )
        with pytest.raises(ValueError, match="select_batch"):
            ActiveLearner(
                mf_small,
                part,
                policy=RGMA(memory_limit_MB=mf_small.memory_limit()),
                rng=np.random.default_rng(3),
                config=ALConfig(num_fidelities=2),
            )
