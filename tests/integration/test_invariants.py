"""Cross-module property-based invariants (hypothesis).

These encode the contracts the paper's methodology silently relies on:
the GP posterior never claims more uncertainty than the prior, policies
only ever pick valid candidates, RGMA never picks a predicted-unsafe one,
conservative transfer commutes with integration, and the AL bookkeeping
(cumulative metrics) is self-consistent for arbitrary trajectories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.core.metrics import cumulative_cost, cumulative_regret
from repro.core.config import ALConfig
from repro.core.policies import (
    CandidateView,
    MaxSigma,
    MinPred,
    RGMA,
    RandGoodness,
    RandUniform,
)
from repro.core.service import CampaignSpec, ChaosConfig
from repro.faults.model import FaultConfig
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import default_kernel
from repro.machine.accounting import CampaignLedger

finite_mu = st.floats(min_value=-4.0, max_value=4.0)


def view_strategy(draw, min_size=1, max_size=25):
    m = draw(st.integers(min_value=min_size, max_value=max_size))
    mu_c = np.array([draw(finite_mu) for _ in range(m)])
    sd_c = np.abs(np.array([draw(finite_mu) for _ in range(m)])) * 0.2 + 1e-6
    mu_m = np.array([draw(finite_mu) for _ in range(m)])
    sd_m = np.abs(np.array([draw(finite_mu) for _ in range(m)])) * 0.2 + 1e-6
    return CandidateView(
        X=np.zeros((m, 5)), mu_cost=mu_c, sigma_cost=sd_c, mu_mem=mu_m, sigma_mem=sd_m
    )


class TestPolicyInvariants:
    @given(st.data(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_selection_always_valid_index(self, data, seed):
        view = view_strategy(data.draw)
        rng = np.random.default_rng(seed)
        for policy in (RandUniform(), MaxSigma(), MinPred(), RandGoodness()):
            pos = policy.select(view, rng)
            assert pos is not None
            assert 0 <= pos < len(view)

    @given(st.data(), st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_rgma_never_picks_predicted_unsafe(self, data, seed, limit):
        view = view_strategy(data.draw)
        rng = np.random.default_rng(seed)
        policy = RGMA(memory_limit_MB=limit)
        pos = policy.select(view, rng)
        if pos is None:
            assert np.all(view.mu_mem >= np.log10(limit))
        else:
            assert view.mu_mem[pos] < np.log10(limit)


class TestGPInvariants:
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_posterior_std_bounded_by_prior(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (n, 2))
        y = rng.normal(size=n)
        gp = GPRegressor(kernel=default_kernel(), rng=rng, n_restarts=0)
        gp.fit(X, y)
        Xq = rng.uniform(0, 1, (10, 2))
        _, sd = gp.predict(Xq, return_std=True)
        prior_sd = np.sqrt(gp.kernel_.diag(Xq))
        assert np.all(sd <= prior_sd + 1e-8)

    @given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_adding_data_never_raises_uncertainty_at_new_point(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (n, 2))
        y = rng.normal(size=n)
        x_new = rng.uniform(0, 1, (1, 2))
        gp = GPRegressor(kernel=default_kernel(), rng=rng, n_restarts=0)
        gp.fit(X, y)
        # Freeze hyperparameters, add the query point itself to the data.
        _, sd_before = gp.predict(x_new, return_std=True)
        gp.refactor(np.vstack([X, x_new]), np.append(y, 0.0))
        _, sd_after = gp.predict(x_new, return_std=True)
        assert sd_after[0] <= sd_before[0] + 1e-8


class TestTransferInvariants:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_restrict_after_prolong_is_identity(self, half, seed):
        rng = np.random.default_rng(seed)
        coarse = rng.normal(size=(4, 2 * half, 2 * half))
        assert np.allclose(
            restrict_area_average(prolong_patch(coarse)), coarse, atol=1e-12
        )


class TestMetricBookkeeping:
    @given(
        st.lists(st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_regret_never_exceeds_cost_and_is_monotone(self, costs, seed, limit):
        rng = np.random.default_rng(seed)
        costs = np.array(costs)
        mems = rng.uniform(0, 60, costs.size)
        cc = cumulative_cost(costs)
        cr = cumulative_regret(costs, mems, limit)
        assert np.all(cr <= cc + 1e-12)
        assert np.all(np.diff(cr) >= -1e-15)
        assert np.all(np.diff(cc) > 0)


class TestRegistryCompleteness:
    def test_policies_constructible_and_runnable(self, small_dataset):
        """Every registered policy survives a 3-iteration AL run."""
        from repro.core import ActiveLearner, random_partition
        from repro.registry import policy_registry

        for name in policy_registry:
            rng = np.random.default_rng(1)
            part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
            config = ALConfig(max_iterations=3, policy=name)
            expected = name
            if name == "amortized":
                # Without a policy file, serving falls back to RGMA.
                with pytest.warns(RuntimeWarning, match="falling back to RGMA"):
                    learner = ActiveLearner(small_dataset, part, rng=rng, config=config)
                expected = "rgma"
            else:
                learner = ActiveLearner(small_dataset, part, rng=rng, config=config)
            assert learner.run().policy_name == expected


NAN = float("nan")


class TestNaNIsRejected:
    """Every positivity check fails NaN, which compares false to anything."""

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: CampaignSpec("c", RandUniform, budget_node_hours=NAN),
                "budget_node_hours must be positive",
                id="CampaignSpec.budget_node_hours",
            ),
            pytest.param(
                lambda: CampaignLedger(budget_node_hours=NAN),
                "budget_node_hours must be positive",
                id="CampaignLedger.budget_node_hours",
            ),
            pytest.param(
                lambda: ALConfig(round_budget_node_hours=NAN),
                "round_budget_node_hours must be positive",
                id="ALConfig.round_budget_node_hours",
            ),
            pytest.param(
                lambda: RGMA(memory_limit_MB=NAN),
                "memory limit must be positive",
                id="RGMA.memory_limit_MB",
            ),
            pytest.param(
                lambda: FaultConfig(oom_memory_limit_MB=NAN),
                "oom_memory_limit_MB must be positive",
                id="FaultConfig.oom_memory_limit_MB",
            ),
            pytest.param(
                lambda: FaultConfig(timeout_wall_seconds=NAN),
                "timeout_wall_seconds must be positive",
                id="FaultConfig.timeout_wall_seconds",
            ),
            pytest.param(
                lambda: FaultConfig(straggler_slowdown=NAN),
                "straggler_slowdown must exceed 1",
                id="FaultConfig.straggler_slowdown",
            ),
            pytest.param(
                lambda: FaultConfig(rss_lost_wall_threshold_s=NAN),
                "rss_lost_wall_threshold_s must be non-negative",
                id="FaultConfig.rss_lost_wall_threshold_s",
            ),
            pytest.param(
                lambda: ChaosConfig(FaultConfig(), step_wall_seconds=NAN),
                "step_wall_seconds must be positive",
                id="ChaosConfig.step_wall_seconds",
            ),
        ],
    )
    def test_constructor_rejects_nan(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
