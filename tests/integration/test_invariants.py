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
from repro.core.policies import (
    POLICIES,
    CandidateView,
    MaxSigma,
    MinPred,
    RGMA,
    RandGoodness,
    RandUniform,
)
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import default_kernel

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
        from repro.core import ActiveLearner, ALConfig, random_partition

        for name, cls in POLICIES.items():
            rng = np.random.default_rng(1)
            part = random_partition(rng, len(small_dataset), n_init=15, n_test=30)
            policy = cls(memory_limit_MB=50.0) if name == "rgma" else cls()
            traj = ActiveLearner(
                small_dataset, part, policy, rng, config=ALConfig(max_iterations=3)
            ).run()
            assert traj.policy_name == name
