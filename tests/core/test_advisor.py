"""Tests for the practitioner-facing configuration advisor."""

import numpy as np
import pytest

from repro.core.advisor import ConfigurationAdvisor
from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.policies import MaxSigma
from repro.data.space import ParameterSpace


@pytest.fixture(scope="module")
def trained_models(campaign_dataset):
    """Cost/memory GPs trained by a short AL run on the full dataset."""
    rng = np.random.default_rng(0)
    part = random_partition(rng, len(campaign_dataset), n_init=80, n_test=200)
    learner = ActiveLearner(
        campaign_dataset,
        part,
        policy=MaxSigma(),
        rng=rng,
        config=ALConfig(max_iterations=30, hyper_refit_interval=3),
    )
    learner.run()
    return learner.gpr_cost, learner.gpr_mem


@pytest.fixture(scope="module")
def advisor(trained_models):
    return ConfigurationAdvisor(*trained_models)


class TestFeasible:
    def test_unconstrained_returns_whole_grid_sorted(self, advisor):
        recs = advisor.feasible()
        assert len(recs) == 1920
        costs = [r.cost_node_hours for r in recs]
        assert costs == sorted(costs)

    def test_budget_constrains(self, advisor):
        recs = advisor.feasible(budget_node_hours=0.1)
        assert 0 < len(recs) < 1920
        assert all(r.cost_node_hours <= 0.1 for r in recs)

    def test_memory_constrains(self, advisor):
        recs = advisor.feasible(memory_limit_MB=1.0)
        assert all(r.max_rss_MB < 1.0 for r in recs)

    def test_deadline_constrains(self, advisor):
        recs = advisor.feasible(deadline_hours=0.01)
        assert all(r.wall_hours <= 0.01 for r in recs)

    def test_joint_constraints_subset(self, advisor):
        loose = advisor.feasible(budget_node_hours=1.0)
        tight = advisor.feasible(budget_node_hours=1.0, memory_limit_MB=2.0)
        assert len(tight) <= len(loose)

    def test_conservatism_monotone_in_z(self, trained_models):
        bold = ConfigurationAdvisor(*trained_models, z=0.0)
        safe = ConfigurationAdvisor(*trained_models, z=2.0)
        n_bold = len(bold.feasible(budget_node_hours=0.5))
        n_safe = len(safe.feasible(budget_node_hours=0.5))
        assert n_safe <= n_bold

    def test_rejects_negative_z(self, trained_models):
        with pytest.raises(ValueError):
            ConfigurationAdvisor(*trained_models, z=-1.0)


class TestResolutionQueries:
    def test_cheapest_at_resolution(self, advisor):
        rec = advisor.cheapest_at_resolution(5)
        assert rec is not None
        assert rec.config.maxlevel == 5
        # It must be the cheapest among level-5 feasible configs.
        all_l5 = [r for r in advisor.feasible() if r.config.maxlevel == 5]
        assert rec.cost_node_hours == min(r.cost_node_hours for r in all_l5)

    def test_cheapest_respects_memory(self, advisor):
        rec = advisor.cheapest_at_resolution(6, memory_limit_MB=5.0)
        if rec is not None:
            assert rec.max_rss_MB < 5.0

    def test_unsampled_level_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.cheapest_at_resolution(9)

    def test_impossible_constraint_returns_none(self, advisor):
        assert advisor.cheapest_at_resolution(6, deadline_hours=1e-9) is None


class TestParetoFront:
    def test_front_monotone(self, advisor):
        front = advisor.pareto_front()
        costs = [r.cost_node_hours for r in front]
        res = [(2 ** r.config.maxlevel) * r.config.mx for r in front]
        assert costs == sorted(costs)
        assert res == sorted(res)
        assert len(front) >= 3

    def test_front_dominates_grid(self, advisor):
        """No grid point may be cheaper than a front point of equal or
        higher resolution."""
        front = advisor.pareto_front()
        allrecs = advisor.feasible()
        for fr in front[:5]:
            fr_res = (2 ** fr.config.maxlevel) * fr.config.mx
            for r in allrecs:
                r_res = (2 ** r.config.maxlevel) * r.config.mx
                if r_res >= fr_res:
                    assert r.cost_node_hours >= fr.cost_node_hours - 1e-12
                    break  # allrecs is cost-sorted: first hit suffices

    def test_memory_limited_front(self, advisor):
        front = advisor.pareto_front(memory_limit_MB=2.0)
        assert all(r.max_rss_MB < 2.0 for r in front)


class TestExpectedCost:
    def test_whole_grid(self, advisor):
        assert advisor.expected_cost() > 0

    def test_region_restriction_orders_costs(self, advisor):
        cheap = advisor.expected_cost({"maxlevel": (3, 3), "mx": (8, 8)})
        costly = advisor.expected_cost({"maxlevel": (6, 6), "mx": (32, 32)})
        assert costly > 5.0 * cheap

    def test_unknown_feature_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.expected_cost({"bogus": (0, 1)})

    def test_empty_region_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.expected_cost({"maxlevel": (7, 9)})


class TestSmallSpace:
    def test_custom_space(self, trained_models):
        space = ParameterSpace(
            p_values=(4, 8),
            mx_values=(8, 16),
            maxlevel_values=(3, 4),
            r0_values=(0.2, 0.4),
            rhoin_values=(0.1, 0.3),
        )
        advisor = ConfigurationAdvisor(*trained_models, space=space)
        assert len(advisor.feasible()) == 32
