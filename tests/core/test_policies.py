"""Tests for the five candidate-selection policies of Sec. IV-B."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    CandidateView,
    MaxSigma,
    MinPred,
    RGMA,
    RandGoodness,
    RandUniform,
    goodness_distribution,
)
from repro.registry import policy_registry


def make_view(mu_cost, sigma_cost=None, mu_mem=None, sigma_mem=None):
    mu_cost = np.asarray(mu_cost, dtype=np.float64)
    m = mu_cost.size
    return CandidateView(
        X=np.zeros((m, 5)),
        mu_cost=mu_cost,
        sigma_cost=np.ones(m) * 0.1 if sigma_cost is None else np.asarray(sigma_cost, float),
        mu_mem=np.zeros(m) if mu_mem is None else np.asarray(mu_mem, float),
        sigma_mem=np.ones(m) * 0.1 if sigma_mem is None else np.asarray(sigma_mem, float),
    )


class TestCandidateView:
    def test_len(self):
        assert len(make_view([1.0, 2.0, 3.0])) == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CandidateView(
                X=np.zeros((3, 5)),
                mu_cost=np.zeros(2),
                sigma_cost=np.zeros(3),
                mu_mem=np.zeros(3),
                sigma_mem=np.zeros(3),
            )


class TestRandUniform:
    def test_uniform_coverage(self, rng):
        view = make_view(np.arange(10.0))
        picks = [RandUniform().select(view, rng) for _ in range(2000)]
        counts = np.bincount(picks, minlength=10)
        assert np.all(counts > 120)  # each ~200 +- noise

    def test_empty_returns_none(self, rng):
        assert RandUniform().select(make_view([1.0]).__class__(
            X=np.zeros((0, 5)), mu_cost=np.zeros(0), sigma_cost=np.zeros(0),
            mu_mem=np.zeros(0), sigma_mem=np.zeros(0)), rng) is None


class TestMaxSigma:
    def test_picks_largest_uncertainty(self, rng):
        view = make_view([1.0, 1.0, 1.0], sigma_cost=[0.1, 0.9, 0.5])
        assert MaxSigma().select(view, rng) == 1

    def test_ignores_cost_magnitude(self, rng):
        view = make_view([100.0, 0.01], sigma_cost=[0.5, 0.4])
        assert MaxSigma().select(view, rng) == 0

    def test_deterministic(self, rng):
        view = make_view([1.0, 2.0], sigma_cost=[0.2, 0.3])
        picks = {MaxSigma().select(view, np.random.default_rng(i)) for i in range(5)}
        assert picks == {1}


class TestMinPred:
    def test_picks_cheapest_when_sigma_flat(self, rng):
        view = make_view([3.0, -1.0, 0.5], sigma_cost=[0.1, 0.1, 0.1])
        assert MinPred().select(view, rng) == 1

    def test_sigma_breaks_ties(self, rng):
        view = make_view([1.0, 1.0], sigma_cost=[0.1, 0.4])
        assert MinPred().select(view, rng) == 1

    def test_mu_dominates_sigma_at_scale(self, rng):
        """The degradation the paper describes: when mu varies hundreds of
        times more than sigma, the policy just picks the cheapest."""
        mu = np.array([2.0, -2.0, 1.0])
        sigma = np.array([0.30, 0.28, 0.31])  # tiny variation
        assert MinPred().select(make_view(mu, sigma), rng) == 1


class TestGoodnessDistribution:
    def test_normalized(self):
        g = goodness_distribution(np.array([1.0, 2.0, 0.5]), np.array([0.1, 0.1, 0.1]))
        assert g.sum() == pytest.approx(1.0)
        assert np.all(g >= 0)

    def test_cheaper_is_likelier(self):
        g = goodness_distribution(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        assert g[0] > g[1]
        # Base 10, one decade apart in mu: exactly 10x likelier.
        assert g[0] / g[1] == pytest.approx(10.0)

    def test_base_controls_skew(self):
        mu = np.array([0.0, 1.0])
        sig = np.array([0.1, 0.1])
        g10 = goodness_distribution(mu, sig, base=10.0)
        g2 = goodness_distribution(mu, sig, base=2.0)
        assert g10[0] / g10[1] > g2[0] / g2[1]

    def test_overflow_guarded(self):
        mu = np.array([-500.0, 500.0])
        g = goodness_distribution(mu, np.zeros(2))
        assert np.isfinite(g).all()
        assert g.sum() == pytest.approx(1.0)
        assert g[0] == pytest.approx(1.0)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            goodness_distribution(np.zeros(2), np.zeros(2), base=1.0)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=20),
    )
    @settings(max_examples=100)
    def test_always_a_distribution(self, mus):
        mu = np.array(mus)
        g = goodness_distribution(mu, np.full(mu.size, 0.2))
        assert g.shape == mu.shape
        assert g.sum() == pytest.approx(1.0)


class TestRandGoodness:
    def test_prefers_cheap_statistically(self, rng):
        view = make_view([0.0, 2.0], sigma_cost=[0.1, 0.1])
        picks = np.array([RandGoodness().select(view, rng) for _ in range(1000)])
        # 100:1 odds -> expect ~99% zeros.
        assert (picks == 0).mean() > 0.95

    def test_still_explores_expensive(self, rng):
        view = make_view([0.0, 1.0], sigma_cost=[0.1, 0.1])
        picks = np.array([RandGoodness().select(view, rng) for _ in range(2000)])
        frac1 = (picks == 1).mean()
        assert 0.03 < frac1 < 0.20  # ~1/11 expected

    def test_single_candidate(self, rng):
        assert RandGoodness().select(make_view([1.0]), rng) == 0


class TestRGMA:
    def test_filters_unsafe_candidates(self, rng):
        # Candidate 0 cheap but predicted over the limit.
        view = make_view(
            [0.0, 2.0],
            sigma_cost=[0.1, 0.1],
            mu_mem=[2.0, 0.0],  # log10 MB: 100 MB vs 1 MB
        )
        policy = RGMA(memory_limit_MB=10.0)
        picks = {policy.select(view, rng) for _ in range(50)}
        assert picks == {1}

    def test_terminates_when_nothing_safe(self, rng):
        view = make_view([0.0, 1.0], mu_mem=[3.0, 3.0])
        assert RGMA(memory_limit_MB=10.0).select(view, rng) is None

    def test_reduces_to_randgoodness_when_all_safe(self, rng):
        view = make_view([0.0, 2.0], sigma_cost=[0.1, 0.1], mu_mem=[-1.0, -1.0])
        picks = np.array(
            [RGMA(memory_limit_MB=100.0).select(view, rng) for _ in range(500)]
        )
        assert (picks == 0).mean() > 0.9

    def test_log_limit(self):
        assert RGMA(memory_limit_MB=100.0).log_limit == pytest.approx(2.0)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            RGMA(memory_limit_MB=0.0)

    def test_boundary_is_exclusive(self, rng):
        """mu_mem == log limit counts as exceeding (Algorithm 2 uses <)."""
        view = make_view([0.0], mu_mem=[1.0])
        assert RGMA(memory_limit_MB=10.0).select(view, rng) is None


class TestRegistry:
    def test_all_five_present(self):
        assert set(policy_registry) >= {
            "rand_uniform",
            "max_sigma",
            "min_pred",
            "rand_goodness",
            "rgma",
        }

    def test_names_match_classes(self):
        for name in policy_registry:
            assert policy_registry.get(name).name == name
