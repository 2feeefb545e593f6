"""AmortizedPolicy: RNG contract, zero-refit mode, wiring, persistence.

The two load-bearing invariants:

- ``select`` consumes **exactly one** ``rng.choice`` draw (RGMA's
  consumption pattern), and *none* when every candidate is masked — so
  swapping policies never shifts the learner's shared RNG stream;
- ``requires_surrogate = False`` makes the learner skip every GP phase:
  a traced amortized run contains no ``gp_fit`` span and reports NaN
  RMSEs, yet still honors budgets, faults, and checkpoints.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import ActiveLearner, ALConfig, RGMA, random_partition
from repro.core.policies import CandidateView
from repro.policy import AmortizedPolicy, make_policy
from repro.policy.features import FeatureExtractor

from tests.policy.conftest import make_context


def _nan_view(m, U):
    nan = np.full(m, np.nan)
    return CandidateView(X=U, mu_cost=nan, sigma_cost=nan, mu_mem=nan, sigma_mem=nan)


def _prepared(tiny_scorer, dataset, limit=None, seed=0, **kw):
    ctx = make_context(dataset, memory_limit_MB=limit, seed=seed)
    policy = AmortizedPolicy(tiny_scorer, memory_limit_MB=limit, **kw)
    policy.prepare(ctx)
    U = np.asarray(ctx.scaler.transform(dataset.X[ctx.pool_indices]))
    return policy, _nan_view(len(ctx.pool_indices), U), ctx


class TestRngContract:
    def test_select_consumes_exactly_one_choice(self, tiny_scorer, small_dataset):
        limit = small_dataset.memory_limit()
        policy, view, _ = _prepared(tiny_scorer, small_dataset, limit=limit)
        k = int(FeatureExtractor(make_context(
            small_dataset, memory_limit_MB=limit
        )).feasible_mask().sum())
        rng = np.random.default_rng(5)
        pos = policy.select(view, rng)
        # A Generator.choice(k, p=...) advances the stream by the same
        # amount regardless of p, so a uniform twin pins the state.
        twin = np.random.default_rng(5)
        twin.choice(k, p=np.full(k, 1.0 / k))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert 0 <= pos < len(view)

    def test_all_masked_returns_none_without_touching_rng(
        self, tiny_scorer, small_dataset
    ):
        policy, view, _ = _prepared(tiny_scorer, small_dataset, limit=1e-6)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert policy.select(view, rng) is None
        assert rng.bit_generator.state == before

    def test_selected_candidate_is_feasible(self, tiny_scorer, small_dataset):
        # A limit at the pool's median machine-predicted memory masks
        # roughly half the candidates — a genuinely partial mask.
        probe = FeatureExtractor(make_context(small_dataset))
        limit = float(10.0 ** np.median(probe.machine_log_mem))
        policy, view, _ = _prepared(tiny_scorer, small_dataset, limit=limit)
        mask = policy._extractor.feasible_mask()
        assert 0 < mask.sum() < len(view)
        for seed in range(10):
            pos = policy.select(view, np.random.default_rng(seed))
            assert pos is not None and mask[pos]


class TestZeroRefit:
    def test_run_skips_gp_and_reports_nan_rmse(self, tiny_scorer, small_dataset):
        policy = AmortizedPolicy(
            tiny_scorer, memory_limit_MB=small_dataset.memory_limit()
        )
        rng = np.random.default_rng(0)
        partition = random_partition(rng, len(small_dataset), n_init=20, n_test=30)
        obs.enable_tracing()
        learner = ActiveLearner(
            small_dataset,
            partition,
            policy=policy,
            rng=rng,
            config=ALConfig(max_iterations=4),
        )
        traj = learner.run()
        names = {s.name for s in obs.tracer().spans()}
        assert "gp_fit" not in names
        assert "policy.infer" in names and "policy.features" in names
        assert len(traj) == 4
        assert np.isnan(traj.final_rmse_cost) and np.isnan(traj.final_rmse_mem)
        assert traj.total_cost > 0

    def test_impute_failure_policy_is_rejected(self, tiny_scorer, small_dataset):
        policy = AmortizedPolicy(tiny_scorer)
        rng = np.random.default_rng(0)
        partition = random_partition(rng, len(small_dataset), n_init=20, n_test=30)
        with pytest.raises(ValueError, match="(?i)impute"):
            ActiveLearner(
                small_dataset,
                partition,
                policy=policy,
                rng=rng,
                config=ALConfig(max_iterations=3, on_failure="impute"),
            )


class TestMakePolicy:
    def test_amortized_loads_from_file(self, tiny_scorer, policy_file, small_dataset):
        cfg = ALConfig(
            policy="amortized", policy_options={"policy_file": str(policy_file)}
        )
        policy = make_policy(cfg, small_dataset)
        assert isinstance(policy, AmortizedPolicy)
        assert policy.fingerprint == tiny_scorer.fingerprint
        assert policy.memory_limit_MB == pytest.approx(
            small_dataset.memory_limit()
        )

    def test_missing_file_falls_back_to_rgma_with_warning(
        self, tmp_path, small_dataset
    ):
        cfg = ALConfig(
            policy="amortized",
            policy_options={"policy_file": str(tmp_path / "absent.npz")},
        )
        with pytest.warns(RuntimeWarning, match="falling back to RGMA"):
            policy = make_policy(cfg, small_dataset)
        assert isinstance(policy, RGMA)

    def test_default_is_rgma_at_paper_limit(self, small_dataset):
        policy = make_policy(ALConfig(), small_dataset)
        assert isinstance(policy, RGMA)
        assert policy.memory_limit_MB == pytest.approx(
            small_dataset.memory_limit()
        )

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy must be one of"):
            ALConfig(policy="bogus")


class TestPersistence:
    def test_pickle_round_trip_selects_identically(
        self, tiny_scorer, small_dataset
    ):
        limit = small_dataset.memory_limit()
        policy, view, ctx = _prepared(tiny_scorer, small_dataset, limit=limit)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.fingerprint == policy.fingerprint
        ds, scaler = small_dataset, ctx.scaler
        pool = list(ctx.pool_indices)
        for step in range(5):
            a = policy.select(view, np.random.default_rng([7, step]))
            b = clone.select(view, np.random.default_rng([7, step]))
            assert a == b
            i = pool.pop(a)
            u_new = scaler.transform(ds.X[i][None, :])[0]
            for p in (policy, clone):
                p.observe_acquire(
                    a,
                    u_new,
                    cost=float(ds.cost[i]),
                    target_cost=float(ds.log_cost()[i]),
                    target_mem=float(ds.log_mem()[i]),
                )
            view = _nan_view(
                len(pool), np.asarray(scaler.transform(ds.X[pool]))
            )

    def test_select_before_prepare_raises(self, tiny_scorer, small_dataset):
        policy = AmortizedPolicy(tiny_scorer)
        view = _nan_view(3, np.zeros((3, 5)))
        with pytest.raises(RuntimeError, match="before prepare"):
            policy.select(view, np.random.default_rng(0))

    def test_view_extractor_desync_raises(self, tiny_scorer, small_dataset):
        policy, view, _ = _prepared(tiny_scorer, small_dataset)
        bad = _nan_view(len(view) - 1, view.X[:-1])
        with pytest.raises(RuntimeError, match="out of sync"):
            policy.select(bad, np.random.default_rng(0))


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"epsilon": -0.1},
            {"epsilon": 1.5},
            {"temperature": 0.0},
            {"memory_limit_MB": -1.0},
        ],
    )
    def test_constructor_rejects_bad_knobs(self, tiny_scorer, kw):
        with pytest.raises(ValueError):
            AmortizedPolicy(tiny_scorer, **kw)
