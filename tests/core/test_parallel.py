"""Tests for the trajectory batch runner (``run_trajectories``)."""

import dataclasses
import functools

import numpy as np
import pytest

from repro import obs
from repro.core import ALConfig, CampaignService, CampaignSpec, PortfolioPolicy
from repro.core.batch import (
    TrajectoryFailure,
    TrajectorySpec,
    default_workers,
    run_trajectories,
)
from repro.core.policies import MaxSigma, MinPred, RandGoodness, RandUniform
from repro.core.trajectory import Trajectory
from tests.service.conftest import CountingPolicy, DyingPolicy, InterruptingPolicy


class ExplodingPolicy(RandUniform):
    """Raises mid-trajectory (3rd selection).  Module-level so it pickles
    into spawn-started workers."""

    name = "exploding"

    def __init__(self):
        self.calls = 0

    def select(self, view, rng):
        self.calls += 1
        if self.calls >= 3:
            raise RuntimeError("injected mid-run explosion")
        return super().select(view, rng)


class BrokenFactory(RandUniform):
    """A policy whose construction raises."""

    def __init__(self):
        raise ValueError("no policy today")


def _specs(n=3, **kw):
    base = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
    base.update(kw)
    return [
        TrajectorySpec(
            name=f"traj{i}", policy_factory=RandUniform, base_seed=31, traj_index=i,
            **base,
        )
        for i in range(n)
    ]


class TestSerialExecution:
    def test_returns_named_pairs_in_spec_order(self, small_dataset):
        out = run_trajectories(small_dataset, _specs(3), max_workers=1)
        assert [name for name, _ in out] == ["traj0", "traj1", "traj2"]
        assert all(len(t) == 4 for _, t in out)

    def test_same_seed_position_shares_partition(self, small_dataset):
        """Paired comparison: equal (base_seed, traj_index) => equal
        partitions, so the first selected index pool is shared."""
        a = TrajectorySpec(name="a", policy_factory=MinPred, base_seed=5,
                           n_init=15, n_test=20, max_iterations=3)
        b = TrajectorySpec(name="b", policy_factory=MinPred, base_seed=5,
                           n_init=15, n_test=20, max_iterations=3)
        out = run_trajectories(small_dataset, [a, b], max_workers=1)
        assert np.array_equal(out[0][1].selected_indices, out[1][1].selected_indices)

    def test_distinct_indices_get_distinct_streams(self, small_dataset):
        out = run_trajectories(small_dataset, _specs(2), max_workers=1)
        assert not np.array_equal(
            out[0][1].selected_indices, out[1][1].selected_indices
        )

    def test_learner_kwargs_forwarded(self, small_dataset):
        spec = TrajectorySpec(
            name="s", policy_factory=RandUniform, base_seed=1, n_init=15,
            n_test=20, max_iterations=2,
            learner_kwargs={"weight_rmse_by_cost": True},
        )
        out = run_trajectories(small_dataset, [spec], max_workers=1)
        assert len(out[0][1]) == 2
        assert out[0][1].config["weight_rmse_by_cost"] is True


class TestParallelExecution:
    def test_parallel_matches_serial_exactly(self, small_dataset):
        specs = _specs(2)
        serial = run_trajectories(small_dataset, specs, max_workers=1)
        parallel = run_trajectories(small_dataset, specs, max_workers=2)
        for (n1, a), (n2, b) in zip(serial, parallel):
            assert n1 == n2
            assert np.array_equal(a.selected_indices, b.selected_indices)
            assert np.array_equal(a.rmse_cost, b.rmse_cost)

    def test_invalid_worker_count(self, small_dataset):
        with pytest.raises(ValueError):
            run_trajectories(small_dataset, _specs(1), max_workers=0)


class TestServiceEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_fidelity_selects_what_the_service_selects(
        self, small_dataset, workers
    ):
        """A trajectory cold-starts as a campaign does: a multi-fidelity
        config prices its dataset (regression: it failed in the runner with
        "multi-fidelity configurations need a MultiFidelityDataset")."""
        portfolio = functools.partial(
            PortfolioPolicy, memory_limit_MB=small_dataset.memory_limit()
        )
        mf = {"num_fidelities": 2, "batch_size": 2, "fidelity_seed": 1}
        specs = [
            TrajectorySpec(
                name=f"t{i}", policy_factory=policy, base_seed=11,
                traj_index=i, n_init=15, n_test=20, max_iterations=4,
                learner_kwargs=kw,
            )
            for i, (policy, kw) in enumerate([(portfolio, mf), (RandGoodness, {})])
        ]
        with CampaignService(small_dataset) as svc:
            for spec in specs:
                svc.submit(CampaignSpec(
                    campaign_id=spec.name, policy_factory=spec.policy_factory,
                    base_seed=spec.base_seed, traj_index=spec.traj_index,
                    n_init=spec.n_init, n_test=spec.n_test,
                    config=ALConfig(max_iterations=4, **spec.learner_kwargs),
                ))
            assert set(svc.run().campaigns.values()) == {"done"}
            served = {s.name: svc.result(s.name) for s in specs}
        for name, traj in run_trajectories(small_dataset, specs, max_workers=workers):
            assert isinstance(traj, Trajectory), traj
            assert np.array_equal(traj.selected_indices, served[name].selected_indices)
        assert {r.fidelity for r in served["t0"].records} == {0, 1}


class TestDefaultWorkers:
    def test_capped_by_jobs_and_cores(self):
        assert default_workers(1) == 1
        assert default_workers(10**6) >= 1
        assert default_workers(2) <= 2


class TestWorkerCountDeterminism:
    """The determinism contract: results are a function of the specs alone,
    not of how they were scheduled over processes."""

    def test_identical_results_at_workers_1_2_4(self, small_dataset):
        specs = [
            TrajectorySpec(
                name=f"rg{i}", policy_factory=RandGoodness, base_seed=17,
                traj_index=i, n_init=15, n_test=20, max_iterations=4,
                hyper_refit_interval=2,
            )
            for i in range(3)
        ]
        runs = {
            w: run_trajectories(small_dataset, specs, max_workers=w)
            for w in (1, 2, 4)
        }
        ref = runs[1]
        for w in (2, 4):
            for (n_ref, t_ref), (n_w, t_w) in zip(ref, runs[w]):
                assert n_ref == n_w
                assert np.array_equal(t_ref.selected_indices, t_w.selected_indices)
                assert np.array_equal(t_ref.rmse_cost, t_w.rmse_cost)
                assert np.array_equal(t_ref.rmse_mem, t_w.rmse_mem)

    def test_mid_run_failure_does_not_perturb_survivors(self, small_dataset):
        """A trajectory that raises on its 3rd selection is reported as a
        TrajectoryFailure; every other trajectory is bit-identical at any
        worker count."""
        good = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
        specs = [
            TrajectorySpec(name="ok0", policy_factory=RandGoodness,
                           base_seed=17, traj_index=0, **good),
            TrajectorySpec(name="boom", policy_factory=ExplodingPolicy,
                           base_seed=17, traj_index=1, **good),
            TrajectorySpec(name="ok1", policy_factory=RandGoodness,
                           base_seed=17, traj_index=2, **good),
        ]
        runs = {
            w: run_trajectories(
                small_dataset, specs, max_workers=w, on_error="return"
            )
            for w in (1, 2, 4)
        }
        for w, out in runs.items():
            assert [name for name, _ in out] == ["ok0", "boom", "ok1"]
            failure = out[1][1]
            assert isinstance(failure, TrajectoryFailure)
            assert "injected mid-run explosion" in failure.error
            assert isinstance(out[0][1], Trajectory)
            assert isinstance(out[2][1], Trajectory)
        ref = runs[1]
        for w in (2, 4):
            for pos in (0, 2):
                assert np.array_equal(
                    ref[pos][1].selected_indices, runs[w][pos][1].selected_indices
                )
                assert np.array_equal(
                    ref[pos][1].rmse_cost, runs[w][pos][1].rmse_cost
                )

    def test_dying_worker_costs_one_trajectory(self, small_dataset):
        """A worker killed outright (``os._exit``) fails only the spec it
        ran, once the service's retries give up; every other spec equals
        its serial run (regression: the process pool failed every spec of
        the call)."""
        good = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
        specs = [
            TrajectorySpec(name=f"rg{i}", policy_factory=RandGoodness,
                           base_seed=17, traj_index=i, **good)
            for i in range(3)
        ]
        specs.insert(1, TrajectorySpec(name="dies", policy_factory=DyingPolicy,
                                       base_seed=17, traj_index=9, **good))
        out = run_trajectories(small_dataset, specs, max_workers=2, on_error="return")
        assert [name for name, _ in out] == ["rg0", "dies", "rg1", "rg2"]
        failures = [t for _, t in out if isinstance(t, TrajectoryFailure)]
        assert [f.name for f in failures] == ["dies"]
        assert "crash" in failures[0].error
        serial = run_trajectories(
            small_dataset, [s for s in specs if s.name != "dies"], max_workers=1
        )
        survivors = [(name, t) for name, t in out if name != "dies"]
        for (n1, a), (n2, b) in zip(serial, survivors):
            assert n1 == n2
            assert isinstance(b, Trajectory)
            assert np.array_equal(a.selected_indices, b.selected_indices)
            assert np.array_equal(a.rmse_cost, b.rmse_cost)

    def test_unpicklable_spec_costs_one_trajectory(self, small_dataset):
        """A spec whose job cannot be pickled to a worker (a lambda policy
        factory) fails its own trajectory; the others equal their serial
        runs (regression: the pickling error escaped ``CampaignService.run``
        and took every result of the call with it)."""
        good = dict(n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2)
        specs = [
            TrajectorySpec(name=f"ms{i}", policy_factory=MaxSigma,
                           base_seed=17, traj_index=i, **good)
            for i in range(3)
        ]
        specs[1] = dataclasses.replace(specs[1], policy_factory=lambda: MaxSigma())
        serial = run_trajectories(small_dataset, specs, max_workers=1)
        assert all(isinstance(t, Trajectory) for _, t in serial)
        out = run_trajectories(small_dataset, specs, max_workers=2, on_error="return")
        assert [name for name, _ in out] == ["ms0", "ms1", "ms2"]
        assert [type(t) for _, t in out] == [Trajectory, TrajectoryFailure, Trajectory]
        assert "pickle" in out[1][1].error.lower()
        for pos in (0, 2):
            a, b = serial[pos][1], out[pos][1]
            assert np.array_equal(a.selected_indices, b.selected_indices)
            assert np.array_equal(a.rmse_cost, b.rmse_cost)

    def test_policy_construction_error_costs_one_trajectory(self, small_dataset):
        """A factory that raises fails its own trajectory, not the call."""
        specs = _specs(2)
        specs[0] = dataclasses.replace(specs[0], policy_factory=BrokenFactory)
        out = run_trajectories(small_dataset, specs, max_workers=1, on_error="return")
        assert isinstance(out[0][1], TrajectoryFailure)
        assert "no policy today" in out[0][1].error
        assert isinstance(out[1][1], Trajectory)

    def test_failure_carries_worker_traceback(self, small_dataset):
        spec = TrajectorySpec(
            name="boom", policy_factory=ExplodingPolicy, base_seed=3,
            n_init=15, n_test=20, max_iterations=4,
        )
        out = run_trajectories(
            small_dataset, [spec], max_workers=1, on_error="return"
        )
        failure = out[0][1]
        assert isinstance(failure, TrajectoryFailure)
        assert "RuntimeError" in failure.traceback
        assert "injected mid-run explosion" in failure.traceback

    def test_on_error_raise_names_every_failure(self, small_dataset):
        specs = [
            TrajectorySpec(name=f"boom{i}", policy_factory=ExplodingPolicy,
                           base_seed=3, traj_index=i, n_init=15, n_test=20,
                           max_iterations=4)
            for i in range(2)
        ]
        with pytest.raises(RuntimeError, match="2/2 trajectories failed"):
            run_trajectories(small_dataset, specs, max_workers=2)

    def test_on_error_validated(self, small_dataset):
        with pytest.raises(ValueError):
            run_trajectories(
                small_dataset, _specs(1), max_workers=1, on_error="ignore"
            )


class TestInterrupt:
    def test_finished_payloads_survive_cancellation(self, small_dataset):
        """An interrupt during the second trajectory keeps what was
        recorded before it: a counter from before the call, both campaign
        submissions, and the first trajectory's metrics (regression: the
        inline service dropped all three)."""
        specs = [
            TrajectorySpec(
                name=name, policy_factory=policy, base_seed=31, traj_index=i,
                n_init=15, n_test=20, max_iterations=4,
            )
            for i, (name, policy) in enumerate(
                [("counted", CountingPolicy), ("interrupted", InterruptingPolicy)]
            )
        ]
        obs.reset()
        try:
            obs.incr("test.before_run", 3)
            with pytest.raises(KeyboardInterrupt):
                run_trajectories(small_dataset, specs, max_workers=1)
            counters = obs.counters()
            assert counters.get("test.before_run") == 3
            assert counters.get("service.campaign.submitted") == 2
            assert counters.get("test.selections") == 4
        finally:
            obs.reset()
