"""Tests for the end-to-end job runner."""

import numpy as np
import pytest

from repro.machine.runner import JobConfig, JobRunner


class TestJobConfig:
    def test_valid(self):
        c = JobConfig(p=4, mx=16, maxlevel=4, r0=0.3, rhoin=0.1)
        assert c.as_features() == (4.0, 16.0, 4.0, 0.3, 0.1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(p=0, mx=16, maxlevel=4, r0=0.3, rhoin=0.1),
            dict(p=4, mx=7, maxlevel=4, r0=0.3, rhoin=0.1),
            dict(p=4, mx=16, maxlevel=0, r0=0.3, rhoin=0.1),
            dict(p=4, mx=16, maxlevel=4, r0=1.2, rhoin=0.1),
            dict(p=4, mx=16, maxlevel=4, r0=0.3, rhoin=-0.1),
            dict(p=float("nan"), mx=16, maxlevel=4, r0=0.3, rhoin=0.1),
            dict(p=4, mx=16, maxlevel=float("nan"), r0=0.3, rhoin=0.1),
            dict(p=4, mx=16, maxlevel=4, r0=0.3, rhoin=float("nan")),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            JobConfig(**kw)


class TestHorizon:
    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan")])
    def test_runner_rejects_a_horizon_that_is_not_positive(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive"):
            JobRunner(t_end=t_end)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan")])
    def test_simulation_rejects_a_horizon_that_is_not_positive(self, t_end):
        c = JobConfig(p=4, mx=8, maxlevel=3, r0=0.2, rhoin=0.1)
        with pytest.raises(ValueError, match="t_end must be positive"):
            JobRunner().work_from_simulation(c, t_end=t_end)


class TestSurrogateRuns:
    @pytest.fixture
    def runner(self):
        return JobRunner()

    def test_record_fields(self, runner, rng):
        c = JobConfig(p=8, mx=16, maxlevel=4, r0=0.3, rhoin=0.1)
        r = runner.run(c, rng, job_id=7)
        assert r.job_id == 7
        assert r.nodes == 8
        assert r.wall_seconds > 0 and r.max_rss_MB > 0
        assert r.features == c.as_features()
        assert not r.failed

    def test_noise_changes_repeats_slightly(self, runner):
        c = JobConfig(p=8, mx=16, maxlevel=4, r0=0.3, rhoin=0.1)
        rng = np.random.default_rng(0)
        walls = [runner.run(c, rng).wall_seconds for _ in range(30)]
        walls = np.array(walls)
        cv = walls.std() / walls.mean()
        assert 0.01 < cv < 0.15  # a few percent machine variability

    def test_deterministic_given_rng(self, runner):
        c = JobConfig(p=8, mx=16, maxlevel=4, r0=0.3, rhoin=0.1)
        r1 = runner.run(c, np.random.default_rng(5))
        r2 = runner.run(c, np.random.default_rng(5))
        assert r1.wall_seconds == r2.wall_seconds
        assert r1.max_rss_MB == r2.max_rss_MB

    def test_memory_limit_marks_failed(self, runner, rng):
        big = JobConfig(p=4, mx=32, maxlevel=6, r0=0.5, rhoin=0.02)
        r = runner.run(big, rng, memory_limit_MB=1.0)
        assert r.failed

    def test_accounting_bug_applied_on_request(self, runner):
        cheap = JobConfig(p=32, mx=8, maxlevel=3, r0=0.2, rhoin=0.5)
        rng = np.random.default_rng(0)
        rows = [
            runner.run(cheap, rng, apply_accounting_bug=True) for _ in range(50)
        ]
        assert any(not r.rss_reported for r in rows)

    def test_unknown_mode_rejected(self, runner, rng):
        c = JobConfig(p=4, mx=8, maxlevel=3, r0=0.3, rhoin=0.1)
        with pytest.raises(ValueError):
            runner.run(c, rng, mode="psychic")

    def test_response_shape_expectations(self, runner, rng):
        """The qualitative gradients AL must learn: deeper refinement and
        bigger boxes cost more; more nodes means more node-hours for small
        jobs (overhead-dominated)."""
        base = JobConfig(p=8, mx=16, maxlevel=4, r0=0.3, rhoin=0.1)
        deeper = JobConfig(p=8, mx=16, maxlevel=5, r0=0.3, rhoin=0.1)
        r_base = runner.run(base, np.random.default_rng(1))
        r_deep = runner.run(deeper, np.random.default_rng(1))
        assert r_deep.cost_node_hours > 2.0 * r_base.cost_node_hours
        assert r_deep.max_rss_MB > r_base.max_rss_MB


class TestSimulateMode:
    def test_simulate_runs_real_amr(self, rng):
        runner = JobRunner(t_end=0.05)
        c = JobConfig(p=4, mx=8, maxlevel=2, r0=0.3, rhoin=0.2)
        r = runner.run(c, rng, mode="simulate")
        assert r.wall_seconds > 0 and r.max_rss_MB > 0

    def test_work_from_simulation_levels(self, rng):
        runner = JobRunner()
        c = JobConfig(p=4, mx=8, maxlevel=3, r0=0.3, rhoin=0.1)
        work = runner.work_from_simulation(c, t_end=0.02)
        levels = dict(work.patches_per_level)
        assert max(levels) == 3
        assert work.num_steps > 0
