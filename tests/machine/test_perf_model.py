"""Tests for the analytic work estimate and the performance model.

These encode the qualitative response-surface properties the paper's AL
must learn: multiplicative growth in maxlevel and mx, cost increase with
bubble size and density contrast, strong-scaling speedup with rolloff.
"""

import pytest

from repro.machine.perf_model import (
    PerformanceModel,
    WorkEstimate,
    complexity_factor,
    estimate_work,
)
from repro.machine.spec import EDISON


class TestComplexityFactor:
    def test_no_contrast_is_one(self):
        assert complexity_factor(1.0) == pytest.approx(1.0)

    def test_grows_with_contrast(self):
        assert complexity_factor(0.02) > complexity_factor(0.1) > complexity_factor(0.5)

    def test_symmetric_in_log_contrast(self):
        # A heavy bubble is as feature-rich as a light one of inverse ratio.
        assert complexity_factor(0.1) == pytest.approx(complexity_factor(10.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            complexity_factor(0.0)


class TestEstimateWork:
    def test_steps_scale_with_resolution(self):
        w1 = estimate_work(mx=8, max_level=3, r0=0.3, rhoin=0.1)
        w2 = estimate_work(mx=16, max_level=3, r0=0.3, rhoin=0.1)
        w3 = estimate_work(mx=8, max_level=4, r0=0.3, rhoin=0.1)
        assert w2.num_steps == pytest.approx(2 * w1.num_steps, rel=0.01)
        assert w3.num_steps == pytest.approx(2 * w1.num_steps, rel=0.01)

    def test_patches_grow_with_level(self):
        w3 = estimate_work(mx=8, max_level=3, r0=0.3, rhoin=0.1)
        w6 = estimate_work(mx=8, max_level=6, r0=0.3, rhoin=0.1)
        assert w6.total_patches > 4 * w3.total_patches

    def test_patches_grow_with_bubble_and_contrast(self):
        base = estimate_work(mx=8, max_level=5, r0=0.2, rhoin=0.5)
        big = estimate_work(mx=8, max_level=5, r0=0.5, rhoin=0.5)
        light = estimate_work(mx=8, max_level=5, r0=0.2, rhoin=0.02)
        assert big.total_patches > base.total_patches
        assert light.total_patches > base.total_patches

    def test_cells_per_step(self):
        w = estimate_work(mx=16, max_level=3, r0=0.3, rhoin=0.1)
        assert w.cells_per_step == w.total_patches * 256

    def test_level_population_surface_dominated(self):
        """Band patch counts roughly double per level (perimeter scaling)."""
        w = estimate_work(mx=8, max_level=6, r0=0.3, rhoin=0.1)
        per_level = dict(w.patches_per_level)
        assert per_level[5] > 1.5 * per_level[4] > 2.0 * per_level[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_work(mx=8, max_level=2, r0=0.3, rhoin=0.1, min_level=3)
        with pytest.raises(ValueError):
            estimate_work(mx=8, max_level=3, r0=1.5, rhoin=0.1)
        for t_end in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="t_end must be positive"):
                estimate_work(mx=8, max_level=3, r0=0.3, rhoin=0.1, t_end=t_end)


class TestPerformanceModel:
    @pytest.fixture
    def perf(self):
        return PerformanceModel(EDISON, seconds_per_cell=5e-6)

    @pytest.fixture
    def big_work(self):
        return estimate_work(mx=32, max_level=6, r0=0.4, rhoin=0.05)

    @pytest.fixture
    def small_work(self):
        return estimate_work(mx=8, max_level=3, r0=0.2, rhoin=0.5)

    def test_more_nodes_faster_when_compute_bound(self, perf, big_work):
        assert perf.wall_time(big_work, 4) > perf.wall_time(big_work, 32)

    def test_scaling_efficiency_below_one(self, perf, big_work):
        eff = perf.parallel_efficiency(big_work, 32)
        assert 0 < eff < 1.0

    def test_small_jobs_scale_poorly(self, perf, small_work, big_work):
        """Strong-scaling rolloff: the small problem gains less from 32
        nodes than the large one."""
        eff_small = perf.parallel_efficiency(small_work, 32)
        eff_big = perf.parallel_efficiency(big_work, 32)
        assert eff_small < eff_big

    def test_node_hours_relation(self, perf, big_work):
        nh = perf.node_hours(big_work, 8)
        assert nh == pytest.approx(perf.wall_time(big_work, 8) * 8 / 3600.0)

    def test_wall_time_includes_startup(self, perf):
        tiny = WorkEstimate(
            patches_per_level=((1, 1),), mx=8, ng=2, num_steps=0, num_regrids=0
        )
        assert perf.wall_time(tiny, 1) == pytest.approx(perf.startup_s)

    def test_load_imbalance_ceiling_effect(self, perf):
        # 3 patches on 2 ranks: ceil(1.5)/1.5 = 4/3.
        assert perf.load_imbalance(3, 2) == pytest.approx(4.0 / 3.0)
        # Many patches: residual imbalance floor.
        assert perf.load_imbalance(10_000, 2) == pytest.approx(1.0 + perf.imbalance_base)

    def test_load_imbalance_validation(self, perf):
        with pytest.raises(ValueError):
            perf.load_imbalance(0, 2)

    def test_cost_monotone_in_problem_size(self, perf, small_work, big_work):
        for nodes in (4, 32):
            assert perf.node_hours(big_work, nodes) > perf.node_hours(small_work, nodes)
