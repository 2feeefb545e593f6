"""Integration tests for the AMR driver on the shock–bubble problem."""

import numpy as np
import pytest

from repro import obs
from repro.amr import AmrConfig, AmrDriver
from repro.mesh.balance import balance_deficits, is_balanced
from repro.solver import ShockBubbleProblem
from repro.solver.limiters import mc_limiter
from repro.solver.riemann import hllc_flux
from repro.solver.state import check_physical


@pytest.fixture(scope="module")
def small_run():
    """A short, coarse shock-bubble run shared by the checks below."""
    prob = ShockBubbleProblem(r0=0.3, rhoin=0.1, mach=2.0)
    cfg = AmrConfig(mx=8, min_level=1, max_level=3, refine_threshold=0.05)
    driver = AmrDriver(prob, cfg)
    m0, e0 = driver.conserved_totals()
    stats = driver.run(t_end=0.05)
    return driver, stats, (m0, e0)


class TestConfigValidation:
    def test_rejects_odd_mx(self):
        with pytest.raises(ValueError):
            AmrConfig(mx=9)

    def test_rejects_inverted_levels(self):
        with pytest.raises(ValueError):
            AmrConfig(min_level=3, max_level=2)

    def test_rejects_odd_ng(self):
        with pytest.raises(ValueError):
            AmrConfig(ng=3)

    def test_rejects_non_integer_domain(self):
        prob = ShockBubbleProblem(width=2.0, height=1.0)
        object.__setattr__(prob, "height", 0.7)
        with pytest.raises(ValueError):
            AmrDriver(prob, AmrConfig())


class TestInitialHierarchy:
    def test_refines_around_features(self):
        prob = ShockBubbleProblem(r0=0.3, rhoin=0.1)
        driver = AmrDriver(prob, AmrConfig(mx=8, min_level=1, max_level=3))
        hist = driver.forest.level_histogram()
        assert hist.get(3, 0) > 0, "finest level must be seeded at t=0"
        assert is_balanced(driver.forest)

    def test_patches_match_leaves(self):
        prob = ShockBubbleProblem()
        driver = AmrDriver(prob, AmrConfig(mx=8, min_level=1, max_level=2))
        leaves = set(driver.forest.leaf_list())
        assert set(driver.patches.keys()) == leaves

    def test_finest_cells_track_bubble_interface(self):
        prob = ShockBubbleProblem(r0=0.3, rhoin=0.05)
        driver = AmrDriver(prob, AmrConfig(mx=8, min_level=1, max_level=3))
        cx, cy = prob.bubble_center
        # The leaf at the bubble edge must be at the finest level.
        tree, q = driver.forest.locate(cx + prob.r0, cy)
        assert q.level == 3


class TestRunBehaviour:
    def test_advances_to_end_time(self, small_run):
        driver, stats, _ = small_run
        assert driver.t == pytest.approx(0.05, abs=1e-12)

    def test_states_stay_physical(self, small_run):
        driver, _, _ = small_run
        for p in driver.patches.values():
            assert check_physical(p.interior)

    def test_stats_populated(self, small_run):
        _, stats, _ = small_run
        assert stats.num_steps > 0
        assert stats.total_cells_advanced > 0
        assert stats.peak_bytes > 0
        assert stats.peak_patches >= 1

    def test_forest_remains_balanced(self, small_run):
        driver, _, _ = small_run
        assert is_balanced(driver.forest)

    def test_mass_increases_from_inflow_only(self, small_run):
        """Shocked gas flows in through the left boundary; mass must not
        decrease and must grow consistent with the inflow flux."""
        driver, _, (m0, _) = small_run
        m1, _ = driver.conserved_totals()
        assert m1 >= m0 - 1e-10

    def test_regrids_happened(self, small_run):
        _, stats, _ = small_run
        assert stats.num_regrids >= 1

    def test_sample_uniform_shape_and_values(self, small_run):
        driver, _, _ = small_run
        img = driver.sample_uniform(20, 10, field=0)
        assert img.shape == (20, 10)
        assert np.all(np.isfinite(img)) and np.all(img > 0)


class TestRegridding:
    def test_refinement_follows_the_shock(self):
        """As the shock advances, the refined region must move with it:
        re-locating the finest patches after some steps shows deeper
        refinement downstream of the initial shock position."""
        prob = ShockBubbleProblem(r0=0.25, rhoin=0.1, mach=2.0)
        cfg = AmrConfig(mx=8, min_level=1, max_level=3, regrid_interval=2)
        driver = AmrDriver(prob, cfg)

        def finest_max_x(d):
            best = 0.0
            for (t, q), p in d.patches.items():
                if q.level == d.forest.max_level:
                    best = max(best, p.x0 + p.mx * p.dx)
            return best

        x_before = finest_max_x(driver)
        driver.run(t_end=0.12)
        x_after = finest_max_x(driver)
        assert x_after >= x_before

    def test_max_steps_guard(self):
        prob = ShockBubbleProblem()
        driver = AmrDriver(prob, AmrConfig(mx=8, min_level=1, max_level=2))
        with pytest.raises(RuntimeError, match="max_steps"):
            driver.run(t_end=10.0, max_steps=3)

    def test_callback_invoked_every_step(self):
        prob = ShockBubbleProblem()
        driver = AmrDriver(prob, AmrConfig(mx=8, min_level=1, max_level=2))
        calls = []
        driver.run(t_end=0.02, callback=lambda d: calls.append(d.t))
        assert len(calls) == driver.stats.num_steps


def _advance(driver, nsteps=10):
    """The benchmark stepping loop: dt / step / periodic regrid."""
    dts = []
    for k in range(nsteps):
        dt = driver.compute_dt()
        driver.step(dt)
        if (k + 1) % driver.config.regrid_interval == 0:
            driver.regrid()
        dts.append(dt)
    return dts


class FullScanDriver(AmrDriver):
    """The driver with the reference full-scan rebalance."""

    def _rebalance(self, from_initial=False):
        while deficits := balance_deficits(self.forest):
            for tree, quad, _ in deficits:
                if (tree, quad) in self.patches:
                    self._refine_patch(tree, quad, from_initial)
        self._balance_seeds.clear()


class TestRebalance:
    def test_max_level_5_matches_full_scan(self):
        """A regrid whose new leaves sit deep inside an old leaf's neighbor
        quadrant (first at the regrid after step 48): the worklist must
        still refine that old leaf."""
        cfg = AmrConfig(mx=8, min_level=1, max_level=5)
        problem = ShockBubbleProblem(r0=0.2, rhoin=0.1)
        ref = FullScanDriver(problem, cfg)
        ref.run(t_end=0.03)
        driver = AmrDriver(problem, cfg)
        driver.run(t_end=0.03)
        assert len(ref.patches) == 434
        assert balance_deficits(driver.forest) == []
        assert list(driver.patches) == list(ref.patches)
        assert driver.stats.num_refinements == ref.stats.num_refinements
        for key, p in ref.patches.items():
            assert np.array_equal(driver.patches[key].interior, p.interior)


class TestCallableSolver:
    @pytest.mark.parametrize(
        "field, fn", [("riemann", hllc_flux), ("limiter", mc_limiter)]
    )
    def test_callable_runs_the_numpy_path(self, field, fn):
        """A callable solver or limiter (which fv accepts) cannot reach the
        C kernels; the driver steps it through numpy, equal to the named
        one."""
        grid = dict(mx=8, min_level=1, max_level=3)
        driver = AmrDriver(ShockBubbleProblem(), AmrConfig(**grid, **{field: fn}))
        ref_dts = _advance(driver)
        named = AmrDriver(ShockBubbleProblem(), AmrConfig(**grid))
        assert _advance(named) == ref_dts
        assert list(driver.patches) == list(named.patches)
        for key, p in named.patches.items():
            assert np.array_equal(driver.patches[key].q, p.q)
        assert driver.conserved_totals() == named.conserved_totals()
        assert not driver._stepper.compiled


class TestPhaseTimers:
    def test_phase_timers_recorded(self):
        """The per-layer AMR metrics of the end-to-end benchmark read these
        timers."""
        obs.reset()
        try:
            _advance(AmrDriver(ShockBubbleProblem(), AmrConfig(mx=8, max_level=3)), 4)
            snap = obs.snapshot()
            for phase in ("amr_plan", "amr_exchange", "amr_sweep", "amr_dt",
                          "amr_regrid"):
                assert snap[phase].calls > 0, phase
        finally:
            obs.reset()
