"""Bit-identity of the sharded parallel AMR driver vs serial batched.

The contract (DESIGN.md, "Parallel AMR"): for any worker count, with or
without the compiled kernels, :class:`ParallelAmrDriver` produces the
same dt sequence, the same regrid decisions (leaf sets in the same Morton
order), the same state arrays and the same conserved totals as the serial
batched driver — bit for bit, across regrids.

``REPRO_BENCH_WORKERS`` (the CI bench-smoke setting) joins the worker
counts exercised here, so the suite pins exactly the configuration CI
runs at.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.amr import AmrConfig, AmrDriver
from repro.amr.parallel import ParallelAmrDriver
from repro.core.parallel import ShardWorkerError, ShardWorkerPool
from repro.mesh.balance import balance_deficits
from repro.solver.initial_conditions import ShockBubbleProblem
from repro.solver.limiters import mc_limiter
from repro.solver.riemann import hllc_flux

MX, MAX_LEVEL, NSTEPS = 8, 3, 10

_env_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
WORKER_COUNTS = sorted({1, 2, 3} | ({_env_workers} if _env_workers > 0 else set()))


def _config() -> AmrConfig:
    return AmrConfig(mx=MX, min_level=1, max_level=MAX_LEVEL, batched=True)


def _advance(driver, nsteps=NSTEPS):
    """The benchmark stepping loop: dt / step / periodic regrid."""
    dts = []
    for k in range(nsteps):
        dt = driver.compute_dt()
        driver.step(dt)
        if (k + 1) % driver.config.regrid_interval == 0:
            driver.regrid()
        dts.append(dt)
    return dts


@pytest.fixture(scope="module")
def serial_reference():
    driver = AmrDriver(ShockBubbleProblem(), _config())
    dts = _advance(driver)
    return driver, dts


def _assert_identical(parallel, serial):
    assert list(parallel.patches) == list(serial.patches), (
        "regrid decisions (leaf set / Morton order) diverged"
    )
    for key, sp in serial.patches.items():
        assert np.array_equal(parallel.patches[key].q, sp.q)
    assert parallel.conserved_totals() == serial.conserved_totals()


class TestBitIdentity:
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_matches_serial_across_regrids(self, serial_reference, num_workers):
        serial, ref_dts = serial_reference
        with ParallelAmrDriver(
            ShockBubbleProblem(), _config(), num_workers=num_workers
        ) as driver:
            dts = _advance(driver)
            assert dts == ref_dts, "dt sequence must match bit for bit"
            _assert_identical(driver, serial)

    def test_matches_serial_numpy_fallback(self, serial_reference):
        """The workers' pure-numpy path (no C compiler) is equally exact."""
        serial, ref_dts = serial_reference
        with ParallelAmrDriver(
            ShockBubbleProblem(), _config(), num_workers=2, use_kernels=False
        ) as driver:
            dts = _advance(driver)
            assert dts == ref_dts
            _assert_identical(driver, serial)

    def test_step_records_match_serial(self, serial_reference):
        serial, _ = serial_reference
        with ParallelAmrDriver(
            ShockBubbleProblem(), _config(), num_workers=2
        ) as driver:
            _advance(driver)
            for mine, ref in zip(driver.stats.steps, serial.stats.steps):
                assert mine.dt == ref.dt
                assert mine.num_patches == ref.num_patches
                assert mine.cells_advanced == ref.cells_advanced


class FullScanDriver(AmrDriver):
    """The serial driver with the reference full-scan rebalance."""

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
        still refine that old leaf, in both drivers."""
        cfg = AmrConfig(mx=8, min_level=1, max_level=5)
        problem = ShockBubbleProblem(r0=0.2, rhoin=0.1)
        ref = FullScanDriver(problem, cfg)
        ref.run(t_end=0.03)
        serial = AmrDriver(problem, cfg)
        serial.run(t_end=0.03)
        with ParallelAmrDriver(problem, cfg, num_workers=2) as par:
            par.run(t_end=0.03)
        assert len(ref.patches) == 434
        for driver in (serial, par):
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
        C kernels; both drivers step it through numpy, equal to the named
        one."""
        cfg = AmrConfig(mx=MX, min_level=1, max_level=MAX_LEVEL, **{field: fn})
        serial = AmrDriver(ShockBubbleProblem(), cfg)
        ref_dts = _advance(serial)
        with ParallelAmrDriver(ShockBubbleProblem(), cfg, num_workers=2) as driver:
            dts = _advance(driver)
            assert dts == ref_dts
            _assert_identical(driver, serial)
        named = AmrDriver(ShockBubbleProblem(), _config())
        assert _advance(named) == ref_dts
        _assert_identical(serial, named)
        assert not serial._stepper.compiled


class TestHaloObservability:
    def test_counters_drain_home(self):
        obs.reset()
        with ParallelAmrDriver(
            ShockBubbleProblem(), _config(), num_workers=2
        ) as driver:
            _advance(driver, nsteps=4)
            halo = driver.sharded
            assert halo is not None and halo.num_shards == 2
            driver.drain_observability()
        counters = obs.counters()
        # Two exchange phases per step, both workers counted.
        assert counters["amr.shard.exchanges"] == 2 * 4 * 2
        assert counters["amr.halo.messages"] > 0
        assert counters["amr.halo.gather_bytes"] > 0
        assert counters["amr.halo.scatter_bytes"] > 0
        assert counters["amr.halo.local_bytes"] > 0

    def test_parent_phase_timers_recorded(self):
        obs.reset()
        with ParallelAmrDriver(
            ShockBubbleProblem(), _config(), num_workers=2
        ) as driver:
            _advance(driver, nsteps=2)
        snap = obs.snapshot()
        for phase in ("amr_exchange", "amr_sweep", "amr_parallel_stall",
                      "amr_shard_install", "amr_dt"):
            assert snap[phase].calls > 0, phase


class TestLifecycle:
    def test_requires_batched_config(self):
        cfg = AmrConfig(mx=MX, min_level=1, max_level=MAX_LEVEL, batched=False)
        with pytest.raises(ValueError, match="batched"):
            ParallelAmrDriver(ShockBubbleProblem(), cfg)

    def test_close_is_idempotent_and_falls_back_to_serial(self):
        driver = ParallelAmrDriver(ShockBubbleProblem(), _config(), num_workers=2)
        _advance(driver, nsteps=2)
        totals = driver.conserved_totals()
        driver.close()
        driver.close()
        # The driver keeps stepping after close() on private serial storage.
        assert driver.conserved_totals() == totals
        dt = driver.compute_dt()
        driver.step(dt)
        assert np.isfinite(driver.conserved_totals()[0])

    def test_worker_error_propagates_with_traceback(self):
        pool = ShardWorkerPool(2)
        try:
            with pytest.raises(ShardWorkerError, match="unknown shard command"):
                pool.broadcast("no-such-phase")
            # The pool survives a failed phase; workers keep serving.
            assert pool.broadcast("ping") == [0, 1]
        finally:
            pool.close()

    def test_pool_close_twice(self):
        pool = ShardWorkerPool(1)
        pool.close()
        pool.close()
