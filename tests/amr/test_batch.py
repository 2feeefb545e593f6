"""Batched (shape-stacked) AMR execution: bit-identity and plan tests.

The batched path (``AmrConfig.batched=True``) must be *bit-for-bit*
identical to the per-patch reference loop — not merely close: the paper's
cost/memory measurements treat solver output as deterministic ground truth,
so the fast path may reorder scheduling (chunking, axis-aware sweeps,
shared primitive conversions) but never regroup floating-point arithmetic.
These tests drive both paths through full regrid/coarsen/rebalance cycles
and compare patch interiors exactly.

Ghost-strip note: sweeps are allowed to treat face-ghost strips as scratch
(every ghost cell is rewritten by the next exchange before anything reads
it), so identity is asserted on patch *interiors*, which are the only
externally observable state.
"""

import copy

import numpy as np
import pytest

from repro.amr import AmrConfig, AmrDriver, ExchangePlan, PatchStack
from repro.amr.ghost import exchange_ghosts
from repro.amr.patch import NUM_FIELDS
from repro.amr.tagging import tag_for_refinement, tag_stack
from repro.solver import ShockBubbleProblem, kernels
from repro.solver.limiters import mc_limiter
from repro.solver.riemann import hllc_flux
from repro.solver.state import max_wave_speed

RIEMANNS = ("rusanov", "hll", "hllc")
LIMITERS = ("minmod", "superbee", "mc", "vanleer", "none")


def _problem():
    return ShockBubbleProblem(r0=0.3, rhoin=0.1, mach=2.0)


def _poisoned(stack) -> np.ndarray:
    """A copy of the stack state with every ghost cell poisoned."""
    q = stack.q.copy()
    ng = stack.ng
    for band in (np.s_[:, :, :ng], np.s_[:, :, -ng:],
                 np.s_[:, :, :, :ng], np.s_[:, :, :, -ng:]):
        q[band] = 777.0
    return q


def _run(batched, riemann="hllc", limiter="mc", mx=8, max_level=2, t_end=0.05):
    """A short shock-bubble run crossing several regrid/coarsen cycles."""
    cfg = AmrConfig(
        mx=mx,
        min_level=1,
        max_level=max_level,
        regrid_interval=2,
        riemann=riemann,
        limiter=limiter,
        batched=batched,
    )
    driver = AmrDriver(_problem(), cfg)
    step = 0
    while driver.t < t_end and step < 60:
        dt = min(driver.compute_dt(), t_end - driver.t)
        driver.step(dt)
        step += 1
        if step % cfg.regrid_interval == 0:
            driver.regrid()
    return driver


def _assert_identical(ref, fast):
    """Same hierarchy, bit-identical interiors, same stats and totals."""
    assert set(fast.patches) == set(ref.patches)
    for key, p in ref.patches.items():
        assert np.array_equal(fast.patches[key].interior, p.interior), key
    assert fast.stats.num_refinements == ref.stats.num_refinements
    assert fast.stats.num_coarsenings == ref.stats.num_coarsenings
    assert fast.conserved_totals() == ref.conserved_totals()


def _assert_stepped(fast, compiled):
    """Only HLLC with MC steps through the compiled kernels, when they
    load; every other scheme steps through numpy, which skips no patch."""
    compiled = compiled and kernels.available()
    assert fast.stack().compiled is compiled
    assert (fast.quiescent_sweeps > 0) is compiled


class TestBitIdentity:
    """Batched stepping == per-patch reference, through regrid cycles."""

    @pytest.mark.parametrize("riemann", RIEMANNS)
    def test_riemann_solvers(self, riemann):
        fast = _run(True, riemann=riemann)
        _assert_identical(_run(False, riemann=riemann), fast)
        _assert_stepped(fast, compiled=riemann == "hllc")

    @pytest.mark.parametrize("limiter", LIMITERS)
    def test_limiters(self, limiter):
        fast = _run(True, limiter=limiter)
        _assert_identical(_run(False, limiter=limiter), fast)
        _assert_stepped(fast, compiled=limiter == "mc")

    @pytest.mark.parametrize(
        "field, fn", [("riemann", hllc_flux), ("limiter", mc_limiter)]
    )
    def test_callable_scheme_steps_numpy(self, field, fn):
        fast = _run(True, **{field: fn})
        _assert_identical(_run(False, **{field: fn}), fast)
        _assert_stepped(fast, compiled=False)

    def test_deeper_hierarchy(self):
        """Three levels: the stack crosses coarse-fine interfaces heavily."""
        _assert_identical(
            _run(False, max_level=3, t_end=0.03),
            _run(True, max_level=3, t_end=0.03),
        )

    def test_compute_dt_matches_patch_loop(self):
        driver = _run(True)
        cfg = driver.config
        dt_ref = np.inf
        for p in driver.patches.values():
            smax = max_wave_speed(p.interior, cfg.gamma)
            if smax > 0:
                dt_ref = min(dt_ref, cfg.cfl * p.dx / smax)
        assert driver.compute_dt() == dt_ref

    def test_sample_uniform_matches_locate(self):
        """Vectorized sampling == brute-force per-point leaf lookup."""
        driver = _run(True)
        nx = ny = 21
        out = driver.sample_uniform(nx, ny)
        w, h = driver.forest.domain_extent()
        for i in [0, 7, 13, nx - 1]:
            for j in [0, 5, 11, ny - 1]:
                x = (i + 0.5) * (w / nx)
                y = (j + 0.5) * (h / ny)
                tree, quad = driver.forest.locate(x, y)
                p = driver.patches[(tree, quad)]
                ci = min(int((x - p.x0) / p.dx), p.mx - 1)
                cj = min(int((y - p.y0) / p.dx), p.mx - 1)
                assert out[i, j] == p.interior[0, ci, cj]

    def test_tag_stack_matches_scalar_tagging(self):
        driver = _run(True)
        stack = driver.stack()
        tags = tag_stack(stack.interior, 0.05, None)
        for key, tag in zip(stack.keys, tags):
            assert tag == tag_for_refinement(driver.patches[key].interior, 0.05)

    def test_tag_stack_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            tag_stack(np.zeros((1, 4, 4, 4)), 0.05, 0.1)


class TestExchangePlan:
    """The compiled plan reproduces exchange_ghosts exactly."""

    @pytest.fixture(scope="class")
    def mixed_driver(self):
        """A hierarchy exercising all four plan group kinds."""
        cfg = AmrConfig(mx=8, min_level=1, max_level=3, batched=True)
        return AmrDriver(_problem(), cfg)

    def test_all_group_kinds_present(self, mixed_driver):
        stack = mixed_driver.stack()
        plan = stack.plan
        assert (plan.copy_dst.size and plan.neg_dst.size
                and plan.coarse_gather.size and plan.fine_gather.size)
        assert plan.copy_dst.shape == plan.copy_src.shape
        assert plan.neg_dst.shape == plan.neg_src.shape
        assert len(plan.coarse_gather) == len(plan.coarse_scatter)
        assert len(plan.fine_gather) == len(plan.fine_scatter)
        # Every edge ghost cell of every patch has exactly one writer.
        written = np.concatenate([
            plan.copy_dst, plan.neg_dst,
            plan.coarse_scatter.ravel(), plan.fine_scatter.ravel(),
        ])
        assert np.unique(written).size == written.size == (
            len(stack) * 4 * NUM_FIELDS * stack.ng * stack.mx
        )

    def test_plan_matches_exchange_ghosts(self, mixed_driver, monkeypatch):
        """Both executors: the compiled kernels, then numpy as without gcc."""
        driver = mixed_driver
        stack = driver.stack()
        # Poison every ghost cell, so a ghost the plan misses cannot keep
        # the value an earlier exchange left there.
        ng = stack.ng
        for band in (np.s_[:, :, :ng], np.s_[:, :, -ng:],
                     np.s_[:, :, :, :ng], np.s_[:, :, :, -ng:]):
            stack.q[band] = 777.0
        poisoned = stack.q.copy()
        # Reference: detach copies of every patch and run the per-patch path.
        ref = {key: p.q.copy() for key, p in driver.patches.items()}

        class _Shim:
            def __init__(self, patch, q):
                self.q = q
                self.mx = patch.mx
                self.ng = patch.ng

        shims = {
            key: _Shim(driver.patches[key], ref[key]) for key in driver.patches
        }
        exchange_ghosts(driver.forest, shims, driver.config.bcs)
        for executor in ("kernels", "numpy"):
            if executor == "numpy":
                monkeypatch.setattr(kernels, "load", lambda: None)
            stack.q[...] = poisoned
            stack.exchange()
            for key, p in driver.patches.items():
                assert np.array_equal(p.q, ref[key]), (executor, key)

    @pytest.fixture(scope="class")
    def signed_stack(self):
        """A mixed-level hierarchy (coarse-fine + same-level + wall traffic)."""
        cfg = AmrConfig(mx=8, min_level=1, max_level=3, batched=True)
        driver = AmrDriver(ShockBubbleProblem(), cfg)
        s = driver.stack()
        levels = {q.level for _, q in driver.patches}
        assert len(levels) >= 2, "fixture must exercise coarse-fine exchange"
        # Signed, non-zero interiors: the shock-bubble state has no
        # wall-normal momentum at the reflecting walls, which would hide a
        # sign error there.
        interior = s.interior
        interior[...] = np.random.default_rng(0).uniform(-1.0, 1.0, interior.shape)
        return s

    @pytest.mark.skipif(not kernels.available(), reason="no compiled kernels")
    def test_matches_plan_execute_kernels(self, signed_stack, monkeypatch):
        """On the same poisoned stack, the compiled executor and numpy
        write every ghost cell bit for bit alike."""
        stack = signed_stack
        got = _poisoned(stack)
        stack.plan.execute(got)
        monkeypatch.setattr(kernels, "load", lambda: None)
        ref = _poisoned(stack)
        stack.plan.execute(ref)
        assert not np.array_equal(got, _poisoned(stack))
        assert np.array_equal(got, ref)

    def test_program_is_int32(self, mixed_driver):
        plan = mixed_driver.stack().plan
        for arr in (plan.copy_dst, plan.copy_src, plan.neg_dst, plan.neg_src,
                    plan.coarse_gather, plan.coarse_scatter,
                    plan.fine_gather, plan.fine_scatter):
            assert arr.dtype == np.int32 and arr.flags.c_contiguous

    def test_unbalanced_forest_fails_at_build_time(self, mixed_driver):
        driver = mixed_driver
        # Drop one fine patch: the plan build must notice the hole.
        patches = dict(driver.patches)
        finest = max(patches, key=lambda k: k[1].level)
        del patches[finest]
        index = {key: i for i, key in enumerate(patches)}
        with pytest.raises(KeyError, match="2:1"):
            ExchangePlan.build(
                driver.forest, patches, index, driver.config.mx,
                driver.config.ng, driver.config.bcs,
            )

    def test_rejects_unsupported_bc(self, mixed_driver):
        driver = mixed_driver
        with pytest.raises(ValueError, match="unsupported"):
            ExchangePlan.build(
                driver.forest, driver.patches,
                {key: i for i, key in enumerate(driver.patches)},
                driver.config.mx, driver.config.ng,
                ("periodic", "periodic", "periodic", "periodic"),
            )


def _physical_interiors(stack, gamma=1.4, seed=0):
    """Seeded random physical states in every interior cell of ``stack``."""
    rng = np.random.default_rng(seed)
    shape = stack.interior[:, 0].shape
    rho, p = rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape)
    u, v = rng.uniform(-0.5, 0.5, shape), rng.uniform(-0.5, 0.5, shape)
    interior = stack.interior
    interior[:, 0] = rho
    interior[:, 1] = rho * u
    interior[:, 2] = rho * v
    interior[:, 3] = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)


class TestExchangeHalves:
    """The exchange before a sweep runs only that sweep's half of the
    program: the halves split the full program's ghost cells by face, and a
    sweep after its half gives what it gives after the full exchange."""

    @pytest.fixture(scope="class")
    def driver(self):
        cfg = AmrConfig(mx=8, min_level=1, max_level=3, batched=True)
        driver = AmrDriver(_problem(), cfg)
        _physical_interiors(driver.stack(), cfg.gamma)
        return driver

    @pytest.mark.parametrize("executor", ["kernels", "numpy"])
    def test_halves_split_the_program_by_face(self, driver, executor, monkeypatch):
        if executor == "numpy":
            monkeypatch.setattr(kernels, "load", lambda: None)
        stack = driver.stack()
        plan, ng, n = stack.plan, stack.ng, stack.q.shape[-1]
        poisoned = _poisoned(stack)
        runs = {}
        for axis in (0, 1, None):
            q = poisoned.copy()
            plan.execute(q, axis)
            runs[axis] = q
        written = {axis: q != poisoned for axis, q in runs.items()}
        assert not (written[0] & written[1]).any()
        assert np.array_equal(written[0] | written[1], written[None])
        for axis in (0, 1):
            assert np.array_equal(runs[axis][written[axis]],
                                  runs[None][written[axis]])
        # x-face strips are rows of interior columns, y-face strips the
        # transpose, and together they are every edge ghost cell.
        edge = np.zeros(n, dtype=bool)
        edge[:ng] = edge[-ng:] = True
        x_strips = edge[:, None] & ~edge[None, :]
        assert np.array_equal(written[0], np.broadcast_to(x_strips, poisoned.shape))
        assert np.array_equal(written[1], np.broadcast_to(x_strips.T, poisoned.shape))

    @pytest.mark.parametrize("executor", ["kernels", "numpy"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_after_its_half_matches_full_exchange(
        self, driver, executor, axis, monkeypatch
    ):
        if executor == "numpy":
            monkeypatch.setattr(kernels, "load", lambda: None)
        # A stack of copies of the driver's patches, built (and so bound)
        # under this executor.
        stack = PatchStack(
            driver.forest,
            {key: copy.copy(p) for key, p in driver.patches.items()},
            driver.config,
        )
        assert stack.compiled is (executor == "kernels" and kernels.available())
        sx, sy = stack.wave_speeds()
        dt_dx = 0.3 * stack.dx.min() / max(sx.max(), sy.max()) / stack.dx
        poisoned = _poisoned(stack)
        interiors = []
        for half in (axis, None):
            stack.q[...] = poisoned
            stack.plan.execute(stack.q, half)
            stack.sweep(dt_dx, axis)
            interiors.append(stack.interior.copy())
        assert not np.array_equal(interiors[0], driver.stack().interior)
        assert np.array_equal(interiors[0].view(np.uint64), interiors[1].view(np.uint64))


class TestStackLifecycle:
    """View aliasing and plan invalidation across hierarchy changes."""

    def _driver(self, **kw):
        cfg = AmrConfig(mx=8, min_level=1, max_level=2, batched=True, **kw)
        return AmrDriver(_problem(), cfg)

    def test_patches_alias_stack_storage(self):
        driver = self._driver()
        stack = driver.stack()
        for key, p in driver.patches.items():
            assert p.q.base is stack.q
            i = stack.index[key]
            p.q[0, 3, 3] = 123.456
            assert stack.q[i, 0, 3, 3] == 123.456

    def test_stack_is_cached_while_hierarchy_static(self):
        driver = self._driver()
        assert driver.stack() is driver.stack()

    def test_refine_invalidates_plan(self):
        """Regression: a stale plan would exchange into dropped arrays."""
        driver = self._driver()
        stale = driver.stack()
        tree, quad = min(
            driver.patches, key=lambda k: (k[1].level, k[1].x, k[1].y)
        )
        driver._refine_patch(tree, quad, from_initial=False)
        driver._rebalance()
        fresh = driver.stack()
        assert fresh is not stale
        assert fresh.covers(driver.patches)
        assert not stale.covers(driver.patches)

    def test_noop_regrid_keeps_cached_stack(self):
        """A regrid that changes nothing must not force a rebuild."""
        driver = self._driver()
        before = driver.stack()
        refines = driver.stats.num_refinements
        coarsens = driver.stats.num_coarsenings
        driver.regrid()
        if (
            driver.stats.num_refinements == refines
            and driver.stats.num_coarsenings == coarsens
        ):
            assert driver.stack() is before
        else:  # pragma: no cover - depends on tagging thresholds
            assert driver.stack() is not before

    def test_step_makes_no_covers_call(self, monkeypatch):
        """The driver finds its stack in O(1): no step visits every patch."""
        driver = self._driver()
        calls = []
        covers = PatchStack.covers
        monkeypatch.setattr(
            PatchStack, "covers",
            lambda stack, patches: calls.append(1) or covers(stack, patches),
        )
        before = driver.stack()
        for _ in range(3):
            driver.step(driver.compute_dt())
            assert driver._all_physical()
        assert driver.stack() is before
        assert calls == []

    def test_leaf_changing_regrid_rebuilds_stack(self):
        driver = AmrDriver(_problem(), AmrConfig(mx=8, min_level=1, max_level=3))
        for _ in range(20):
            before, leaves = driver.stack(), list(driver.patches)
            driver.step(driver.compute_dt())
            driver.regrid()
            if list(driver.patches) != leaves:
                break
        else:  # pragma: no cover - the shock moves within 20 steps
            pytest.fail("no regrid changed the leaves")
        fresh = driver.stack()
        assert fresh is not before and fresh.covers(driver.patches)
        assert len(fresh) == len(driver.patches)

    def test_covers_detects_foreign_patch(self):
        """covers() is structural: a rebound patch array flips it off."""
        driver = self._driver()
        stack = driver.stack()
        assert stack.covers(driver.patches)
        key = next(iter(driver.patches))
        driver.patches[key].q = driver.patches[key].q.copy()
        assert not stack.covers(driver.patches)

    def test_empty_hierarchy_rejected(self):
        driver = self._driver()
        with pytest.raises(ValueError, match="empty"):
            PatchStack(driver.forest, {}, driver.config)

    def test_total_bytes_matches_patch_sum(self):
        driver = self._driver()
        stack = driver.stack()
        assert stack.total_bytes() == sum(
            p.nbytes for p in driver.patches.values()
        )

    def test_check_physical_flags_bad_cell(self):
        driver = self._driver()
        stack = driver.stack()
        assert stack.check_physical()
        key = next(iter(driver.patches))
        driver.patches[key].interior[0, 2, 2] = -1.0
        assert not stack.check_physical()
