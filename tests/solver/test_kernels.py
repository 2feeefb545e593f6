"""Bit-exact parity of the compiled C kernels vs the numpy reference.

The batched AMR driver steps its stack through ``repro.solver.kernels``
when a C compiler is available; its bit-identity with the numpy path
therefore rests on each kernel replicating the numpy expression tree
exactly (same operation order, same guards, compiled with
``-ffp-contract=off``).  Every comparison here is ``array_equal`` — no
tolerances.
"""

import numpy as np
import pytest

from repro.amr.batch import stack_wave_speeds
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.solver import kernels
from repro.solver.fv import _sweep_stack

pytestmark = pytest.mark.skipif(
    not kernels.available(),
    reason=f"compiled kernels unavailable: {kernels.load_error()}",
)

MX, NG = 8, 2
N = MX + 2 * NG
GAMMA = 1.4


def _random_stack(seed: int, P: int = 3) -> np.ndarray:
    """A (P, 4, N, N) conservative state with positive density/pressure."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, (P, N, N))
    u = rng.uniform(-0.5, 0.5, (P, N, N))
    v = rng.uniform(-0.5, 0.5, (P, N, N))
    p = rng.uniform(0.5, 2.0, (P, N, N))
    q = np.empty((P, 4, N, N))
    q[:, 0] = rho
    q[:, 1] = rho * u
    q[:, 2] = rho * v
    q[:, 3] = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v)
    return q


class TestFusedSweep:
    @pytest.mark.parametrize("riemann", sorted(kernels.RIEMANN_IDS))
    @pytest.mark.parametrize("limiter", sorted(kernels.LIMITER_IDS))
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_numpy_sweep(self, riemann, limiter, axis):
        q = _random_stack(seed=hash((riemann, limiter, axis)) % 2**32)
        dt_dx = np.full(len(q), 0.01)
        ref = q.copy()
        _sweep_stack(ref, dt_dx, NG, "x" if axis == 0 else "y",
                     riemann, limiter, GAMMA)
        got = q.copy()
        kernels.fused_sweep(got, dt_dx, NG, axis, riemann, limiter, GAMMA)
        assert np.array_equal(got, ref)

    def test_per_patch_dt_dx(self):
        q = _random_stack(seed=7, P=4)
        dt_dx = np.array([0.005, 0.01, 0.02, 0.04])
        ref = q.copy()
        _sweep_stack(ref, dt_dx, NG, "x", "hllc", "mc", GAMMA)
        got = q.copy()
        kernels.fused_sweep(got, dt_dx, NG, 0, "hllc", "mc", GAMMA)
        assert np.array_equal(got, ref)

    def test_rejects_noncontiguous(self):
        q = _random_stack(seed=3)[:, :, ::2, :]
        with pytest.raises(ValueError):
            kernels.fused_sweep(q, np.ones(len(q)), NG, 0, "hllc", "mc", GAMMA)


class TestWaveSpeeds:
    def test_matches_numpy(self):
        q = _random_stack(seed=11, P=5)
        sx = np.empty(5)
        sy = np.empty(5)
        kernels.wave_speeds(q, NG, GAMMA, sx, sy)
        rx, ry = stack_wave_speeds(q[:, :, NG:-NG, NG:-NG], GAMMA)
        assert np.array_equal(sx, rx)
        assert np.array_equal(sy, ry)

    def test_rejects_bad_buffers(self):
        q = _random_stack(seed=5, P=4)
        ok = np.empty(4)
        with pytest.raises(ValueError):
            kernels.wave_speeds(q[:, :, ::2], NG, GAMMA, ok, ok.copy())
        with pytest.raises(ValueError):
            kernels.wave_speeds(q, NG, GAMMA, np.empty(3), ok)
        with pytest.raises(ValueError):
            kernels.wave_speeds(q, NG, GAMMA, ok, np.empty(8)[::2])


class TestIndexedCopies:
    # dst and src must be disjoint (ghost cells vs interiors in the exchange
    # programs): the C loop copies element by element, numpy's fancy
    # assignment gathers the whole source first.

    def test_copy_indexed(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(200)
        perm = rng.permutation(200)
        dst = perm[:60].astype(np.int32)
        src = perm[60:120].astype(np.int32)
        ref = flat.copy()
        ref[dst] = ref[src]
        got = flat.copy()
        kernels.copy_indexed(got, dst, src)
        assert np.array_equal(got, ref)

    def test_copy_indexed_negated(self):
        rng = np.random.default_rng(1)
        flat = rng.standard_normal(100)
        perm = rng.permutation(100)
        dst = perm[:30].astype(np.int32)
        src = perm[30:60].astype(np.int32)
        ref = flat.copy()
        ref[dst] = ref[src] * -1.0
        got = flat.copy()
        kernels.copy_indexed(got, dst, src, -1.0)
        assert np.array_equal(got, ref)

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(2)
        flat = rng.standard_normal(150)
        idx = rng.permutation(150)[:40].astype(np.int32)
        out = np.empty(40)
        kernels.gather_indexed(flat, idx, out)
        assert np.array_equal(out, flat[idx])
        vals = rng.standard_normal(40)
        ref = flat.copy()
        ref[idx] = vals
        kernels.scatter_indexed(flat, idx, vals)
        assert np.array_equal(flat, ref)


class TestTransferBlocks:
    def test_prolong_blocks_matches_numpy(self):
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((6, 1, 4))  # program shape: (K*4, ng//2, mx//2)
        dst = np.empty((6, 2, 8))
        kernels.prolong_blocks(
            np.ascontiguousarray(blocks.ravel()), 1, 4, dst.reshape(-1)
        )
        assert np.array_equal(dst, prolong_patch(blocks))

    def test_restrict_blocks_matches_numpy(self):
        rng = np.random.default_rng(4)
        wide = rng.standard_normal((5, 4, 8))  # program shape: (K*4, 2*ng, mx)
        dst = np.empty((5, 2, 4))
        kernels.restrict_blocks(
            np.ascontiguousarray(wide.ravel()), 4, 8, dst.reshape(-1)
        )
        assert np.array_equal(dst, restrict_area_average(wide))
