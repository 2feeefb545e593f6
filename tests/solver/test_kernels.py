"""Bit-exact parity of the compiled C kernels vs the numpy reference.

The batched AMR driver steps its stack through ``repro.solver.kernels``
when a C compiler is available; its bit-identity with the numpy path
therefore rests on each kernel replicating the numpy expression tree
exactly (same operation order, same guards, compiled with
``-ffp-contract=off``).  Every comparison here is ``array_equal`` — no
tolerances — and the physicality check must return numpy's boolean.
"""

import numpy as np
import pytest

from repro.amr.batch import ExchangePlan, stack_wave_speeds
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.solver import kernels
from repro.solver.fv import _sweep_stack
from repro.solver.state import check_physical

pytestmark = pytest.mark.skipif(
    not kernels.available(),
    reason=f"compiled kernels unavailable: {kernels.load_error()}",
)

MX, NG = 8, 2
N = MX + 2 * NG
GAMMA = 1.4


def _random_stack(seed: int, P: int = 3, gamma: float = GAMMA) -> np.ndarray:
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
    q[:, 3] = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
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


#: Traffic of an exchange program with nothing to move, by field.
_EMPTY = {
    "copy_dst": (0,), "copy_src": (0,), "neg_dst": (0,), "neg_src": (0,),
    "coarse_gather": (0, 4, 1, 4), "coarse_scatter": (0, 4, 2, 8),
    "fine_gather": (0, 4, 4, 8), "fine_scatter": (0, 4, 2, 4),
}


def _execute(flat: np.ndarray, **traffic) -> ExchangePlan:
    """Run a program of only ``traffic`` on ``flat``: one kernel call."""
    plan = ExchangePlan(**{
        name: np.asarray(traffic.get(name, np.empty(shape)), dtype=np.int32)
        for name, shape in _EMPTY.items()
    })
    plan.execute(flat)
    assert plan._bound[0] is flat, "the kernel path did not run"
    return plan


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
        _execute(got, copy_dst=dst, copy_src=src)
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
        _execute(got, neg_dst=dst, neg_src=src)
        assert np.array_equal(got, ref)

    def test_gather_scatter_roundtrip(self):
        """Scattered gathers and scatters: the staging buffer holds
        ``flat[gather]``, and ``flat[scatter]`` its prolongation."""
        rng = np.random.default_rng(2)
        flat = rng.standard_normal(200)
        perm = rng.permutation(200)
        gather = perm[:32].reshape(2, 4, 1, 4)
        scatter = perm[40:168].reshape(2, 4, 2, 8)
        ref = flat.copy()
        ref[scatter] = prolong_patch(ref[gather])
        plan = _execute(flat, coarse_gather=gather, coarse_scatter=scatter)
        assert np.array_equal(plan._staging[0], ref[gather])
        assert np.array_equal(flat, ref)


class TestTransferBlocks:
    def test_prolong_blocks_matches_numpy(self):
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((2, 4, 1, 4))  # (K, 4, ng//2, mx//2)
        flat = np.concatenate([blocks.ravel(), np.zeros(2 * 4 * 2 * 8)])
        _execute(flat, coarse_gather=np.arange(32).reshape(blocks.shape),
                 coarse_scatter=np.arange(32, 160).reshape(2, 4, 2, 8))
        dst = flat[32:].reshape(2, 4, 2, 8)
        assert np.array_equal(dst, prolong_patch(blocks))

    def test_restrict_blocks_matches_numpy(self):
        rng = np.random.default_rng(4)
        wide = rng.standard_normal((2, 4, 4, 8))  # (K, 4, 2*ng, mx)
        flat = np.concatenate([wide.ravel(), np.zeros(2 * 4 * 2 * 4)])
        _execute(flat, fine_gather=np.arange(256).reshape(wide.shape),
                 fine_scatter=np.arange(256, 320).reshape(2, 4, 2, 4))
        dst = flat[256:].reshape(2, 4, 2, 4)
        assert np.array_equal(dst, restrict_area_average(wide))


class TestBindExchange:
    def test_rejects_what_would_corrupt_memory(self):
        flat = np.zeros(64)
        idx = np.arange(4, dtype=np.int32)
        ok = dict(copy=(idx, idx + 4), neg=(idx[:0], idx[:0]),
                  coarse=(idx[:0].reshape(0, 1, 1), idx[:0].reshape(0, 2, 2),
                          np.empty(0), np.empty(0)),
                  fine=(idx[:0].reshape(0, 2, 2), idx[:0].reshape(0, 1, 1),
                        np.empty(0), np.empty(0)))
        kernels.bind_exchange(flat, **ok)
        for bad in (
            dict(copy=(idx.astype(np.int64), idx + 4)),
            dict(copy=(idx, idx[:3] + 4)),
            dict(coarse=(idx.reshape(1, 2, 2), idx.reshape(1, 2, 2),
                         np.empty(4), np.empty(4))),
            dict(neg=(idx + 61, idx)),
            dict(neg=(idx - 1, idx)),
        ):
            with pytest.raises(ValueError):
                kernels.bind_exchange(flat, **{**ok, **bad})
        with pytest.raises(ValueError):
            kernels.bind_exchange(flat.astype(np.float32), **ok)


def _poison_ghosts(q: np.ndarray, value: float) -> np.ndarray:
    q = q.copy()
    q[:, :, :NG] = q[:, :, -NG:] = value
    q[:, :, :, :NG] = q[:, :, :, -NG:] = value
    return q


def _pressure_at(q, gamma, p_target):
    """The energy that puts pressure ``p_target`` in a cell of ``q``."""
    return p_target / (gamma - 1.0) + 0.5 * (q[1] * q[1] + q[2] * q[2]) / q[0]


#: One bad cell each: every field non-finite, non-positive density, and
#: non-positive pressure.
BAD_CELLS = [
    *[(f"{v}-field{f}", f, v) for f in range(4) for v in ("nan", "inf", "-inf")],
    ("rho=0", 0, 0.0), ("rho=-0", 0, -0.0), ("rho<0", 0, -1.0),
    ("p=0", 3, "p=0"), ("p<0", 3, "p<0"),
]


class TestCheckPhysical:
    """The C check returns the numpy path's boolean
    (:func:`repro.solver.state.check_physical` over the stacked
    interiors, as :meth:`PatchStack.check_physical` runs it without
    kernels).  A gamma below 1 flips the pressure's sign, so an infinite
    momentum passes the pressure test and only its own finiteness test
    can catch it."""

    P = 3

    @staticmethod
    def _numpy(q, gamma):
        return check_physical(np.moveaxis(q[:, :, NG:-NG, NG:-NG], 1, 0), gamma)

    def _both(self, q, gamma):
        got = kernels.check_physical(q, NG, gamma)
        assert isinstance(got, bool)
        assert got == self._numpy(q, gamma)
        return got

    @pytest.mark.parametrize("gamma", [GAMMA, 0.5])
    def test_physical_stack_passes_with_poisoned_ghosts(self, gamma):
        q = _random_stack(seed=21, P=self.P, gamma=gamma)
        assert self._both(q, gamma)
        for value in (np.nan, np.inf, -1.0, 0.0):
            assert self._both(_poison_ghosts(q, value), gamma)

    @pytest.mark.parametrize("gamma", [GAMMA, 0.5])
    @pytest.mark.parametrize("name, field, value", BAD_CELLS,
                             ids=[c[0] for c in BAD_CELLS])
    def test_one_bad_cell_anywhere(self, name, field, value, gamma):
        """In the first or last patch, row and column, ghosts poisoned too."""
        clean = _poison_ghosts(_random_stack(seed=22, P=self.P, gamma=gamma), np.nan)
        for p in (0, self.P - 1):
            for i in (NG, NG + MX - 1):
                for j in (NG, NG + MX - 1):
                    q = clean.copy()
                    cell = q[p, :, i, j]
                    if value == "p=0":
                        cell[3] = _pressure_at(cell, gamma, 0.0)
                    elif value == "p<0":
                        cell[3] = _pressure_at(cell, gamma, -1.0)
                    else:
                        cell[field] = float(value)
                    assert not self._both(q, gamma), (name, p, i, j)

    def test_rejects_what_it_cannot_read(self):
        q = _random_stack(seed=3)
        for bad in (q[:, :, ::2, :], q[:, :3].copy(), q[:, :, :, :-1].copy(),
                    q[0].copy()):
            with pytest.raises(ValueError):
                kernels.check_physical(bad, NG, GAMMA)
        with pytest.raises(ValueError):
            kernels.check_physical(q, N // 2, GAMMA)
