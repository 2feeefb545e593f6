"""Bit-exact parity of the compiled C kernels vs the numpy reference.

The batched AMR driver steps its stack through ``repro.solver.kernels``
when a C compiler is available; its bit-identity with the numpy path
therefore rests on each kernel replicating the numpy expression tree
exactly (same operation order, same guards, compiled with
``-ffp-contract=off``).  Every comparison here is ``array_equal`` — no
tolerances — and the physicality check must return numpy's boolean.

The compiled sweep implements one scheme, HLLC with MC.  The sweep tests
run every named scheme from the same states, as a stack of that scheme
steps it: HLLC with MC through the kernel, against numpy's stacked sweep,
and every other scheme through numpy's stacked sweep, against the
per-patch sweep.
"""

import numpy as np
import pytest

from repro.amr.batch import ExchangePlan, stack_wave_speeds
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.solver import LIMITERS, RIEMANN_SOLVERS, kernels
from repro.solver.fv import _sweep_stack, sweep_x, sweep_y
from repro.solver.riemann import _wave_speeds_davis
from repro.solver.state import check_physical, primitive_from_conserved

pytestmark = pytest.mark.skipif(
    not kernels.available(),
    reason=f"compiled kernels unavailable: {kernels.load_error()}",
)

MX, NG = 8, 2
N = MX + 2 * NG
GAMMA = 1.4


def _random_stack(seed, P: int = 3, gamma: float = GAMMA) -> np.ndarray:
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


def _state(rho, u, v, p, gamma=GAMMA):
    """One cell's conserved state ``(rho, rho u, rho v, E)``."""
    return np.array([rho, rho * u, rho * v,
                     p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)])


def _uniform(*states):
    """A stack of one patch per state, every cell of it (ghosts too) that state."""
    return np.array([np.broadcast_to(st[:, None, None], (4, N, N)) for st in states])


def _same_bits(a, b):
    """Bit-for-bit equality: -0.0 differs from +0.0, and NaN equals NaN."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _compiled(riemann, limiter):
    """True iff the kernel sweeps this scheme (numpy sweeps every other)."""
    return (riemann, limiter) == ("hllc", "mc")


def _sweep_both(q, dt_dx, axis, riemann, limiter):
    """A stack's sweep of this scheme from ``q``, and its reference:
    ``(result, skipped, cells, reference)``.

    HLLC with MC runs the kernel, whose reference is numpy's stacked
    sweep.  Any other scheme runs numpy's stacked sweep, which skips no
    patch and updates every cell; its reference is the per-patch sweep of
    each patch, whose interior replaces that of ``q``.
    """
    stacked = q.copy()
    with np.errstate(all="ignore"):
        _sweep_stack(stacked, dt_dx, NG, "x" if axis == 0 else "y",
                     riemann, limiter, GAMMA)
    if _compiled(riemann, limiter):
        got = q.copy()
        bound = kernels.StackKernels(got, NG, GAMMA)
        bound.dt_dx[:] = dt_dx
        return (got, *bound.sweep(axis), stacked)
    ref = q.copy()
    sweep = sweep_x if axis == 0 else sweep_y
    for p, patch in enumerate(q.copy()):
        with np.errstate(all="ignore"):
            sweep(patch, dt_dx[p], NG, riemann, limiter, GAMMA)
        ref[p, :, NG:-NG, NG:-NG] = patch[:, NG:-NG, NG:-NG]
    return stacked, 0, len(q) * MX * MX, ref


#: Every solver and limiter name a stack can be configured with.
RIEMANN_NAMES = sorted(RIEMANN_SOLVERS)
LIMITER_NAMES = sorted([*LIMITERS, "none"])

every_scheme = pytest.mark.parametrize(
    "riemann, limiter, axis",
    [(r, lim, a) for r in RIEMANN_NAMES for lim in LIMITER_NAMES for a in (0, 1)],
)


class TestFusedSweep:
    @pytest.mark.parametrize("riemann", RIEMANN_NAMES)
    @pytest.mark.parametrize("limiter", LIMITER_NAMES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_numpy_sweep(self, riemann, limiter, axis):
        q = _random_stack(seed=(RIEMANN_NAMES.index(riemann),
                                LIMITER_NAMES.index(limiter), axis))
        got, _, _, ref = _sweep_both(q, np.full(len(q), 0.01), axis,
                                     riemann, limiter)
        assert np.array_equal(got, ref)

    def test_per_patch_dt_dx(self):
        q = _random_stack(seed=7, P=4)
        dt_dx = np.array([0.005, 0.01, 0.02, 0.04])
        got, _, _, ref = _sweep_both(q, dt_dx, 0, "hllc", "mc")
        assert np.array_equal(got, ref)

    def test_rejects_noncontiguous(self):
        q = _random_stack(seed=3)[:, :, ::2, :]
        with pytest.raises(ValueError):
            kernels.StackKernels(q, NG, GAMMA)

    def test_rejects_axis_outside_0_1(self):
        q = _random_stack(seed=4)
        got = q.copy()
        bound = kernels.StackKernels(got, NG, GAMMA)
        bound.dt_dx[:] = 0.01
        for axis in (2, -1):
            with pytest.raises(ValueError):
                bound.sweep(axis)
            assert _same_bits(got, q)


#: Uniform states: at rest, moving, and at rest with dense, hot gas.
CALM = (_state(1.0, 0.0, 0.0, 1.0), _state(1.1, 0.2, -0.3, 0.8),
        _state(3.0, 0.0, 0.0, 2.5))


class TestQuiescentSweep:
    """The kernel skips a patch whose stencil holds one finite state only
    when the full arithmetic would return it bit for bit; every result is
    compared bit for bit with numpy's, and the skip count is checked."""

    @every_scheme
    def test_quiescent_patches_among_random_ones(self, riemann, limiter, axis):
        q = _random_stack(seed=31, P=5)
        q[[0, 2, 4]] = _uniform(*CALM)
        got, skipped, _, ref = _sweep_both(q, np.full(5, 0.01), axis,
                                           riemann, limiter)
        assert skipped == (3 if _compiled(riemann, limiter) else 0)
        assert _same_bits(got, ref)
        assert _same_bits(got[[0, 2, 4]], q[[0, 2, 4]])

    @every_scheme
    def test_one_differing_stencil_ghost_runs_the_full_path(
        self, riemann, limiter, axis
    ):
        """Both ghost layers the sweep reads, in each field; the inner one
        changes the interior, so a skip on interior uniformity alone fails."""
        for ghost in (NG - 2, NG - 1):
            for field in range(4):
                q = _uniform(CALM[1])
                cell = (ghost, NG) if axis == 0 else (NG, ghost)
                q[0, field][cell] *= 1.25
                got, skipped, _, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                                   riemann, limiter)
                assert skipped == 0, (ghost, field)
                assert _same_bits(got, ref), (ghost, field)
                if ghost == NG - 1:
                    assert not _same_bits(ref, q), (ghost, field)

    @every_scheme
    def test_unread_corner_ghosts_do_not_stop_the_skip(self, riemann, limiter, axis):
        q = _uniform(CALM[1])
        for rows in (slice(None, NG), slice(-NG, None)):
            for cols in (slice(None, NG), slice(-NG, None)):
                q[0, :, rows, cols] = np.nan
        got, skipped, _, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                           riemann, limiter)
        assert skipped == int(_compiled(riemann, limiter))
        assert _same_bits(got, ref) and _same_bits(got, q)

    @every_scheme
    def test_signed_zeros(self, riemann, limiter, axis):
        """-0.0 momenta survive a +0.0 dt; a -0.0 dt makes the update
        x - (-0.0), which turns them into +0.0, so that sweep must run."""
        q = _uniform(_state(1.0, 0.0, 0.0, 1.0))
        q[0, 1:3] = -0.0
        got, skipped, _, ref = _sweep_both(q, np.array([0.0]), axis,
                                           riemann, limiter)
        assert skipped == int(_compiled(riemann, limiter))
        assert _same_bits(got, ref) and _same_bits(got, q)
        got, skipped, _, ref = _sweep_both(q, np.array([-0.0]), axis,
                                           riemann, limiter)
        assert skipped == 0
        assert _same_bits(got, ref)
        assert not _same_bits(ref, q)

    @every_scheme
    def test_overflowing_flux(self, riemann, limiter, axis):
        """Every cell finite, but the flux overflows: the full path writes
        NaN, so the patch must not be skipped."""
        q = _uniform(np.array([1.0, 1e200, 0.0, 1.0]))
        if axis == 1:
            q[0, [1, 2]] = q[0, [2, 1]]  # the sweep-normal momentum
        got, skipped, _, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                           riemann, limiter)
        assert skipped == 0
        assert _same_bits(got, ref)
        assert np.isnan(ref[:, :, NG:-NG, NG:-NG]).any()


def _band(q, axis):
    """The kernel's band [a, b] of one patch, from numpy: the interior cells
    whose stencil (normal cells m .. m+4 from ng-2) is not one state in
    every interior line, bit for bit; None if every line holds one state."""
    lines = q[0, :, :, NG:-NG] if axis == 0 else np.swapaxes(q[0, :, NG:-NG, :], 1, 2)
    rows = lines[:, NG - 2 : N - NG + 2].view(np.uint64)
    pairs = np.flatnonzero((rows[:, 1:] != rows[:, :-1]).any(axis=(0, 2)))
    if not pairs.size:
        return None
    return max(0, pairs[0] - 3), min(MX - 1, pairs[-1])


def _outside(q, axis, band):
    """The interior cells of patch 0 outside ``band``, in all four fields."""
    a, b = band
    inner = q[0, :, NG:-NG, NG:-NG]
    keep = np.r_[0:a, b + 1 : MX]
    return inner[:, keep] if axis == 0 else inner[:, :, keep]


def _planar(axis, low, high, at):
    """One patch holding ``low`` below normal index ``at`` and ``high`` from
    it on, in every line (states given with the normal momentum in slot 1)."""
    perm = [0, 1, 2, 3] if axis == 0 else [0, 2, 1, 3]
    states = np.where(np.arange(N)[:, None] < at, low[perm], high[perm])  # (N, 4)
    line = states.T[:, :, None] if axis == 0 else states.T[:, None, :]
    return np.broadcast_to(line, (4, N, N))[None].copy()


#: Two states of a planar jump: at rest, and denser gas moving along the
#: normal.
LOW, HIGH = _state(1.0, 0.0, 0.0, 1.0), _state(2.0, 0.3, -0.1, 1.5)


class TestBandSweep:
    """Only the band of cells whose stencil is not one state in every line
    is updated; the cells outside it are kept only when the full
    arithmetic keeps them, bit for bit.  Every result is compared bit for
    bit with its reference, and the kernel's updated cells with the band
    rule (numpy's stacked sweep updates every cell)."""

    @every_scheme
    def test_planar_jump_at_each_position(self, riemann, limiter, axis):
        """A band at the low end, inside, and at the high end; numpy
        changes no cell outside it."""
        for at in range(1, N):
            q = _planar(axis, LOW, HIGH, at)
            got, skipped, cells, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                                   riemann, limiter)
            band = _band(q, axis)
            assert skipped == 0, at
            assert cells == (band[1] - band[0] + 1 if _compiled(riemann, limiter)
                             else MX) * MX, at
            assert _same_bits(got, ref), at
            assert _same_bits(_outside(ref, axis, band), _outside(q, axis, band)), at

    @every_scheme
    def test_lines_of_distinct_uniform_states(self, riemann, limiter, axis):
        """One state along the normal in each line, a different one per
        line: an empty band, so the patch is skipped unchanged."""
        q = np.empty((1, 4, N, N))
        for t in range(N):
            st = _state(1.0 + 0.1 * t, 0.05 * t, -0.02 * t, 1.0 + 0.03 * t)
            if axis == 0:
                q[0, :, :, t] = st[:, None]
            else:
                q[0, :, t, :] = st[[0, 2, 1, 3]][:, None]
        assert _band(q, axis) is None
        got, skipped, cells, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                               riemann, limiter)
        assert (skipped, cells) == ((1, 0) if _compiled(riemann, limiter)
                                    else (0, MX * MX))
        assert _same_bits(got, ref) and _same_bits(got, q)

    @every_scheme
    def test_reflecting_wall_ghosts(self, riemann, limiter, axis):
        """Gas at rest whose ghosts at one end hold the wall's negated copy
        of its +0.0 normal momentum, -0.0: only the two cells next to the
        wall are computed."""
        normal = 1 if axis == 0 else 2
        for ghosts in (np.s_[:NG], np.s_[-NG:]):
            q = _uniform(_state(1.0, 0.0, 0.0, 1.0))
            if axis == 0:
                q[0, normal, ghosts, :] = -0.0
            else:
                q[0, normal, :, ghosts] = -0.0
            got, skipped, cells, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                                   riemann, limiter)
            assert (skipped, cells) == (
                0, 2 * MX if _compiled(riemann, limiter) else MX * MX)
            assert _same_bits(got, ref)

    @every_scheme
    def test_non_finite_uniform_side_runs_the_full_range(self, riemann, limiter, axis):
        """A NaN in any field, or an infinite energy, on one side of a jump:
        the flux there is not finite, numpy writes NaN over that side, and
        the kernel must sweep every cell, NaN sign bits included."""
        bad = [LOW.copy() for _ in range(5)]
        for field in range(4):
            bad[field][field] = np.nan
        bad[4][3] = np.inf
        for state in bad:
            for low, high, at in ((state, HIGH, 7), (LOW, state, 5)):
                q = _planar(axis, low, high, at)
                got, skipped, cells, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                                       riemann, limiter)
                band = _band(q, axis)
                assert (skipped, cells) == (0, MX * MX), (state, at)
                assert _same_bits(got, ref), (state, at)
                assert not _same_bits(_outside(ref, axis, band),
                                      _outside(q, axis, band)), (state, at)

    @every_scheme
    def test_one_sided_flux_overflow(self, riemann, limiter, axis):
        """Finite states whose flux overflows on one side of a jump."""
        fast = np.array([1.0, 1e200, 0.0, 1.0])
        for low, high, at in ((fast, LOW, 7), (LOW, fast, 5)):
            q = _planar(axis, low, high, at)
            got, skipped, cells, ref = _sweep_both(q, np.full(1, 0.01), axis,
                                                   riemann, limiter)
            assert (skipped, cells) == (0, MX * MX), at
            assert _same_bits(got, ref), at

    @every_scheme
    def test_dt_dx_signs(self, riemann, limiter, axis):
        """-0.0 momenta on both sides of a density jump.  A +0.0 factor
        keeps the cells outside the band; a -0.0 or negative one turns
        their -0.0 into +0.0, so every cell is swept."""
        cold = _state(1.0, 0.0, 0.0, 1.0)
        cold[1:3] = -0.0
        dense = cold.copy()
        dense[0] = 3.0
        q = _planar(axis, cold, dense, 6)
        band = _band(q, axis)
        for fac, full in ((0.0, False), (-0.0, True), (-0.01, True)):
            got, skipped, cells, ref = _sweep_both(q, np.array([fac]), axis,
                                                   riemann, limiter)
            kept = not full and _compiled(riemann, limiter)
            assert skipped == 0, fac
            assert cells == ((band[1] - band[0] + 1) * MX if kept else MX * MX), fac
            assert _same_bits(got, ref), fac
            assert _same_bits(_outside(ref, axis, band),
                              _outside(q, axis, band)) != full, fac

    def test_stack_of_mixed_patches(self):
        """Per-patch bands, skips and factors in one call."""
        q = np.concatenate([
            _planar(0, LOW, HIGH, 6), _uniform(CALM[1]), _random_stack(seed=41, P=1),
            _planar(0, LOW, HIGH, 2),
        ])
        dt_dx = np.array([0.01, 0.02, 0.005, 0.01])
        bands = [_band(q[[p]], 0) for p in (0, 3)]
        ref = q.copy()
        _sweep_stack(ref, dt_dx, NG, "x", "hllc", "mc", GAMMA)
        bound = kernels.StackKernels(q, NG, GAMMA)
        bound.dt_dx[:] = dt_dx
        skipped, cells = bound.sweep(0)
        assert skipped == 1
        assert cells == sum(b - a + 1 for a, b in bands) * MX + MX * MX
        assert _same_bits(q, ref)


def _cold(u):
    """Unit density at speed ``u`` with no internal energy: the pressure
    sits at its floor, and the sound speed is lost in rounding next to u."""
    return np.array([1.0, u, 0.0, 0.5 * (u * u)])


#: (name, left, right): face states, sweep-normal momentum in slot 1, that
#: reach each select branch of the HLLC flux, a contact speed sm of exactly
#: 0 and of NaN, and the 1e-300 guards of the contact speed and of the
#: selected star state.  (The s - sm guard cannot change a flux: it holds
#: only when sl == sm >= 0, where FL is taken, or sr == sm < 0, where FR
#: is.)
HLLC_FACES = [
    ("sl>=0", _state(1.0, 3.0, 0.1, 1.0), _state(0.8, 2.8, -0.2, 1.1)),
    ("sl<0<=sm", _state(1.0, 0.5, 0.1, 1.0), _state(0.5, 0.3, -0.2, 0.8)),
    ("sm<0<=sr", _state(0.5, -0.3, 0.1, 0.8), _state(1.0, -0.5, -0.2, 1.0)),
    ("sr<0", _state(0.8, -2.8, 0.1, 1.1), _state(1.0, -3.0, -0.2, 1.0)),
    ("sm=0", _state(1.0, 0.5, 0.1, 1.0), _state(1.0, -0.5, 0.1, 1.0)),
    ("sm=nan", np.array([1e150, 1e300, 0.0, 1.0]),
     np.array([1e150, -1e300, 0.0, 1.0])),
    ("den=0", _cold(-1e12), _cold(1e12)),
    ("sl-ul=0", _cold(-1e12), _state(1.0, 1.0, 0.0, 1.0)),
    ("sr-ur=0", _state(1.0, -1.0, 0.0, 1.0), _cold(1e12)),
]


def _face_stack(axis):
    """One patch per face of HLLC_FACES: the left state on the low half of
    every normal line, the right state on the high half."""
    q = np.empty((len(HLLC_FACES), 4, N, N))
    perm = [0, 1, 2, 3] if axis == 0 else [0, 2, 1, 3]
    for p, (_, left, right) in enumerate(HLLC_FACES):
        half = np.where(np.arange(N) < N // 2, 0, 1)
        states = np.stack([left, right])[half][:, perm]  # (N, 4)
        line = states.T[:, :, None] if axis == 0 else states.T[:, None, :]
        q[p] = np.broadcast_to(line, (4, N, N))
    return q


class TestHllcFaces:
    def test_faces_reach_their_case(self):
        """What the list's names claim, from numpy's HLLC speeds."""
        ql = np.array([f[1] for f in HLLC_FACES]).T
        qr = np.array([f[2] for f in HLLC_FACES]).T
        with np.errstate(all="ignore"):
            pl = primitive_from_conserved(ql, GAMMA)
            pr = primitive_from_conserved(qr, GAMMA)
            sl, sr = _wave_speeds_davis(ql, qr, GAMMA, pl=pl, pr=pr)
            (rl, ul), (rr, ur) = pl[:2], pr[:2]
            num = pr[3] - pl[3] + rl * ul * (sl - ul) - rr * ur * (sr - ur)
            den = rl * (sl - ul) - rr * (sr - ur)
            sm = num / np.where(den == 0.0, 1e-300, den)
        case = dict(zip([f[0] for f in HLLC_FACES], zip(sl, sm, sr, den, sl - ul, sr - ur)))
        left_star = lambda c: c[0] < 0 <= c[1]  # noqa: E731
        right_star = lambda c: c[1] < 0 <= c[2]  # noqa: E731
        assert case["sl>=0"][0] >= 0
        assert left_star(case["sl<0<=sm"])
        assert right_star(case["sm<0<=sr"])
        assert case["sr<0"][2] < 0
        assert case["sm=0"][1] == 0 and left_star(case["sm=0"])
        assert np.isnan(case["sm=nan"][1]) and case["sm=nan"][0] < 0 <= case["sm=nan"][2]
        assert case["den=0"][3] == 0 and left_star(case["den=0"])
        assert case["sl-ul=0"][4] == 0 and left_star(case["sl-ul=0"])
        assert case["sr-ur=0"][5] == 0 and right_star(case["sr-ur=0"])

    @every_scheme
    def test_matches_numpy(self, riemann, limiter, axis):
        q = _face_stack(axis)
        got, skipped, _, ref = _sweep_both(q, np.full(len(q), 0.01), axis,
                                           riemann, limiter)
        assert skipped == 0
        assert _same_bits(got, ref)


class TestWaveSpeeds:
    def test_matches_numpy(self):
        q = _random_stack(seed=11, P=5)
        sx, sy = kernels.StackKernels(q, NG, GAMMA).wave_speeds()
        rx, ry = stack_wave_speeds(q[:, :, NG:-NG, NG:-NG], GAMMA)
        assert np.array_equal(sx, rx)
        assert np.array_equal(sy, ry)

    @staticmethod
    def _both(q):
        sx, sy = kernels.StackKernels(q, NG, GAMMA).wave_speeds()
        with np.errstate(all="ignore"):
            rx, ry = stack_wave_speeds(q[:, :, NG:-NG, NG:-NG], GAMMA)
        assert _same_bits(sx, rx) and _same_bits(sy, ry)
        return sx, sy

    def test_uniform_interiors_with_poisoned_ghosts(self):
        """A uniform interior is evaluated at one cell; its ghosts are never
        read, and a last interior cell that differs is not missed."""
        q = _poison_ghosts(_random_stack(seed=12, P=6), np.nan)
        q[:3, :, NG:-NG, NG:-NG] = _uniform(*CALM)[:, :, NG:-NG, NG:-NG]
        q[3, :, NG:-NG, NG:-NG] = q[1, :, NG:-NG, NG:-NG]
        q[3, :, -NG - 1, -NG - 1] = _state(1.1, 2.0, -3.0, 0.8)
        sx, sy = self._both(q)
        assert sx[3] > sx[1] and sy[3] > sy[1]

    @pytest.mark.parametrize("field", range(4))
    def test_nan_in_one_interior_cell(self, field):
        """A NaN in any field of one interior cell makes that patch's two
        maxima NaN, as numpy's max does; the other patches keep theirs."""
        q = _random_stack(seed=13, P=3)
        for cell in ((NG + 3, NG + 5), (NG + MX - 1, NG + MX - 1)):
            bad = q.copy()
            bad[1, field][cell] = np.nan
            sx, sy = kernels.StackKernels(bad, NG, GAMMA).wave_speeds()
            with np.errstate(all="ignore"):
                rx, ry = stack_wave_speeds(bad[:, :, NG:-NG, NG:-NG], GAMMA)
            assert np.isnan(rx[1]) and np.isnan(ry[1])
            assert np.array_equal(sx, rx, equal_nan=True), cell
            assert np.array_equal(sy, ry, equal_nan=True), cell


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
        got = kernels.StackKernels(q, NG, gamma).check_physical()
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

    @pytest.mark.parametrize("gamma", [GAMMA, 0.5])
    def test_uniform_interiors(self, gamma):
        """One cell decides for a uniform interior (ghosts poisoned), and a
        bad last interior cell is not missed."""
        calm = [_state(1.0, 0.0, 0.0, 1.0, gamma), _state(1.1, 0.2, -0.3, 0.8, gamma)]
        q = _poison_ghosts(_uniform(*calm), np.nan)
        assert self._both(q, gamma)
        for bad in (_state(1.0, 0.1, 0.0, -0.5, gamma), np.array([0.0, 0.0, 0.0, 1.0])):
            unphysical = q.copy()
            unphysical[1, :, NG:-NG, NG:-NG] = bad[:, None, None]
            assert not self._both(unphysical, gamma)
            unphysical = q.copy()
            unphysical[1, :, -NG - 1, -NG - 1] = bad
            assert not self._both(unphysical, gamma)

    def test_rejects_what_it_cannot_read(self):
        q = _random_stack(seed=3)
        for bad in (q[:, :, ::2, :], q[:, :3].copy(), q[:, :, :, :-1].copy(),
                    q[0].copy()):
            with pytest.raises(ValueError):
                kernels.StackKernels(bad, NG, GAMMA)
        with pytest.raises(ValueError):
            kernels.StackKernels(q, N // 2, GAMMA)
