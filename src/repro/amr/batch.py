"""Batched (shape-stacked) execution of an AMR hierarchy.

Every patch of a hierarchy shares one array shape ``(4, mx+2ng, mx+2ng)``,
so the whole hierarchy can live in a single stacked array of shape
``(P, 4, n, n)`` with each :class:`~repro.amr.patch.Patch` holding a
zero-copy view of its slot.  This module provides

- :class:`PatchStack` — builds the stacked storage, rebinds every patch's
  state to a view of it, and steps it: the sweep, the CFL wave speeds and
  the physicality check run once over the whole stack, through the
  compiled kernels of :mod:`repro.solver.kernels` bound to the stack's
  array when they load and the configured scheme is the one they
  implement (HLLC with MC), and through the numpy reference otherwise,
  decided once when the stack is built.  It also folds the whole-hierarchy
  reductions (``dt_from_speeds``, ``conserved_totals``, ``total_bytes``);
- :class:`ExchangePlan` — the compiled ghost exchange: the per-face
  neighbor classification of :func:`repro.amr.ghost.exchange_ghosts`
  (physical boundary, same-level, coarse–fine, fine–coarse) is resolved
  once per hierarchy change into flat ``int32`` element indices of the
  stack, in two halves (x faces, y faces), and each half is executed
  before the sweep that reads it as a few indexed copies, gathers and
  scatters — one call of the compiled kernels of
  :mod:`repro.solver.kernels` when they load, numpy otherwise — instead
  of ``4 * P`` Python-level neighbor lookups.

Invariants (see DESIGN.md, "Batched AMR patch kernels"):

- **View aliasing** — after ``PatchStack(...)`` construction,
  ``patch.q.base is stack.q`` for every patch; per-patch and stacked code
  paths read and write the same memory.
- **Plan invalidation** — any refine or coarsen changes the patch set,
  so the stack and its plan must be rebuilt; a regrid that changes no
  leaf makes neither and keeps them.  The driver drops the stack at every
  refine and coarsen; :meth:`PatchStack.covers` tests staleness
  structurally (a new patch owns its own array, so its ``q.base`` is not
  the stack).
- **Bit-identity** — every batched operation applies exactly the same
  elementwise IEEE operations (and identically-shaped reductions) as the
  per-patch reference path, so results are bit-for-bit equal; enforced by
  the property tests in ``tests/amr/test_batch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from repro.amr.ghost import (
    CHILDREN_ON_FACE,
    OPPOSITE_FACE,
    take_strip,
    tangential_half,
    write_ghost,
)
from repro.amr.patch import NUM_FIELDS, Patch
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.mesh.forest import Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent
from repro.solver import kernels
from repro.solver.boundary import BoundaryCondition
from repro.solver.fv import _sweep_stack
from repro.solver.state import IMX, IMY, check_physical, primitive_from_conserved


def stack_wave_speeds(
    interior: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch interior maxima of ``|u|+c`` and ``|v|+c``.

    ``interior`` has shape ``(P, 4, mx, mx)``.
    """
    # One contiguous gather up front keeps the reduction passes L2-bound.
    prim = primitive_from_conserved(
        np.ascontiguousarray(np.moveaxis(interior, 1, 0)), gamma
    )
    c = np.sqrt(gamma * prim[3] / prim[0])
    sx = (np.abs(prim[1]) + c).max(axis=(-2, -1))
    sy = (np.abs(prim[2]) + c).max(axis=(-2, -1))
    return sx, sy


@lru_cache(maxsize=None)
def _interior_offsets(face: int, width: int, mx: int, ng: int) -> np.ndarray:
    """In-patch flat offsets of the strip :func:`take_strip` reads.

    Shape ``(4, width, mx)``, in the normalized strip order.
    """
    n = mx + 2 * ng
    offsets = np.arange(NUM_FIELDS * n * n, dtype=np.intp)
    patch = SimpleNamespace(q=offsets.reshape(NUM_FIELDS, n, n), mx=mx, ng=ng)
    out = np.ascontiguousarray(take_strip(patch, face, width))
    out.flags.writeable = False  # shared by every caller of the cache
    return out


@lru_cache(maxsize=None)
def _ghost_offsets(face: int, mx: int, ng: int) -> np.ndarray:
    """In-patch flat offsets of the ``face`` ghost strip, normalized order.

    :func:`write_ghost` of a normalized ``(4, ng, mx)`` strip writes its
    element ``(f, k, t)`` to offset ``out[f, k, t]``.
    """
    n = mx + 2 * ng
    size = NUM_FIELDS * ng * mx
    patch = SimpleNamespace(
        q=np.full((NUM_FIELDS, n, n), -1, dtype=np.intp), mx=mx, ng=ng
    )
    strip = np.arange(size, dtype=np.intp).reshape(NUM_FIELDS, ng, mx)
    write_ghost(patch, face, strip)
    element = patch.q.reshape(-1)
    offset = np.flatnonzero(element >= 0)
    out = np.empty(size, dtype=np.intp)
    out[element[offset]] = offset
    out.flags.writeable = False  # shared by every caller of the cache
    return out.reshape(NUM_FIELDS, ng, mx)


def _place(rows, template: np.ndarray, patch_size: int) -> np.ndarray:
    """Stack-wide offsets ``(len(rows), *template.shape)``: one template per row."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, *(1,) * template.ndim)
    return rows * patch_size + template


def _int32(parts: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """``parts`` stacked into one C-contiguous int32 ``(-1, *shape)`` array."""
    return np.concatenate(
        [p.reshape(-1, *shape) for p in parts]
        or [np.empty((0, *shape), dtype=np.intp)],
        dtype=np.int32,
    )


#: The index arrays of an exchange program, kind by kind.
_TRAFFIC = (
    "copy_dst", "copy_src", "neg_dst", "neg_src",
    "coarse_gather", "coarse_scatter", "fine_gather", "fine_scatter",
)


@dataclass(slots=True)
class ExchangePlan:
    """The ghost exchange of one fixed hierarchy, compiled to flat indices.

    Every index is an ``int32`` element offset into the flattened
    ``(P, 4, n, n)`` stack array, and every ghost cell has one writer:

    - ``copy_dst``/``copy_src``: ``flat[dst] = flat[src]`` — same-level
      neighbors, outflow walls, and the fields of reflecting walls that
      keep their sign;
    - ``neg_dst``/``neg_src``: ``flat[dst] = flat[src] * -1.0`` — the
      wall-normal momentum of reflecting walls;
    - ``coarse_gather`` ``(K, 4, ng/2, mx/2)`` → ``coarse_scatter``
      ``(K, 4, ng, mx)``: a fine patch's ghost strip prolonged from a
      block of its coarser neighbor;
    - ``fine_gather`` ``(K, 4, 2ng, mx)`` → ``fine_scatter``
      ``(K, 4, ng, mx/2)``: one tangential half of a coarse patch's ghost
      strip restricted from one of its two finer neighbors.

    All reads gather interior cells and all writes scatter ghost cells, so
    the order of the four kinds cannot matter.

    The program has two halves, one per sweep direction.  The first
    ``x_rows`` entries of each kind (copies, negated copies, coarse
    slabs, fine slabs) fill the ghost strips of the x faces (0 and 1),
    the rest those of the y faces (2 and 3); a plan built without
    ``x_rows`` holds only a y half.  An x sweep reads only the x-face
    strips of its interior lines and a y sweep only the y-face ones,
    while wave speeds, the physicality check, tagging and transfer read
    interiors.  So the exchange before each sweep runs that sweep's half
    alone, and the other direction's strips are scratch until their own
    half refills them.
    """

    copy_dst: np.ndarray
    copy_src: np.ndarray
    neg_dst: np.ndarray
    neg_src: np.ndarray
    coarse_gather: np.ndarray
    coarse_scatter: np.ndarray
    fine_gather: np.ndarray
    fine_scatter: np.ndarray
    #: Entries of each kind (copy, negated copy, coarse, fine) in the x half.
    x_rows: tuple[int, int, int, int] = (0, 0, 0, 0)
    #: The kernel path's staging buffers, allocated at its first run.
    _staging: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)
    #: The kernel path's ``(q, (x call, y call))``: the two halves bound to
    #: the stack array they last ran on
    #: (:func:`repro.solver.kernels.bind_exchange`).
    _bound: tuple = field(default=(), init=False, repr=False)
    #: The numpy path's two halves of ``intp`` copies of the eight index
    #: arrays, made at its first run: numpy converts ``int32`` fancy
    #: indices on every use.
    _intp: tuple = field(default=(), init=False, repr=False)

    @classmethod
    def build(
        cls,
        forest: Forest,
        patches: dict[tuple[int, Quadrant], Patch],
        index: dict[tuple[int, Quadrant], int],
        mx: int,
        ng: int,
        bcs: tuple,
    ) -> "ExchangePlan":
        """Classify every (patch, face) of the hierarchy exactly once.

        Mirrors the per-step dispatch of
        :func:`repro.amr.ghost.exchange_ghosts`; raises ``KeyError`` if the
        forest is not 2:1 balanced (missing fine neighbor) and
        ``ValueError`` for unsupported physical BCs, so a bad hierarchy
        fails at plan-build time rather than mid-step.  The strip geometry
        is the per-patch reference's own: :func:`take_strip` and
        :func:`write_ghost` run on index-valued patches.
        """
        bc_objs = tuple(
            b if isinstance(b, BoundaryCondition) else BoundaryCondition(b)
            for b in bcs
        )
        unsupported = [b for b in bc_objs if b not in (
            BoundaryCondition.OUTFLOW, BoundaryCondition.REFLECT)]
        if unsupported:
            raise ValueError(
                f"unsupported physical BC {unsupported[0]} (periodic needs a torus brick)"
            )
        n = mx + 2 * ng
        S = NUM_FIELDS * n * n
        if len(index) * S > np.iinfo(np.int32).max:
            raise ValueError("stack too large for int32 exchange indices")
        physical: dict[int, list[int]] = {}
        same: dict[int, list[tuple[int, int]]] = {}
        coarse: dict[tuple[int, int], list[tuple[int, int]]] = {}
        fine: dict[int, list[tuple[int, int, int]]] = {}
        for (tree, quad), i in index.items():
            for face in range(4):
                hit = forest.face_neighbor(tree, quad, face)
                if hit is None:
                    physical.setdefault(face, []).append(i)
                    continue
                ntree, nq = hit
                opp = OPPOSITE_FACE[face]
                j = index.get((ntree, nq))
                if j is not None:
                    same.setdefault(face, []).append((i, j))
                    continue
                if nq.level > 0:
                    k = index.get((ntree, quadrant_parent(nq)))
                    if k is not None:
                        half = tangential_half(quad, face)
                        coarse.setdefault((face, half), []).append((i, k))
                        continue
                children = quadrant_children(nq)
                ids = CHILDREN_ON_FACE[opp]
                try:
                    fine.setdefault(face, []).append(
                        (
                            i,
                            index[(ntree, children[ids[0]])],
                            index[(ntree, children[ids[1]])],
                        )
                    )
                except KeyError:
                    raise KeyError(
                        f"forest not 2:1 balanced: missing neighbor leaf of {nq}"
                    ) from None

        # Stack-wide offsets of each field, one block per traffic group,
        # in the half of the group's face: x faces 0 and 1, y faces 2 and 3.
        halves: list[dict[str, list[np.ndarray]]] = [
            {name: [] for name in _TRAFFIC} for _ in range(2)
        ]
        hmx = mx // 2
        for face, rows in physical.items():
            parts = halves[face // 2]
            dst = _place(rows, _ghost_offsets(face, mx, ng), S)
            if bc_objs[face] == BoundaryCondition.OUTFLOW:
                edge = _interior_offsets(face, 1, mx, ng)
                src = _place(rows, np.repeat(edge, ng, axis=1), S)
                parts["copy_dst"].append(dst)
                parts["copy_src"].append(src)
                continue
            # REFLECT (others rejected above): the normal momentum flips.
            src = _place(rows, _interior_offsets(face, ng, mx, ng), S)
            normal = np.arange(NUM_FIELDS) == (IMX if face < 2 else IMY)
            parts["copy_dst"].append(dst[:, ~normal])
            parts["copy_src"].append(src[:, ~normal])
            parts["neg_dst"].append(dst[:, normal])
            parts["neg_src"].append(src[:, normal])
        for face, pairs in same.items():
            parts = halves[face // 2]
            dst, src = zip(*pairs)
            parts["copy_dst"].append(_place(dst, _ghost_offsets(face, mx, ng), S))
            parts["copy_src"].append(
                _place(src, _interior_offsets(OPPOSITE_FACE[face], ng, mx, ng), S)
            )
        for (face, half), pairs in coarse.items():
            parts = halves[face // 2]
            dst, src = zip(*pairs)
            wide = _interior_offsets(OPPOSITE_FACE[face], ng // 2, mx, ng)
            parts["coarse_scatter"].append(_place(dst, _ghost_offsets(face, mx, ng), S))
            parts["coarse_gather"].append(
                _place(src, wide[:, :, half * hmx : (half + 1) * hmx], S)
            )
        for face, triples in fine.items():
            parts = halves[face // 2]
            dst, *sources = zip(*triples)
            ghost = _ghost_offsets(face, mx, ng)
            wide = _interior_offsets(OPPOSITE_FACE[face], 2 * ng, mx, ng)
            for piece, src in enumerate(sources):
                cols = slice(piece * hmx, (piece + 1) * hmx)
                parts["fine_scatter"].append(_place(dst, ghost[:, :, cols], S))
                parts["fine_gather"].append(_place(src, wide, S))
        shapes = {
            "coarse_gather": (NUM_FIELDS, ng // 2, hmx),
            "coarse_scatter": (NUM_FIELDS, ng, mx),
            "fine_gather": (NUM_FIELDS, 2 * ng, mx),
            "fine_scatter": (NUM_FIELDS, ng, hmx),
        }
        x, y = (
            {name: _int32(rows, shapes.get(name, ())) for name, rows in half.items()}
            for half in halves
        )
        return cls(
            **{name: np.concatenate([x[name], y[name]]) for name in _TRAFFIC},
            x_rows=tuple(len(x[name]) for name in _TRAFFIC[::2]),
        )

    def _halves(self, kinds: tuple) -> tuple[tuple, tuple]:
        """``kinds``, one tuple of arrays per traffic kind, cut at ``x_rows``.

        Returns ``(x half, y half)``, each in the layout of ``kinds``.
        """
        cuts = tuple(zip(kinds, self.x_rows))
        x = tuple(tuple(a[:k] for a in arrays) for arrays, k in cuts)
        y = tuple(tuple(a[k:] for a in arrays) for arrays, k in cuts)
        return x, y

    def execute(self, q: np.ndarray, axis: int | None = None) -> None:
        """Fill ghost strips of the C-contiguous float64 stack ``q``.

        ``axis`` 0 runs the x half (faces 0 and 1), 1 the y half (faces 2
        and 3), and None both, which fills every ghost strip.  Runs the
        compiled kernels of :mod:`repro.solver.kernels` when they load,
        one call per half bound once per stack array, and numpy
        otherwise.  Both apply the same elementwise operations per traffic
        row, so they agree bit for bit.
        """
        if not (q.flags.c_contiguous and q.dtype == np.float64):
            raise ValueError("q must be C-contiguous float64")
        if axis not in (None, 0, 1):
            raise ValueError(f"axis must be 0, 1 or None, got {axis!r}")
        axes = (0, 1) if axis is None else (axis,)
        if kernels.load() is None:
            flat = q.reshape(-1)
            if not self._intp:
                copy_dst, copy_src, neg_dst, neg_src, *slabs = (
                    getattr(self, name).astype(np.intp) for name in _TRAFFIC
                )
                self._intp = self._halves((
                    (copy_dst, copy_src), (neg_dst, neg_src),
                    tuple(slabs[:2]), tuple(slabs[2:]),
                ))
            for a in axes:
                ((copy_dst, copy_src), (neg_dst, neg_src),
                 (coarse_gather, coarse_scatter),
                 (fine_gather, fine_scatter)) = self._intp[a]
                flat[copy_dst] = flat[copy_src]
                flat[neg_dst] = flat[neg_src] * -1.0
                flat[coarse_scatter] = prolong_patch(flat[coarse_gather])
                flat[fine_scatter] = restrict_area_average(flat[fine_gather])
            return
        if not self._bound or self._bound[0] is not q:
            if not self._staging:
                self._staging = tuple(
                    np.empty(a.shape)
                    for a in (self.coarse_gather, self.coarse_scatter,
                              self.fine_gather, self.fine_scatter)
                )
            coarse, prolonged, fine, restricted = self._staging
            halves = self._halves((
                (self.copy_dst, self.copy_src),
                (self.neg_dst, self.neg_src),
                (self.coarse_gather, self.coarse_scatter, coarse, prolonged),
                (self.fine_gather, self.fine_scatter, fine, restricted),
            ))
            self._bound = (q, tuple(
                kernels.bind_exchange(q.reshape(-1), *half) for half in halves
            ))
        for a in axes:
            self._bound[1][a]()


class PatchStack:
    """Shape-stacked storage, exchange plan and stepping of one hierarchy.

    Construction copies every patch's state into one ``(P, 4, n, n)`` array
    and rebinds each ``patch.q`` to the corresponding zero-copy view, so
    subsequent per-patch and batched accesses alias the same memory.  The
    stack is only valid until the hierarchy changes; the driver drops it on
    refine/coarsen, and :meth:`covers` checks it structurally.

    Construction also decides, once, how :meth:`sweep`,
    :meth:`wave_speeds` and :meth:`check_physical` run: through the
    compiled kernels of :mod:`repro.solver.kernels`, bound to the stack's
    array (:class:`~repro.solver.kernels.StackKernels`), when they load and
    ``config`` names the scheme they implement, ``"hllc"`` with ``"mc"``;
    otherwise — no compiler, another named scheme, a callable solver or
    limiter — through the numpy reference
    (:func:`repro.solver.fv._sweep_stack`, :func:`stack_wave_speeds`,
    :func:`repro.solver.state.check_physical`).  Both are bit-identical.
    """

    __slots__ = ("keys", "index", "q", "mx", "ng", "dx", "plan", "config",
                 "_kernels")

    def __init__(
        self,
        forest: Forest,
        patches: dict[tuple[int, Quadrant], Patch],
        config,
    ) -> None:
        if not patches:
            raise ValueError("cannot stack an empty hierarchy")
        mx, ng = config.mx, config.ng
        self.keys = tuple(patches)
        self.index = {key: i for i, key in enumerate(self.keys)}
        n = mx + 2 * ng
        self.q = np.empty((len(self.keys), NUM_FIELDS, n, n), dtype=np.float64)
        for i, key in enumerate(self.keys):
            patch = patches[key]
            if patch.q.shape != (NUM_FIELDS, n, n):
                raise ValueError("all patches of a stack must share one shape")
            self.q[i] = patch.q
            patch.q = self.q[i]
        self.mx = mx
        self.ng = ng
        self.dx = np.array([patches[key].dx for key in self.keys])
        self.plan = ExchangePlan.build(forest, patches, self.index, mx, ng, config.bcs)
        #: The :class:`~repro.amr.driver.AmrConfig` the stack steps with.
        self.config = config
        #: The compiled kernels bound to ``q``; None on the numpy path.
        self._kernels = (
            kernels.StackKernels(self.q, ng, config.gamma)
            if (config.riemann, config.limiter) == ("hllc", "mc")
            and kernels.load() is not None
            else None
        )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def interior(self) -> np.ndarray:
        """Writable view of all patch interiors, shape (P, 4, mx, mx)."""
        ng = self.ng
        return self.q[:, :, ng:-ng, ng:-ng]

    def covers(self, patches: dict[tuple[int, Quadrant], Patch]) -> bool:
        """True iff every patch of ``patches`` still aliases this stack."""
        if len(patches) != len(self.keys):
            return False
        return all(p.q.base is self.q for p in patches.values())

    # ------------------------------------------------------------ batched ops

    def exchange(self, axis: int | None = None) -> None:
        """Fill ghost strips via the precomputed exchange plan.

        ``axis`` 0 fills the x-face strips, which only an x sweep reads, 1
        the y-face strips, and None all four faces
        (:meth:`ExchangePlan.execute`).
        """
        self.plan.execute(self.q, axis)

    @property
    def compiled(self) -> bool:
        """True iff this stack steps through the compiled kernels."""
        return self._kernels is not None

    def sweep(self, dt_dx: np.ndarray, axis: int) -> tuple[int, int]:
        """In-place dimensional sweep of every patch; axis 0 is x, 1 is y.

        ``dt_dx`` holds the ``(P,)`` per-patch ``dt / dx`` factors.
        Returns ``(skipped, cells)``: the quiescent patches the compiled
        sweep skipped and the cells it updated
        (:meth:`repro.solver.kernels.StackKernels.sweep`); the numpy path
        skips none and updates every interior cell.
        """
        if self._kernels is not None:
            self._kernels.dt_dx[:] = dt_dx
            return self._kernels.sweep(axis)
        cfg = self.config
        _sweep_stack(
            self.q, dt_dx, self.ng, "x" if axis == 0 else "y",
            cfg.riemann, cfg.limiter, cfg.gamma,
        )
        return 0, len(self.keys) * self.mx * self.mx

    def wave_speeds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-patch interior maxima of ``|u|+c`` and ``|v|+c``: ``(sx, sy)``."""
        if self._kernels is not None:
            return self._kernels.wave_speeds()
        return stack_wave_speeds(self.interior, self.config.gamma)

    def check_physical(self) -> bool:
        """True iff every interior cell of every patch is physical."""
        if self._kernels is not None:
            return self._kernels.check_physical()
        return check_physical(np.moveaxis(self.interior, 1, 0), self.config.gamma)

    def dt_from_speeds(
        self, sx: np.ndarray, sy: np.ndarray, cfl: float, dt_max: float
    ) -> float:
        """Fold per-patch wave speeds into the global CFL step.

        The speeds come from :meth:`wave_speeds`; the reduction is
        bit-identical to the patch loop.
        """
        smax = np.maximum(sx, sy)
        moving = smax > 0
        dt = float(dt_max)
        if np.any(moving):
            dt = min(dt, float((cfl * self.dx[moving] / smax[moving]).min()))
        return dt

    def conserved_totals(self) -> tuple[float, float]:
        """(total mass, total energy) integrated over the hierarchy.

        The O(P * mx^2) per-cell sums are vectorized; the final O(P) scalar
        accumulation runs in stack (= patch dict) order so the result is
        bit-identical to the per-patch reference loop.
        """
        area = self.dx * self.dx
        mass_per = self.interior[:, 0].sum(axis=(-2, -1))
        energy_per = self.interior[:, 3].sum(axis=(-2, -1))
        mass = 0.0
        energy = 0.0
        for i in range(len(self.keys)):
            mass += float(mass_per[i]) * area[i]
            energy += float(energy_per[i]) * area[i]
        return float(mass), float(energy)

    def total_bytes(self) -> int:
        """Bytes held by patch state (ghosts included), as the patch loop sums."""
        return int(self.q[0].nbytes) * len(self.keys)
