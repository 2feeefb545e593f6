"""Batched (shape-stacked) execution of an AMR hierarchy.

Every patch of a hierarchy shares one array shape ``(4, mx+2ng, mx+2ng)``,
so the whole hierarchy can live in a single stacked array of shape
``(P, 4, n, n)`` with each :class:`~repro.amr.patch.Patch` holding a
zero-copy view of its slot.  This module provides

- :class:`PatchStack` — builds the stacked storage, rebinds every patch's
  state to a view of it, and exposes whole-hierarchy vectorized reductions
  (``dt_from_speeds``, ``check_physical``, ``conserved_totals``,
  ``total_bytes``);
- :class:`ExchangePlan` — a precomputed ghost-exchange program: the
  per-face neighbor classification of
  :func:`repro.amr.ghost.exchange_ghosts` (physical boundary, same-level,
  coarse–fine, fine–coarse) is resolved once per regrid into index arrays,
  and executed each step as a handful of batched gather/scatter operations
  instead of ``4 * P`` Python-level neighbor lookups;
- :class:`StackStepper` — the one sweep and wave-speed dispatch of the
  batched driver: the compiled kernels of :mod:`repro.solver.kernels`
  when they load and implement the configured Riemann solver and
  limiter, the numpy reference otherwise.

Invariants (see DESIGN.md, "Batched AMR patch kernels"):

- **View aliasing** — after ``PatchStack(...)`` construction,
  ``patch.q.base is stack.q`` for every patch; per-patch and stacked code
  paths read and write the same memory.
- **Plan invalidation** — any refine/coarsen (and hence any regrid or
  rebalance) changes the patch set, so the stack and its plan must be
  rebuilt; :meth:`PatchStack.covers` detects staleness structurally
  (a new patch owns its own array, so its ``q.base`` is not the stack).
- **Bit-identity** — every batched operation applies exactly the same
  elementwise IEEE operations (and identically-shaped reductions) as the
  per-patch reference path, so results are bit-for-bit equal; enforced by
  the property tests in ``tests/amr/test_batch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.amr.ghost import CHILDREN_ON_FACE, OPPOSITE_FACE, tangential_half
from repro.amr.patch import NUM_FIELDS, Patch
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.mesh.forest import Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent
from repro.solver import kernels
from repro.solver.boundary import BoundaryCondition
from repro.solver.fv import _sweep_stack
from repro.solver.state import IMX, IMY, primitive_from_conserved


def take_strips(
    stack: np.ndarray, idx: np.ndarray, face: int, width: int, mx: int, ng: int
) -> np.ndarray:
    """Batched :func:`repro.amr.ghost.take_strip` over stack rows ``idx``.

    Returns the interior cells adjacent to ``face`` of each selected patch,
    normalized to ``(K, 4, width, mx)``: axis 2 offset 0 touches the
    interface and increases *into* the source patch; axis 3 is the
    tangential coordinate.
    """
    lo, hi = ng, ng + mx
    if face == 0:
        return stack[idx, :, lo : lo + width, lo:hi]
    if face == 1:
        return stack[idx, :, hi - width : hi, lo:hi][:, :, ::-1, :]
    if face == 2:
        return np.swapaxes(stack[idx, :, lo:hi, lo : lo + width], 2, 3)
    if face == 3:
        return np.swapaxes(stack[idx, :, lo:hi, hi - width : hi][:, :, :, ::-1], 2, 3)
    raise ValueError(f"face must be 0..3, got {face}")


def write_ghosts(
    stack: np.ndarray,
    idx: np.ndarray,
    face: int,
    strips: np.ndarray,
    mx: int,
    ng: int,
) -> None:
    """Batched :func:`repro.amr.ghost.write_ghost` over stack rows ``idx``.

    Scatters normalized ``(K, 4, ng, mx)`` strips into the ``face`` ghost
    layers of each selected patch (axis 2 offset 0 touches the interface,
    increasing outward).
    """
    lo, hi = ng, ng + mx
    if strips.shape[1:] != (NUM_FIELDS, ng, mx):
        raise ValueError(f"strip shape {strips.shape} does not match ({ng}, {mx})")
    if face == 0:
        stack[idx, :, :ng, lo:hi] = strips[:, :, ::-1, :]
    elif face == 1:
        stack[idx, :, hi:, lo:hi] = strips
    elif face == 2:
        stack[idx, :, lo:hi, :ng] = np.swapaxes(strips, 2, 3)[:, :, :, ::-1]
    elif face == 3:
        stack[idx, :, lo:hi, hi:] = np.swapaxes(strips, 2, 3)
    else:
        raise ValueError(f"face must be 0..3, got {face}")


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


@dataclass(frozen=True, slots=True)
class StackStepper:
    """Sweeps and CFL wave speeds over a :class:`PatchStack`'s array.

    It runs the compiled kernels
    (:func:`repro.solver.kernels.fused_sweep` /
    :func:`~repro.solver.kernels.wave_speeds`) when
    :func:`repro.solver.kernels.load` succeeds and ``riemann`` and
    ``limiter`` name routines the C source implements.  Otherwise — no
    compiler, a callable solver or limiter, an unknown name — it runs the
    numpy reference (:func:`repro.solver.fv._sweep_stack`,
    :func:`stack_wave_speeds`).  Both are bit-identical.
    """

    ng: int
    riemann: str | Callable
    limiter: str | Callable
    gamma: float

    @classmethod
    def from_config(cls, config) -> "StackStepper":
        """The stepper of an :class:`~repro.amr.driver.AmrConfig`."""
        return cls(config.ng, config.riemann, config.limiter, config.gamma)

    @property
    def lib(self):
        """The kernel library, or None when this process steps in numpy."""
        return kernels.load()

    @property
    def compiled(self) -> bool:
        """True iff sweeps and wave speeds run the compiled kernels."""
        return (
            isinstance(self.riemann, str)
            and self.riemann in kernels.RIEMANN_IDS
            and isinstance(self.limiter, str)
            and self.limiter in kernels.LIMITER_IDS
            and self.lib is not None
        )

    def sweep(self, q: np.ndarray, dt_dx: np.ndarray, axis: int) -> None:
        """In-place sweep of C-contiguous ``(P, 4, n, n)`` rows; axis 0 is x."""
        if self.compiled:
            kernels.fused_sweep(
                q, dt_dx, self.ng, axis, self.riemann, self.limiter, self.gamma
            )
        else:
            _sweep_stack(
                q, dt_dx, self.ng, "x" if axis == 0 else "y",
                self.riemann, self.limiter, self.gamma,
            )

    def wave_speeds(self, q: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> None:
        """Per-row interior maxima of ``|u|+c`` / ``|v|+c`` into ``sx`` / ``sy``."""
        if self.compiled:
            kernels.wave_speeds(q, self.ng, self.gamma, sx, sy)
        else:
            ng = self.ng
            sx[:], sy[:] = stack_wave_speeds(q[:, :, ng:-ng, ng:-ng], self.gamma)


def _index_pairs(rows: list[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """Transpose a list of equal-length index tuples into intp arrays."""
    return tuple(np.asarray(col, dtype=np.intp) for col in zip(*rows))


@dataclass(frozen=True, slots=True)
class ExchangePlan:
    """A compiled ghost-exchange program for one fixed hierarchy.

    Each group batches every (patch, face) pair in the same configuration:

    - ``physical``: ``(face, bc, dst)`` — domain-boundary faces per BC.
    - ``same``: ``(face, dst, src)`` — same-level neighbor copies.
    - ``coarse``: ``(face, half, dst, src)`` — fine patches interpolating
      from a coarser neighbor, grouped by which tangential half of the
      coarse face they touch.
    - ``fine``: ``(face, dst, src_low, src_high)`` — coarse patches
      restricting from their two finer neighbors (tangential order).

    All reads gather interior cells and all writes scatter ghost cells, so
    group execution order is irrelevant.
    """

    mx: int
    ng: int
    physical: tuple[tuple[int, BoundaryCondition, np.ndarray], ...]
    same: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    coarse: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    fine: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]

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
        fails at plan-build time rather than mid-step.
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
        physical: dict[tuple[int, BoundaryCondition], list[int]] = {}
        same: dict[int, list[tuple[int, int]]] = {}
        coarse: dict[tuple[int, int], list[tuple[int, int]]] = {}
        fine: dict[int, list[tuple[int, int, int]]] = {}
        for (tree, quad), i in index.items():
            for face in range(4):
                hit = forest.face_neighbor(tree, quad, face)
                if hit is None:
                    physical.setdefault((face, bc_objs[face]), []).append(i)
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
        return cls(
            mx=mx,
            ng=ng,
            physical=tuple(
                (face, bc, np.asarray(rows, dtype=np.intp))
                for (face, bc), rows in physical.items()
            ),
            same=tuple(
                (face, *_index_pairs(rows)) for face, rows in same.items()
            ),
            coarse=tuple(
                (face, half, *_index_pairs(rows))
                for (face, half), rows in coarse.items()
            ),
            fine=tuple(
                (face, *_index_pairs(rows)) for face, rows in fine.items()
            ),
        )

    def execute(self, stack: np.ndarray) -> None:
        """Fill every ghost strip of ``stack`` per the compiled program."""
        mx, ng = self.mx, self.ng
        for face, bc, dst in self.physical:
            if bc == BoundaryCondition.OUTFLOW:
                edge = take_strips(stack, dst, face, 1, mx, ng)
                strips = np.repeat(edge, ng, axis=2)
            else:  # REFLECT (others rejected at build time)
                strips = take_strips(stack, dst, face, ng, mx, ng)
                strips[:, IMX if face < 2 else IMY] *= -1.0
            write_ghosts(stack, dst, face, strips, mx, ng)
        for face, dst, src in self.same:
            write_ghosts(
                stack,
                dst,
                face,
                take_strips(stack, src, OPPOSITE_FACE[face], ng, mx, ng),
                mx,
                ng,
            )
        hmx = mx // 2
        for face, half, dst, src in self.coarse:
            wide = take_strips(stack, src, OPPOSITE_FACE[face], ng // 2, mx, ng)
            block = np.ascontiguousarray(wide[:, :, :, half * hmx : (half + 1) * hmx])
            write_ghosts(stack, dst, face, prolong_patch(block), mx, ng)
        for face, dst, src_low, src_high in self.fine:
            opp = OPPOSITE_FACE[face]
            pieces = [
                restrict_area_average(
                    np.ascontiguousarray(take_strips(stack, s, opp, 2 * ng, mx, ng))
                )
                for s in (src_low, src_high)
            ]
            write_ghosts(
                stack, dst, face, np.concatenate(pieces, axis=3)[:, :, :, :mx], mx, ng
            )

    @property
    def num_groups(self) -> int:
        """Number of batched gather/scatter groups executed per exchange."""
        return (
            len(self.physical) + len(self.same) + len(self.coarse) + len(self.fine)
        )


class PatchStack:
    """Shape-stacked storage plus compiled exchange plan for one hierarchy.

    Construction copies every patch's state into one ``(P, 4, n, n)`` array
    and rebinds each ``patch.q`` to the corresponding zero-copy view, so
    subsequent per-patch and batched accesses alias the same memory.  The
    stack is only valid until the hierarchy changes; the driver drops it on
    refine/coarsen and :meth:`covers` double-checks structurally.
    """

    __slots__ = ("keys", "index", "q", "mx", "ng", "dx", "plan")

    def __init__(
        self,
        forest: Forest,
        patches: dict[tuple[int, Quadrant], Patch],
        mx: int,
        ng: int,
        bcs: tuple,
    ) -> None:
        if not patches:
            raise ValueError("cannot stack an empty hierarchy")
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
        self.plan = ExchangePlan.build(forest, patches, self.index, mx, ng, bcs)

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

    def exchange(self) -> None:
        """Fill all ghost layers via the precomputed exchange plan."""
        self.plan.execute(self.q)

    def dt_from_speeds(
        self, sx: np.ndarray, sy: np.ndarray, cfl: float, dt_max: float
    ) -> float:
        """Fold per-patch wave speeds into the global CFL step.

        The speeds come from :meth:`StackStepper.wave_speeds`; the
        reduction is bit-identical to the patch loop.
        """
        smax = np.maximum(sx, sy)
        moving = smax > 0
        dt = float(dt_max)
        if np.any(moving):
            dt = min(dt, float((cfl * self.dx[moving] / smax[moving]).min()))
        return dt

    def check_physical(self, gamma: float) -> bool:
        """True iff every interior cell of every patch is physical."""
        q = np.moveaxis(self.interior, 1, 0)
        if not np.all(np.isfinite(q)):
            return False
        rho = q[0]
        if np.any(rho <= 0.0):
            return False
        p = (gamma - 1.0) * (q[3] - 0.5 * (q[1] ** 2 + q[2] ** 2) / rho)
        return bool(np.all(p > 0.0))

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
