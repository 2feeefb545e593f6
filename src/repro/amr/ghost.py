"""Ghost-layer exchange across patch boundaries of an AMR hierarchy.

Every patch face is in exactly one of four configurations (guaranteed by
2:1 balance): physical boundary, same-level neighbor, one coarser neighbor,
or two finer neighbors.  Strips are normalized to ``(4, width, mx)`` arrays
whose axis 1 is the normal offset *away from the interface* and axis 2 the
tangential coordinate (increasing y for x-faces, increasing x for y-faces);
this makes level transfer uniform for all four faces.

Corner ghost cells are not exchanged: the driver refreshes ghosts between
dimensional sweeps, and a 1-D sweep only reads ghosts in its own row or
column, so corner values never reach interior cells.
"""

from __future__ import annotations

import numpy as np

from repro.amr.patch import Patch
from repro.amr.transfer import prolong_patch, restrict_area_average
from repro.mesh.forest import Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent
from repro.solver.boundary import BoundaryCondition
from repro.solver.state import IMX, IMY

#: Face opposite to each face index (-x <-> +x, -y <-> +y).
OPPOSITE_FACE = (1, 0, 3, 2)

#: Child ids adjacent to each face of their parent, in tangential order.
#: E.g. a neighbor met through our face 0 (-x) shares its +x face (face 1),
#: so the relevant children are those with the high x bit: ids 1 and 3.
CHILDREN_ON_FACE = ((0, 2), (1, 3), (0, 1), (2, 3))


def take_strip(patch: Patch, face: int, width: int) -> np.ndarray:
    """Interior cells adjacent to ``face``, normalized to (4, width, mx).

    Axis 1 offset 0 is the cell row/column touching the interface, and the
    offset increases *into* the source patch.
    """
    ng, mx = patch.ng, patch.mx
    interior = patch.q[:, ng : ng + mx, ng : ng + mx]
    if face == 0:
        return interior[:, :width, :]
    if face == 1:
        return interior[:, mx - width :, :][:, ::-1, :]
    if face == 2:
        return np.swapaxes(interior[:, :, :width], 1, 2)
    if face == 3:
        return np.swapaxes(interior[:, :, mx - width :][:, :, ::-1], 1, 2)
    raise ValueError(f"face must be 0..3, got {face}")


def write_ghost(patch: Patch, face: int, strip: np.ndarray) -> None:
    """Write a normalized (4, ng, mx) strip into the ghost cells of ``face``.

    Axis 1 offset 0 is the ghost layer touching the interface, increasing
    outward (away from the patch interior).
    """
    ng, mx = patch.ng, patch.mx
    if strip.shape != (patch.q.shape[0], ng, mx):
        raise ValueError(f"strip shape {strip.shape} does not match ({ng}, {mx})")
    if face == 0:
        patch.q[:, :ng, ng : ng + mx] = strip[:, ::-1, :]
    elif face == 1:
        patch.q[:, ng + mx :, ng : ng + mx] = strip
    elif face == 2:
        patch.q[:, ng : ng + mx, :ng] = np.swapaxes(strip, 1, 2)[:, :, ::-1]
    elif face == 3:
        patch.q[:, ng : ng + mx, ng + mx :] = np.swapaxes(strip, 1, 2)
    else:
        raise ValueError(f"face must be 0..3, got {face}")


def _physical_strip(patch: Patch, face: int, bc: BoundaryCondition) -> np.ndarray:
    """Ghost strip implementing a physical boundary condition."""
    ng = patch.ng
    if bc == BoundaryCondition.OUTFLOW:
        edge = take_strip(patch, face, 1)
        return np.repeat(edge, ng, axis=1)
    if bc == BoundaryCondition.REFLECT:
        strip = take_strip(patch, face, ng).copy()
        normal_momentum = IMX if face < 2 else IMY
        strip[normal_momentum] *= -1.0
        return strip
    raise ValueError(f"unsupported physical BC {bc} (periodic needs a torus brick)")


def tangential_half(patch_quad: Quadrant, face: int) -> int:
    """Which half (0=low, 1=high) of a coarse neighbor's face we touch."""
    if face < 2:  # x-face: tangential coordinate is y
        return patch_quad.y & 1
    return patch_quad.x & 1


def exchange_ghosts(
    forest: Forest,
    patches: dict[tuple[int, Quadrant], Patch],
    bcs: tuple = ("outflow", "outflow", "outflow", "outflow"),
) -> None:
    """Fill the edge ghost strips of every patch in the hierarchy.

    Parameters
    ----------
    forest : Forest
        Must be 2:1 balanced and have exactly the leaves of ``patches``.
    patches : dict
        ``(tree, quadrant) -> Patch`` for every leaf.
    bcs : 4-tuple
        Physical boundary conditions (left, right, bottom, top).
    """
    bc_objs = tuple(
        b if isinstance(b, BoundaryCondition) else BoundaryCondition(b) for b in bcs
    )
    for (tree, quad), patch in patches.items():
        for face in range(4):
            hit = forest.face_neighbor(tree, quad, face)
            if hit is None:
                write_ghost(patch, face, _physical_strip(patch, face, bc_objs[face]))
                continue
            ntree, nq = hit
            opp = OPPOSITE_FACE[face]
            same = patches.get((ntree, nq))
            if same is not None:
                write_ghost(patch, face, take_strip(same, opp, patch.ng))
                continue
            if nq.level > 0:
                coarse = patches.get((ntree, quadrant_parent(nq)))
                if coarse is not None:
                    write_ghost(patch, face, _from_coarse(patch, coarse, quad, face, opp))
                    continue
            write_ghost(patch, face, _from_fine(patch, patches, ntree, nq, opp))


# NOTE: the per-step classification above is also resolved *once per regrid*
# into a batched gather/scatter program by repro.amr.batch.ExchangePlan; this
# per-patch routine is the bit-identical reference implementation.


def _from_coarse(
    patch: Patch, coarse: Patch, quad: Quadrant, face: int, opp: int
) -> np.ndarray:
    """Ghost strip interpolated from a one-level-coarser neighbor."""
    ng, mx = patch.ng, patch.mx
    if ng % 2:
        raise ValueError("coarse-fine ghost exchange requires even ng")
    half = tangential_half(quad, face)
    wide = take_strip(coarse, opp, ng // 2)
    block = wide[:, :, half * (mx // 2) : (half + 1) * (mx // 2)]
    return prolong_patch(np.ascontiguousarray(block))


def _from_fine(
    patch: Patch,
    patches: dict[tuple[int, Quadrant], Patch],
    ntree: int,
    nq: Quadrant,
    opp: int,
) -> np.ndarray:
    """Ghost strip restricted from the two one-level-finer neighbors."""
    ng, mx = patch.ng, patch.mx
    children = quadrant_children(nq)
    pieces = []
    for cid in CHILDREN_ON_FACE[opp]:
        child_patch = patches.get((ntree, children[cid]))
        if child_patch is None:
            raise KeyError(
                f"forest not 2:1 balanced: missing neighbor leaf {children[cid]}"
            )
        fine = take_strip(child_patch, opp, 2 * ng)
        pieces.append(restrict_area_average(np.ascontiguousarray(fine)))
    return np.concatenate(pieces, axis=2)[:, :, :mx]
