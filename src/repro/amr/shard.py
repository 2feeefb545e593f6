"""Flat-index compilation of the ghost-exchange plan for the C kernels.

:class:`~repro.amr.batch.ExchangePlan` describes the exchange as batched
gather/scatter groups over the whole hierarchy, and executes them in
numpy.  The serial batched driver runs the exchange through the compiled
kernels of :mod:`repro.solver.kernels` instead; this module compiles the
plan one level further for them, down to flat element indices of the
stack array, with one owner for every row:

- **copy traffic** (same-level neighbors, outflow walls, the non-negated
  fields of reflecting walls) becomes two flat ``int32`` index vectors:
  ``flat[dst] = flat[src]``;
- **negated traffic** (the wall-normal momentum of reflecting walls)
  becomes the same with a ``* -1.0``;
- **coarse-to-fine** traffic is gathered into a normalized staging buffer,
  prolonged for *all* faces and halves in one batch, and scattered back;
- **fine-to-coarse** traffic is gathered per source piece, restricted in
  one batch, and scattered into the tangential halves of the ghost strips.

The index templates are derived by running :func:`take_strips` /
:func:`write_ghosts` on an index-valued patch, so they are consistent with
the numpy exchange by construction; all transforms are elementwise per
traffic row, so :meth:`ShardProgram.execute` is bit-identical to
``ExchangePlan.execute``, which stays the numpy path and the reference
(pinned by ``tests/amr/test_shard.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.amr.batch import PatchStack, take_strips, write_ghosts
from repro.amr.ghost import OPPOSITE_FACE
from repro.amr.patch import NUM_FIELDS
from repro.solver import kernels
from repro.solver.boundary import BoundaryCondition
from repro.solver.state import IMX, IMY


@lru_cache(maxsize=None)
def _src_template(face: int, width: int, mx: int, ng: int) -> np.ndarray:
    """Flat in-patch offsets of ``take_strips(.., face, width)`` sources.

    Shape ``(4, width, mx)`` in normalized strip order.
    """
    n = mx + 2 * ng
    idx = np.arange(NUM_FIELDS * n * n, dtype=np.int64).reshape(NUM_FIELDS, n, n)
    out = take_strips(idx[None], np.array([0]), face, width, mx, ng)[0]
    return np.ascontiguousarray(out)


@lru_cache(maxsize=None)
def _dst_template(face: int, mx: int, ng: int) -> np.ndarray:
    """Flat in-patch offsets of the ``face`` ghost strip, normalized order.

    ``write_ghosts`` of a normalized ``(4, ng, mx)`` strip writes element
    ``(f, k, t)`` to offset ``template[f, k, t]``.
    """
    n = mx + 2 * ng
    buf = np.full((1, NUM_FIELDS, n, n), -1, dtype=np.int64)
    strip = np.arange(NUM_FIELDS * ng * mx, dtype=np.int64).reshape(
        1, NUM_FIELDS, ng, mx
    )
    write_ghosts(buf, np.array([0]), face, strip, mx, ng)
    flat = buf.ravel()
    mask = flat >= 0
    out = np.empty(NUM_FIELDS * ng * mx, dtype=np.int64)
    out[flat[mask]] = np.nonzero(mask)[0]
    return out.reshape(NUM_FIELDS, ng, mx)


def _rows(rows: np.ndarray, template: np.ndarray, patch_stride: int) -> np.ndarray:
    """Full flat indices: one template instance per stack row."""
    return (
        rows.astype(np.int64)[:, None, None, None] * patch_stride
        + template[None]
    ).reshape(len(rows), *template.shape)


@dataclass
class ShardProgram:
    """The ghost exchange of one stack as flat ``int32`` index programs.

    :meth:`execute` applies it to the stack array through the compiled
    kernels; like ``ExchangePlan.execute`` it writes only ghost cells and
    reads only patch interiors, so the order of its groups cannot matter.
    """

    # flat[dst] = flat[src]
    copy_dst: np.ndarray
    copy_src: np.ndarray
    # flat[dst] = flat[src] * -1.0  (reflecting-wall momentum)
    neg_dst: np.ndarray
    neg_src: np.ndarray
    # coarse->fine: gather (K,4,ng//2,mx//2), prolong, scatter (K,4,ng,mx)
    coarse_gather: np.ndarray
    coarse_scatter: np.ndarray
    # fine->coarse: gather (K,4,2ng,mx), restrict, scatter (K,4,ng,mx//2)
    fine_gather: np.ndarray
    fine_scatter: np.ndarray

    def execute(self, stack_q: np.ndarray) -> None:
        """Fill every ghost strip of ``stack_q`` with the compiled kernels."""
        flat = stack_q.reshape(-1)
        kernels.copy_indexed(flat, self.copy_dst, self.copy_src, 1.0)
        kernels.copy_indexed(flat, self.neg_dst, self.neg_src, -1.0)
        if self.coarse_gather.size:
            gbuf, pbuf = self._coarse_buffers()
            kernels.gather_indexed(flat, self.coarse_gather.reshape(-1), gbuf)
            kernels.prolong_blocks(
                gbuf, self.coarse_gather.shape[2], self.coarse_gather.shape[3],
                pbuf,
            )
            kernels.scatter_indexed(flat, self.coarse_scatter.reshape(-1), pbuf)
        if self.fine_gather.size:
            gbuf, rbuf = self._fine_buffers()
            kernels.gather_indexed(flat, self.fine_gather.reshape(-1), gbuf)
            kernels.restrict_blocks(
                gbuf, self.fine_gather.shape[2], self.fine_gather.shape[3],
                rbuf,
            )
            kernels.scatter_indexed(flat, self.fine_scatter.reshape(-1), rbuf)

    def _coarse_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        buf = getattr(self, "_cbuf", None)
        if buf is None or buf[0].size != self.coarse_gather.size:
            buf = (
                np.empty(self.coarse_gather.size, dtype=np.float64),
                np.empty(self.coarse_scatter.size, dtype=np.float64),
            )
            self._cbuf = buf
        return buf

    def _fine_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        buf = getattr(self, "_fbuf", None)
        if buf is None or buf[0].size != self.fine_gather.size:
            buf = (
                np.empty(self.fine_gather.size, dtype=np.float64),
                np.empty(self.fine_scatter.size, dtype=np.float64),
            )
            self._fbuf = buf
        return buf


def build_sharded_exchange(stack: PatchStack) -> ShardProgram:
    """Compile ``stack.plan`` into one flat-index program over every row."""
    plan = stack.plan
    mx, ng = plan.mx, plan.ng
    n = mx + 2 * ng
    S = NUM_FIELDS * n * n
    if len(stack) * S > np.iinfo(np.int32).max:
        raise ValueError("stack too large for int32 exchange indices")
    hmx = mx // 2
    w2 = ng // 2
    copy_d, copy_s, neg_d, neg_s = [], [], [], []
    coarse_g, coarse_c, fine_g, fine_c = [], [], [], []

    for face, bc, dst in plan.physical:
        dst_t = _dst_template(face, mx, ng)
        if bc == BoundaryCondition.OUTFLOW:
            edge_t = _src_template(face, 1, mx, ng)
            src_t = np.broadcast_to(edge_t[:, 0:1, :], dst_t.shape)
        else:  # REFLECT
            src_t = _src_template(face, ng, mx, ng)
        d = _rows(dst, dst_t, S)
        s = _rows(dst, src_t, S)
        if bc == BoundaryCondition.REFLECT:
            fields = np.arange(NUM_FIELDS) != (IMX if face < 2 else IMY)
            copy_d.append(d[:, fields])
            copy_s.append(s[:, fields])
            neg_d.append(d[:, ~fields])
            neg_s.append(s[:, ~fields])
        else:
            copy_d.append(d)
            copy_s.append(s)

    for face, dst, src in plan.same:
        copy_d.append(_rows(dst, _dst_template(face, mx, ng), S))
        copy_s.append(_rows(src, _src_template(OPPOSITE_FACE[face], ng, mx, ng), S))

    for face, half, dst, src in plan.coarse:
        wide_t = _src_template(OPPOSITE_FACE[face], w2, mx, ng)
        block_t = np.ascontiguousarray(
            wide_t[:, :, half * hmx : (half + 1) * hmx]
        )
        coarse_g.append(_rows(src, block_t, S))
        coarse_c.append(_rows(dst, _dst_template(face, mx, ng), S))

    for face, dst, src_low, src_high in plan.fine:
        dst_t = _dst_template(face, mx, ng)
        wide_t = _src_template(OPPOSITE_FACE[face], 2 * ng, mx, ng)
        for piece, src in enumerate((src_low, src_high)):
            cols = slice(piece * hmx, (piece + 1) * hmx)
            fine_g.append(_rows(src, wide_t, S))
            fine_c.append(_rows(dst, np.ascontiguousarray(dst_t[:, :, cols]), S))

    def cat(parts: list, shape_tail: tuple) -> np.ndarray:
        # The kernels take int32 indices; the guard above keeps the flat
        # element space in range.
        if not parts:
            return np.empty((0, *shape_tail), dtype=np.int32)
        return np.ascontiguousarray(
            np.concatenate(parts, axis=0), dtype=np.int32
        )

    def flat(parts: list) -> np.ndarray:
        return cat([p.reshape(-1) for p in parts], ())

    return ShardProgram(
        copy_dst=flat(copy_d),
        copy_src=flat(copy_s),
        neg_dst=flat(neg_d),
        neg_src=flat(neg_s),
        coarse_gather=cat(coarse_g, (NUM_FIELDS, w2, hmx)),
        coarse_scatter=cat(coarse_c, (NUM_FIELDS, ng, mx)),
        fine_gather=cat(fine_g, (NUM_FIELDS, 2 * ng, mx)),
        fine_scatter=cat(fine_c, (NUM_FIELDS, ng, hmx)),
    )
