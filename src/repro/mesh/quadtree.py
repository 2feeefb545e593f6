"""A single adaptive quadtree storing its leaves in Morton order.

The tree is *linear*: only leaves are stored, as a sorted list of
:class:`~repro.mesh.quadrant.Quadrant`.  Refinement replaces a leaf by its
four children; coarsening replaces a complete sibling family by its parent.
Both operations preserve the Morton order without re-sorting, because a
quadrant's children are contiguous in the curve.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from repro.mesh.quadrant import (
    MAX_LEVEL,
    Quadrant,
    is_ancestor,
    quadrant_children,
    quadrant_parent,
    root_quadrant,
)


#: (shift, mask) steps that insert a zero bit after each of the low 32 bits.
_SPREAD = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _key(q: Quadrant) -> int:
    """Total-order key of ``q``: Morton index on the finest lattice, then level.

    The Morton index interleaves the bits of ``q``'s lower-left corner on
    the ``2**MAX_LEVEL`` lattice, x in the even bits and y in the odd ones.
    A quadrant shares that index with its first descendant, so the level
    breaks the tie: sorting by ``index * (MAX_LEVEL + 1) + level`` puts an
    ancestor before its descendants and same-level quadrants in z order,
    which is p4est's leaf order.
    """
    shift = MAX_LEVEL - q.level
    x, y = q.x << shift, q.y << shift
    for s, mask in _SPREAD:
        x = (x | (x << s)) & mask
        y = (y | (y << s)) & mask
    return (x | (y << 1)) * (MAX_LEVEL + 1) + q.level


class Quadtree:
    """Linear quadtree over the unit square.

    Parameters
    ----------
    leaves : iterable of Quadrant, optional
        Initial leaves; must tile the unit square exactly.  Defaults to the
        single root quadrant.

    Notes
    -----
    The leaf list is kept sorted by Morton key at all times, which makes
    point location and ancestry queries ``O(log n)``.  A set of the same
    leaves answers membership in ``O(1)`` without computing a key.
    """

    def __init__(self, leaves: Iterable[Quadrant] | None = None) -> None:
        if leaves is None:
            self._leaves: list[Quadrant] = [root_quadrant()]
        else:
            self._leaves = sorted(leaves, key=_key)
            self._check_tiling()
        self._keys = [_key(q) for q in self._leaves]
        self._leaf_set = set(self._leaves)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def uniform(cls, level: int) -> "Quadtree":
        """A tree uniformly refined to ``level`` (``4**level`` leaves)."""
        n = 1 << level
        leaves = [Quadrant(level, x, y) for y in range(n) for x in range(n)]
        return cls(leaves)

    def _area_units(self) -> int:
        """Leaf area in cells of level ``MAX_LEVEL``, summed exactly."""
        return sum(4 ** (MAX_LEVEL - q.level) for q in self._leaves)

    def _check_tiling(self) -> None:
        if self._area_units() != 4**MAX_LEVEL:
            raise ValueError(
                f"leaves do not tile the unit square (area={self.covered_area()})"
            )
        for a, b in zip(self._leaves, self._leaves[1:]):
            if a == b or is_ancestor(a, b) or is_ancestor(b, a):
                raise ValueError(f"overlapping leaves {a} and {b}")

    # -- basic queries ---------------------------------------------------------

    @property
    def leaves(self) -> Sequence[Quadrant]:
        """Leaves in Morton order (read-only view)."""
        return tuple(self._leaves)

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, q: Quadrant) -> bool:
        return q in self._leaf_set

    @property
    def max_level(self) -> int:
        """Deepest refinement level present among the leaves."""
        return max(q.level for q in self._leaves)

    def descendants(self, q: Quadrant) -> Sequence[Quadrant]:
        """Leaves equal to or descending from ``q``, in Morton order.

        Descendants occupy a contiguous Morton-key range, so this is two
        bisections and a slice — O(log n + k) instead of scanning all
        leaves.  An ancestor *leaf* covering ``q`` shares the key prefix of
        ``q``'s first descendant and may appear in the slice; callers that
        need strict descendants filter with
        :func:`~repro.mesh.quadrant.is_ancestor`.
        """
        code = _key(q) // (MAX_LEVEL + 1)
        k0 = code * (MAX_LEVEL + 1)
        k1 = (code + 4 ** (MAX_LEVEL - q.level)) * (MAX_LEVEL + 1)
        i0 = bisect_left(self._keys, k0)
        i1 = bisect_left(self._keys, k1)
        return tuple(self._leaves[i0:i1])

    def index_of(self, q: Quadrant) -> int:
        """Position of leaf ``q`` in Morton order; raises if absent."""
        i = bisect_left(self._keys, _key(q))
        if i >= len(self._keys) or self._leaves[i] != q:
            raise KeyError(f"{q} is not a leaf")
        return i

    def locate(self, x: float, y: float) -> Quadrant:
        """The leaf containing the point ``(x, y)`` of the unit square.

        Points on internal edges resolve to the leaf whose half-open box
        ``[x0, x0+h) x [y0, y0+h)`` contains them; the far boundary of the
        unit square maps to the last cell in each direction.
        """
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside unit square")
        # Walk down from the root guided by the point.
        q = root_quadrant()
        while q not in self:
            h = q.size / 2.0
            ox, oy = q.origin
            cx = 1 if (x >= ox + h and q.x * 2 + 1 < (1 << (q.level + 1))) else 0
            cy = 1 if (y >= oy + h) else 0
            # Clamp the far boundary into the last child.
            if x >= ox + q.size:
                cx = 1
            if y >= oy + q.size:
                cy = 1
            q = quadrant_children(q)[(cy << 1) | cx]
            if q.level > MAX_LEVEL:  # pragma: no cover - defensive
                raise RuntimeError("descended past MAX_LEVEL without a leaf")
        return q

    # -- mutation ----------------------------------------------------------------

    def refine(self, q: Quadrant) -> tuple[Quadrant, ...]:
        """Replace leaf ``q`` by its four children; returns the children."""
        i = self.index_of(q)
        children = quadrant_children(q)
        self._leaves[i : i + 1] = list(children)
        self._keys[i : i + 1] = [_key(c) for c in children]
        self._leaf_set.remove(q)
        self._leaf_set.update(children)
        return children

    def coarsen(self, q: Quadrant) -> Quadrant:
        """Replace the complete sibling family of ``q`` by its parent.

        All four siblings must currently be leaves.  Returns the parent.
        """
        parent = quadrant_parent(q)
        family = quadrant_children(parent)
        try:
            i = self.index_of(family[0])
        except KeyError:
            raise ValueError(f"siblings of {q} are not all leaves") from None
        if tuple(self._leaves[i : i + 4]) != family:
            raise ValueError(f"siblings of {q} are not all leaves")
        self._leaves[i : i + 4] = [parent]
        self._keys[i : i + 4] = [_key(parent)]
        self._leaf_set.difference_update(family)
        self._leaf_set.add(parent)
        return parent

    # -- aggregate statistics ------------------------------------------------------

    def level_histogram(self) -> dict[int, int]:
        """Mapping level -> number of leaves at that level."""
        hist: dict[int, int] = {}
        for q in self._leaves:
            hist[q.level] = hist.get(q.level, 0) + 1
        return hist

    def covered_area(self) -> float:
        """Total area of all leaves (always 1.0 for a valid tree)."""
        return self._area_units() / 4**MAX_LEVEL
