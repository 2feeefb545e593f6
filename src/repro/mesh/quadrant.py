"""Quadrant arithmetic: the atomic cell identifier of a quadtree.

A :class:`Quadrant` is an immutable ``(level, x, y)`` triple where ``x`` and
``y`` are coordinates on the ``2**level`` lattice of its tree.  The family
relations used by the mesh and by :mod:`repro.amr` — children, parent,
ancestry — are pure integer arithmetic and implemented here without any
reference to the tree containing the quadrant.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Deepest refinement level supported.  Finest-lattice coordinates then fit
#: the 32-bit spreading of the quadtree's keys, and the keys fit in 63 bits.
MAX_LEVEL = 29

#: Face index convention: 0=-x, 1=+x, 2=-y, 3=+y (matches p4est).
FACE_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True, slots=True)
class Quadrant:
    """An immutable quadtree cell at ``level`` with own-level coords ``x, y``.

    Attributes
    ----------
    level : int
        Refinement level; the root quadrant has level 0.
    x, y : int
        Integer coordinates, ``0 <= x, y < 2**level``.
    """

    level: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        n = 1 << self.level
        if not (0 <= self.x < n and 0 <= self.y < n):
            raise ValueError(
                f"coords ({self.x}, {self.y}) outside lattice of level {self.level}"
            )

    @property
    def size(self) -> float:
        """Edge length of the quadrant in the unit square."""
        return 1.0 / (1 << self.level)

    @property
    def origin(self) -> tuple[float, float]:
        """Lower-left corner of the quadrant in the unit square."""
        h = self.size
        return (self.x * h, self.y * h)

    @property
    def child_id(self) -> int:
        """Position among siblings: ``(y & 1) << 1 | (x & 1)``; 0 for root."""
        if self.level == 0:
            return 0
        return ((self.y & 1) << 1) | (self.x & 1)


def root_quadrant() -> Quadrant:
    """The level-0 quadrant covering the whole tree."""
    return Quadrant(0, 0, 0)


def quadrant_children(q: Quadrant) -> tuple[Quadrant, ...]:
    """The four children of ``q`` in Morton (z) order."""
    if q.level >= MAX_LEVEL:
        raise ValueError("cannot refine past MAX_LEVEL")
    lv, cx, cy = q.level + 1, q.x << 1, q.y << 1
    return (
        Quadrant(lv, cx, cy),
        Quadrant(lv, cx + 1, cy),
        Quadrant(lv, cx, cy + 1),
        Quadrant(lv, cx + 1, cy + 1),
    )


def quadrant_parent(q: Quadrant) -> Quadrant:
    """The parent of ``q``; raises for the root."""
    if q.level == 0:
        raise ValueError("root quadrant has no parent")
    return Quadrant(q.level - 1, q.x >> 1, q.y >> 1)


def is_ancestor(a: Quadrant, b: Quadrant) -> bool:
    """True iff ``a`` strictly contains ``b`` (``a`` is a proper ancestor)."""
    if a.level >= b.level:
        return False
    shift = b.level - a.level
    return (b.x >> shift) == a.x and (b.y >> shift) == a.y
