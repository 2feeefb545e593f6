"""A forest of quadtrees laid out as a brick of unit squares.

ForestClaw's computational domain is a *brick*: an ``ni x nj`` array of
unit-square trees, each an independently adaptive :class:`Quadtree`.  The
forest provides global leaf enumeration (tree-major, Morton within trees,
matching p4est's global ordering), point location in brick coordinates, and
cross-tree neighbor lookups needed by the 2:1 balance pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.mesh.quadrant import FACE_OFFSETS, Quadrant
from repro.mesh.quadtree import Quadtree


@dataclass(frozen=True, slots=True)
class BrickTopology:
    """Connectivity of an ``ni x nj`` brick of trees.

    Trees are numbered row-major: tree ``t`` sits at column ``t % ni`` and
    row ``t // ni``.  Physical (domain) boundaries have no neighbor.
    """

    ni: int
    nj: int

    def __post_init__(self) -> None:
        if self.ni < 1 or self.nj < 1:
            raise ValueError("brick dimensions must be positive")

    @property
    def num_trees(self) -> int:
        return self.ni * self.nj

    def tree_coords(self, tree: int) -> tuple[int, int]:
        """(column, row) of ``tree`` in the brick."""
        if not 0 <= tree < self.num_trees:
            raise ValueError(f"tree {tree} outside brick")
        return tree % self.ni, tree // self.ni

    def tree_at(self, ci: int, cj: int) -> int:
        """Tree id at brick column ``ci``, row ``cj``."""
        if not (0 <= ci < self.ni and 0 <= cj < self.nj):
            raise ValueError("brick coordinates out of range")
        return cj * self.ni + ci

    def face_neighbor_tree(self, tree: int, face: int) -> int | None:
        """Tree across ``face`` of ``tree``; ``None`` at the domain boundary."""
        ci, cj = self.tree_coords(tree)
        dx, dy = FACE_OFFSETS[face]
        ni_, nj_ = ci + dx, cj + dy
        if not (0 <= ni_ < self.ni and 0 <= nj_ < self.nj):
            return None
        return self.tree_at(ni_, nj_)


class Forest:
    """A brick of independently adaptive quadtrees.

    Parameters
    ----------
    topology : BrickTopology
        Brick layout.
    initial_level : int, optional
        Uniform refinement level every tree starts at (default 0).
    """

    def __init__(self, topology: BrickTopology, initial_level: int = 0) -> None:
        self.topology = topology
        self.trees: list[Quadtree] = [
            Quadtree.uniform(initial_level) for _ in range(topology.num_trees)
        ]

    # -- global enumeration ----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(t) for t in self.trees)

    def iter_leaves(self) -> Iterator[tuple[int, Quadrant]]:
        """Yield ``(tree_id, quadrant)`` in global (tree-major Morton) order."""
        for t, tree in enumerate(self.trees):
            for q in tree.leaves:
                yield t, q

    def leaf_list(self) -> list[tuple[int, Quadrant]]:
        """Global leaf order as a list."""
        return list(self.iter_leaves())

    @property
    def max_level(self) -> int:
        return max(t.max_level for t in self.trees)

    def level_histogram(self) -> dict[int, int]:
        """Leaf count per level across all trees."""
        hist: dict[int, int] = {}
        for tree in self.trees:
            for lv, n in tree.level_histogram().items():
                hist[lv] = hist.get(lv, 0) + n
        return hist

    # -- geometry ----------------------------------------------------------------

    def domain_extent(self) -> tuple[float, float]:
        """Physical width and height of the brick (one unit per tree)."""
        return float(self.topology.ni), float(self.topology.nj)

    def locate(self, x: float, y: float) -> tuple[int, Quadrant]:
        """Leaf containing physical point ``(x, y)`` in brick coordinates."""
        w, h = self.domain_extent()
        if not (0.0 <= x <= w and 0.0 <= y <= h):
            raise ValueError(f"point ({x}, {y}) outside brick")
        ci = min(int(x), self.topology.ni - 1)
        cj = min(int(y), self.topology.nj - 1)
        tree = self.topology.tree_at(ci, cj)
        return tree, self.trees[tree].locate(x - ci, y - cj)

    # -- neighbor queries ------------------------------------------------------------

    def face_neighbor(
        self, tree: int, q: Quadrant, face: int
    ) -> tuple[int, Quadrant] | None:
        """Same-level quadrant across ``face``, possibly in a neighboring tree.

        Returns ``(tree_id, quadrant)`` or ``None`` at the physical boundary.
        The returned quadrant is the *abstract* same-level neighbor; it may
        or may not be a leaf of its tree.
        """
        n = 1 << q.level
        dx, dy = FACE_OFFSETS[face]
        nx, ny = q.x + dx, q.y + dy
        if 0 <= nx < n and 0 <= ny < n:
            return tree, Quadrant(q.level, nx, ny)
        ntree = self.topology.face_neighbor_tree(tree, face)
        if ntree is None:
            return None
        # Wrap the coordinate into the neighboring tree.
        return ntree, Quadrant(q.level, nx % n, ny % n)
