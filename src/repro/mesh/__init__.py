"""Forest-of-quadtrees grid management (a pure-Python analogue of p4est).

ForestClaw, the AMR package evaluated in the paper, delegates its grid
management to p4est: quadrants are identified by integer coordinates plus a
refinement level, ordered along a Morton (Z-order) space-filling curve, and
refined/coarsened under a 2:1 balance constraint.  This subpackage
implements that machinery for 2-D forests; :class:`repro.amr.AmrDriver`
is its one user.

Public API
----------
- :class:`Quadrant` — immutable (level, x, y) cell identifier.
- :class:`Quadtree` — a single refinement tree, leaves kept in Morton order.
- :class:`Forest` — a brick of quadtrees with cross-tree face neighbors.
- :func:`balance_forest` — enforce the 2:1 constraint (full-scan reference).
"""

from repro.mesh.quadrant import (
    MAX_LEVEL,
    Quadrant,
    root_quadrant,
    quadrant_children,
    quadrant_parent,
    is_ancestor,
)
from repro.mesh.quadtree import Quadtree
from repro.mesh.forest import Forest, BrickTopology
from repro.mesh.balance import balance_forest, is_balanced, balance_deficits

__all__ = [
    "MAX_LEVEL",
    "Quadrant",
    "root_quadrant",
    "quadrant_children",
    "quadrant_parent",
    "is_ancestor",
    "Quadtree",
    "Forest",
    "BrickTopology",
    "balance_forest",
    "is_balanced",
    "balance_deficits",
]
