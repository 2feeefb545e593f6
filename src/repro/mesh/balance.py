"""2:1 balance enforcement across a forest.

Block-structured AMR requires that face-adjacent leaves differ by at most
one refinement level ("2:1 balance"): ghost-cell interpolation stencils and
flux corrections are only defined for that case.  p4est enforces the
constraint by *ripple refinement* — refining any leaf more than one level
coarser than a face neighbor, repeating until a fixed point.

The relation used here (:func:`face_neighbor_leaves`) is stricter than
face contact: a leaf ``X`` is in deficit when *any* leaf inside the
same-size quadrant across one of its faces is two or more levels finer,
whether or not that leaf touches ``X``.

Two ways to reach the balanced forest are provided:

- :func:`balance_forest` — the reference full scan: refine every deficit
  of every leaf, repeat until none is left;
- :func:`balance_from_seeds` — a worklist seeded by the leaves created
  since the forest was last balanced.  Both reach the same forest (the
  minimal balanced refinement is unique); the AMR driver uses the
  worklist on the refines of every regrid and initial-build round.

Coarsening needs no ripple: :func:`coarsening_keeps_balance` says whether
a family's coarsening keeps a balanced forest balanced, and the driver
coarsens only the families for which it holds.

The implementation works on a :class:`~repro.mesh.forest.Forest` and
handles cross-tree adjacency through the brick topology.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.mesh.forest import Forest
from repro.mesh.quadrant import Quadrant, is_ancestor, quadrant_children


def face_neighbor_leaves(forest: Forest, tree: int, q: Quadrant, face: int):
    """Yield ``(tree, leaf)`` for the leaves of ``q``'s neighbor quadrant.

    The neighbor quadrant is the same-size quadrant across ``face``.  If a
    leaf equals or covers it, that one leaf is yielded; otherwise every
    leaf inside it is yielded, including leaves that do not touch ``q``.
    Yields nothing at physical boundaries.  This is the relation the 2:1
    balance constraint quantifies over.
    """
    hit = forest.face_neighbor(tree, q, face)
    if hit is None:
        return
    ntree, nq = hit
    neigh_tree = forest.trees[ntree]
    # The abstract same-level neighbor nq either is a leaf, is covered by a
    # coarser leaf (an ancestor), or is refined into finer leaves.
    if nq in neigh_tree:
        yield ntree, nq
        return
    # Coarser: walk up until we find a leaf ancestor.
    anc = nq
    while anc.level > 0:
        anc = Quadrant(anc.level - 1, anc.x >> 1, anc.y >> 1)
        if anc in neigh_tree:
            yield ntree, anc
            return
    # Finer: leaves descending from nq are a Morton-contiguous block.
    for leaf in neigh_tree.descendants(nq):
        if is_ancestor(nq, leaf):
            yield ntree, leaf


def _finest_neighbor_level(forest: Forest, tree: int, q: Quadrant) -> int:
    """Deepest level among ``q`` and the leaves of its neighbor quadrants."""
    worst = q.level
    for face in range(4):
        for _ntree, leaf in face_neighbor_leaves(forest, tree, q, face):
            worst = max(worst, leaf.level)
    return worst


def coarsening_keeps_balance(forest: Forest, tree: int, parent: Quadrant) -> bool:
    """True iff coarsening ``parent``'s family leaves a balanced forest balanced.

    The new leaf ``parent`` is in deficit iff one of its neighbor
    quadrants holds a leaf finer than ``parent.level + 1``.  It cannot put
    another leaf in deficit, since it is coarser than the family it
    replaces, so this is the only check a balanced forest needs.
    """
    return _finest_neighbor_level(forest, tree, parent) <= parent.level + 1


def balance_deficits(forest: Forest) -> list[tuple[int, Quadrant, int]]:
    """All 2:1 violations: ``(tree, leaf, worst_neighbor_level)`` triples.

    A leaf is in deficit when some leaf of one of its neighbor quadrants
    (:func:`face_neighbor_leaves`) is more than one level finer than it.
    """
    out: list[tuple[int, Quadrant, int]] = []
    for t, q in forest.iter_leaves():
        worst = _finest_neighbor_level(forest, t, q)
        if worst > q.level + 1:
            out.append((t, q, worst))
    return out


def is_balanced(forest: Forest) -> bool:
    """True iff no leaf is in 2:1 deficit (see :func:`balance_deficits`)."""
    return not balance_deficits(forest)


def balance_forest(forest: Forest, max_rounds: int = 64) -> int:
    """Ripple-refine ``forest`` until it is 2:1 balanced (in place).

    Returns the total number of refinements performed.  ``max_rounds``
    bounds the fixed-point iteration; each round can only deepen leaves, and
    the maximum level present never increases, so convergence is guaranteed
    well within the default bound.
    """
    total = 0
    for _ in range(max_rounds):
        deficits = balance_deficits(forest)
        if not deficits:
            return total
        for t, q, _worst in deficits:
            # The leaf may already have been refined by an earlier deficit in
            # this round (e.g. it appeared twice via two faces).
            if q in forest.trees[t]:
                forest.trees[t].refine(q)
                total += 1
    raise RuntimeError("2:1 balance did not converge")  # pragma: no cover


def balance_from_seeds(
    forest: Forest,
    seeds: Iterable[tuple[int, Quadrant]],
    refine: Callable[[int, Quadrant], object],
) -> int:
    """Ripple-refine a forest that was balanced before ``seeds`` appeared.

    ``seeds`` are the leaves created since the forest was last balanced:
    children of refines, and parents of coarsened families unless
    :func:`coarsening_keeps_balance` held for them (the AMR driver's
    coarsenings all pass it, so it seeds children only).  Seeds refined
    away since are skipped.  ``refine(tree, leaf)`` must replace the leaf
    by its four children in ``forest``; the driver's callback also
    transfers the solution.  Returns the number of refinements.

    Every deficit pair ``(X, Y)`` — ``Y`` a leaf inside the neighbor
    quadrant ``A`` of ``X``, at least two levels finer — contains a leaf
    that did not exist when the forest was balanced.  A seed is checked in
    both roles:

    - as ``X``: it is refined if one of its neighbor quadrants holds a
      leaf two or more levels finer;
    - as ``Y``: ``A`` is then the ancestor of the seed at ``X``'s level,
      and ``X`` is the same-level face neighbor of ``A``.  So for every
      ancestor at least two levels up, any same-level face neighbor that
      is a leaf is refined.  ``X`` need not touch the seed.

    Each refine enqueues its children, so a pair formed later is caught
    when its newer leaf is processed.  Every refine made is one the full
    scan must also make, hence the result equals :func:`balance_forest`'s
    (``tests/mesh/test_balance.py`` checks this on random forests).

    Each ancestor is checked once per call: a walk stops at the first
    ``(tree, ancestor)`` pair already checked, whose coarser ancestors
    were checked along with it.  That check refined every same-level
    neighbor leaf of the ancestor, and a same-level leaf made there later
    is a refine's child, so it is itself a seed and is checked as ``X``.
    """
    queue = deque(seeds)
    checked: set[tuple[int, Quadrant]] = set()
    total = 0

    def split(t: int, q: Quadrant) -> None:
        nonlocal total
        refine(t, q)
        queue.extend((t, c) for c in quadrant_children(q))
        total += 1

    while queue:
        tree, quad = queue.popleft()
        if quad not in forest.trees[tree]:
            continue
        if _finest_neighbor_level(forest, tree, quad) > quad.level + 1:
            split(tree, quad)  # its children inherit the check as Y
            continue
        for level in range(quad.level - 2, -1, -1):
            shift = quad.level - level
            anc = Quadrant(level, quad.x >> shift, quad.y >> shift)
            if (tree, anc) in checked:
                break
            checked.add((tree, anc))
            for face in range(4):
                hit = forest.face_neighbor(tree, anc, face)
                if hit is not None and hit[1] in forest.trees[hit[0]]:
                    split(*hit)
    return total
