"""Tests for 2:1 balance enforcement."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.balance import (
    balance_deficits,
    balance_forest,
    balance_from_seeds,
    face_neighbor_leaves,
    is_balanced,
)
from repro.mesh.forest import BrickTopology, Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent


def deep_refine(forest: Forest, tree: int, leaf_pos: int, times: int) -> None:
    """Refine the leaf at ``leaf_pos`` (and its first child, repeatedly)."""
    q = forest.trees[tree].leaves[leaf_pos]
    for _ in range(times):
        children = forest.trees[tree].refine(q)
        q = children[0]


class TestDetection:
    def test_uniform_is_balanced(self):
        assert is_balanced(Forest(BrickTopology(2, 2), initial_level=2))

    def test_one_level_difference_is_balanced(self):
        f = Forest(BrickTopology(1, 1), initial_level=1)
        f.trees[0].refine(f.trees[0].leaves[0])
        assert is_balanced(f)

    def test_two_level_difference_detected(self):
        f = Forest(BrickTopology(1, 1), initial_level=1)
        deep_refine(f, 0, 0, 2)  # leaf at level 3 next to level-1 leaves
        assert not is_balanced(f)
        deficits = balance_deficits(f)
        assert deficits, "expected at least one deficit"
        # Every reported deficit is a genuine >1 level gap.
        for _, q, worst in deficits:
            assert worst > q.level + 1

    def test_cross_tree_imbalance_detected(self):
        f = Forest(BrickTopology(2, 1), initial_level=0)
        # Deeply refine the right edge of tree 0; tree 1 stays at level 0.
        deep_refine(f, 0, 0, 1)
        # refine quadrant (1,1,0) twice (the one touching tree 1)
        q = [q for q in f.trees[0].leaves if q.level == 1 and q.x == 1 and q.y == 0][0]
        children = f.trees[0].refine(q)
        f.trees[0].refine(children[1])
        assert not is_balanced(f)


class TestEnforcement:
    def test_balance_fixes_single_tree(self):
        f = Forest(BrickTopology(1, 1), initial_level=1)
        deep_refine(f, 0, 0, 3)
        n = balance_forest(f)
        assert n > 0
        assert is_balanced(f)

    def test_balance_fixes_cross_tree(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        deep_refine(f, 0, 3, 3)
        balance_forest(f)
        assert is_balanced(f)

    def test_balance_is_idempotent(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        deep_refine(f, 0, 0, 3)
        balance_forest(f)
        assert balance_forest(f) == 0

    def test_balance_preserves_area(self):
        f = Forest(BrickTopology(2, 2), initial_level=1)
        deep_refine(f, 0, 0, 3)
        deep_refine(f, 3, 2, 2)
        balance_forest(f)
        for tree in f.trees:
            assert abs(tree.covered_area() - 1.0) < 1e-12

    def test_balance_never_coarsens(self):
        f = Forest(BrickTopology(1, 1), initial_level=1)
        deep_refine(f, 0, 0, 3)
        max_before = f.max_level
        before = len(f)
        balance_forest(f)
        assert len(f) >= before
        assert f.max_level == max_before  # ripple refines, never deepens the max

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_random_forests_become_balanced(self, ops):
        f = Forest(BrickTopology(2, 2), initial_level=1)
        rng = np.random.default_rng(0)
        for tree, pos in ops:
            leaves = f.trees[tree].leaves
            q = leaves[pos % len(leaves)]
            if q.level < 5:
                f.trees[tree].refine(q)
        balance_forest(f)
        assert is_balanced(f)


def _refiner(forest: Forest):
    return lambda tree, quad: forest.trees[tree].refine(quad)


class TestNeighborRelation:
    def test_yields_leaves_that_do_not_touch_the_face(self):
        """The relation covers the whole neighbor quadrant, not the face."""
        f = Forest(BrickTopology(1, 1), initial_level=1)
        f.trees[0].refine(Quadrant(1, 1, 0))
        leaves = {q for _, q in face_neighbor_leaves(f, 0, Quadrant(1, 0, 0), 1)}
        # All four children of the +x neighbor, including the two on its
        # far side (x = 3) that do not touch (1, 0, 0).
        assert leaves == set(quadrant_children(Quadrant(1, 1, 0)))


class TestWorklist:
    def test_refines_neighbor_of_an_ancestor(self):
        """A new leaf deep inside X's neighbor quadrant puts X in deficit.

        The refined leaf (2, 3, 0) sits on the far side of the neighbor
        quadrant (1, 1, 0) of both X = (1, 0, 0) and (1, 1, 1); none of its
        children touches either, so only the ancestor walk finds them.
        """
        f = Forest(BrickTopology(1, 1), initial_level=1)
        f.trees[0].refine(Quadrant(1, 1, 0))
        assert is_balanced(f)
        seeds = [(0, c) for c in f.trees[0].refine(Quadrant(2, 3, 0))]
        assert {q for _, q, _ in balance_deficits(f)} == {
            Quadrant(1, 0, 0),
            Quadrant(1, 1, 1),
        }
        ref = copy.deepcopy(f)
        balance_forest(ref)
        assert balance_from_seeds(f, seeds, _refiner(f)) == 2
        assert f.leaf_list() == ref.leaf_list()

    def test_stale_seeds_are_skipped(self):
        f = Forest(BrickTopology(1, 1), initial_level=2)
        gone = f.trees[0].leaves[0]
        f.trees[0].refine(gone)
        assert balance_from_seeds(f, [(0, gone)], _refiner(f)) == 0
        assert is_balanced(f)

    @given(
        base=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63)), max_size=6),
        edits=st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 255)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_scan_on_random_edits(self, base, edits):
        """From any balanced forest, refine/coarsen seeds close like the scan."""
        f = Forest(BrickTopology(2, 2), initial_level=1)
        for tree, pos in base:
            leaves = f.trees[tree].leaves
            q = leaves[pos % len(leaves)]
            if q.level < 5:
                f.trees[tree].refine(q)
        balance_forest(f)
        seeds = []
        for refine, tree, pos in edits:
            leaves = f.trees[tree].leaves
            q = leaves[pos % len(leaves)]
            if refine:
                if q.level < 6:
                    seeds.extend((tree, c) for c in f.trees[tree].refine(q))
            elif q.level > 1 and all(
                c in f.trees[tree] for c in quadrant_children(quadrant_parent(q))
            ):
                seeds.append((tree, f.trees[tree].coarsen(q)))
        ref = copy.deepcopy(f)
        expected = balance_forest(ref)
        assert balance_from_seeds(f, seeds, _refiner(f)) == expected
        assert f.leaf_list() == ref.leaf_list()
        assert is_balanced(f)
