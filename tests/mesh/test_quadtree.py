"""Tests for the linear quadtree."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.quadrant import (
    MAX_LEVEL,
    Quadrant,
    is_ancestor,
    quadrant_children,
    quadrant_parent,
    root_quadrant,
)
from repro.mesh.quadtree import Quadtree, _key


def depth_first(leaves, q=None):
    """Leaves below ``q`` (default: the root) in depth-first child order."""
    q = root_quadrant() if q is None else q
    if q in leaves:
        yield q
        return
    for child in quadrant_children(q):
        yield from depth_first(leaves, child)


class TestConstruction:
    def test_default_is_root(self):
        t = Quadtree()
        assert len(t) == 1 and t.leaves[0] == root_quadrant()

    def test_uniform(self):
        t = Quadtree.uniform(3)
        assert len(t) == 64
        assert t.max_level == 3 and t.level_histogram() == {3: 64}
        assert t.covered_area() == pytest.approx(1.0)

    def test_rejects_non_tiling(self):
        with pytest.raises(ValueError):
            Quadtree([Quadrant(1, 0, 0)])  # only a quarter covered

    def test_rejects_a_hole_of_the_finest_levels(self):
        """One level-20 leaf missing leaves an area 4**-20 short of 1, below
        any float tolerance on the sum; the integer sum still sees it."""
        leaves, q = [], root_quadrant()
        for _ in range(20):
            first, *rest = quadrant_children(q)
            leaves += rest
            q = first
        assert len(leaves) == 60 and q.level == 20
        assert Quadtree(leaves + [q]).covered_area() == 1.0
        with pytest.raises(ValueError, match="do not tile"):
            Quadtree(leaves)

    def test_rejects_overlap(self):
        leaves = [Quadrant(1, 0, 0), Quadrant(1, 1, 0), Quadrant(1, 0, 1),
                  Quadrant(1, 1, 1), Quadrant(2, 0, 0)]
        with pytest.raises(ValueError):
            Quadtree(leaves)


class TestRefineCoarsen:
    def test_refine_replaces_leaf(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        assert len(t) == 4
        assert set(t.leaves) == set(children)
        assert t.covered_area() == pytest.approx(1.0)

    def test_refine_non_leaf_raises(self):
        t = Quadtree.uniform(1)
        with pytest.raises(KeyError):
            t.refine(root_quadrant())

    def test_coarsen_restores(self):
        t = Quadtree()
        t.refine(root_quadrant())
        t.coarsen(t.leaves[0])
        assert len(t) == 1 and t.leaves[0] == root_quadrant()

    def test_coarsen_incomplete_family_raises(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        t.refine(children[0])
        with pytest.raises(ValueError):
            t.coarsen(children[1])  # sibling 0 is refined, family incomplete

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_random_refinement_keeps_invariants(self, edits):
        t = Quadtree()
        for coarsen, c in edits:
            leaf = t.leaves[c % len(t)]
            if not coarsen:
                if leaf.level < 6:
                    t.refine(leaf)
            elif leaf.level > 0 and set(
                quadrant_children(quadrant_parent(leaf))
            ) <= set(t.leaves):
                t.coarsen(leaf)
        leaves = t.leaves
        assert t.covered_area() == pytest.approx(1.0)
        # Morton order is the depth-first walk of the children's z order,
        # the keys rise strictly along it, and sorting by key recovers it.
        assert list(leaves) == list(depth_first(set(leaves)))
        keys = [_key(q) for q in leaves]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert Quadtree(reversed(leaves)).leaves == leaves


class TestQueries:
    def test_contains(self):
        t = Quadtree.uniform(2)
        assert Quadrant(2, 1, 1) in t
        assert Quadrant(1, 0, 0) not in t

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=24,
        ),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7),
                      st.integers(min_value=0, max_value=127),
                      st.integers(min_value=0, max_value=127)),
            max_size=20,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_membership_matches_bisect(self, edits, probes):
        """After every refine and coarsen, ``in`` answers what a bisection
        of the sorted keys answers, for the leaves, their parents and
        children, and random quadrants."""
        t = Quadtree()
        randoms = {Quadrant(lv, x % (1 << lv), y % (1 << lv)) for lv, x, y in probes}
        for coarsen, c in edits:
            leaf = t.leaves[c % len(t)]
            if not coarsen:
                if leaf.level < 6:
                    t.refine(leaf)
            elif leaf.level > 0 and set(
                quadrant_children(quadrant_parent(leaf))
            ) <= set(t.leaves):
                t.coarsen(leaf)
            leaves = t.leaves
            keys = [_key(q) for q in leaves]
            near = {r for q in leaves for r in quadrant_children(q)}
            near |= {quadrant_parent(q) for q in leaves if q.level}
            for q in set(leaves) | near | randoms:
                i = bisect_left(keys, _key(q))
                assert (q in t) == (i < len(keys) and leaves[i] == q), q

    def test_index_of_matches_order(self):
        t = Quadtree.uniform(2)
        for i, q in enumerate(t.leaves):
            assert t.index_of(q) == i

    def test_locate_uniform(self):
        t = Quadtree.uniform(2)
        q = t.locate(0.3, 0.8)
        assert q == Quadrant(2, 1, 3)

    def test_locate_adaptive(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        t.refine(children[0])
        assert t.locate(0.1, 0.1).level == 2
        assert t.locate(0.9, 0.9).level == 1

    def test_locate_boundaries(self):
        t = Quadtree.uniform(1)
        assert t.locate(1.0, 1.0) == Quadrant(1, 1, 1)
        assert t.locate(0.0, 0.0) == Quadrant(1, 0, 0)

    def test_locate_rejects_outside(self):
        t = Quadtree()
        with pytest.raises(ValueError):
            t.locate(1.5, 0.5)

    def test_level_histogram(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        t.refine(children[2])
        assert t.level_histogram() == {1: 3, 2: 4}


class TestDescendants:
    def test_descendant_range_matches_scan(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        t.refine(children[0])
        t.refine(children[3])
        for q in [root_quadrant(), *children]:
            got = [leaf for leaf in t.descendants(q) if is_ancestor(q, leaf)]
            want = [leaf for leaf in t.leaves if is_ancestor(q, leaf)]
            assert got == want

    def test_leaf_is_its_own_descendant_range(self):
        t = Quadtree.uniform(2)
        q = Quadrant(2, 1, 3)
        assert t.descendants(q) == (q,)

    def test_unrelated_quadrant_yields_nothing(self):
        t = Quadtree()
        children = t.refine(root_quadrant())
        t.refine(children[0])
        # children[3] is still a leaf; descendants of a *child of* children[3]
        # reduces to that covering leaf only (callers filter by ancestry).
        sub = quadrant_children(children[3])[0]
        got = [leaf for leaf in t.descendants(sub) if is_ancestor(sub, leaf)]
        assert got == []


class TestKey:
    # Morton index on the 2**MAX_LEVEL lattice times (MAX_LEVEL + 1), plus
    # the level. Fixed values, so the leaf order the AMR pins compare
    # patches in cannot drift with the key's implementation.
    @pytest.mark.parametrize(
        "level, x, y, key",
        [
            (0, 0, 0, 0),
            (1, 1, 0, 2161727821137838081),
            (1, 0, 1, 4323455642275676161),
            (2, 1, 3, 5944751508129054722),
            (5, 17, 9, 3267924479610716165),
            (MAX_LEVEL, 0, 0, 29),
            (MAX_LEVEL, 2**MAX_LEVEL - 1, 0, 2882303761517117459),
            (MAX_LEVEL, 0, 2**MAX_LEVEL - 1, 5764607523034234889),
            (MAX_LEVEL, 2**MAX_LEVEL - 1, 2**MAX_LEVEL - 1, 8646911284551352319),
        ],
    )
    def test_pinned_values(self, level, x, y, key):
        assert _key(Quadrant(level, x, y)) == key
