"""Tests for quadrant family arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.quadrant import (
    MAX_LEVEL,
    Quadrant,
    is_ancestor,
    quadrant_children,
    quadrant_parent,
    root_quadrant,
)


def random_quadrant(data, max_level=8) -> Quadrant:
    level = data.draw(st.integers(min_value=0, max_value=max_level))
    n = 2**level
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    return Quadrant(level, x, y)


class TestConstruction:
    def test_root(self):
        r = root_quadrant()
        assert r.level == 0 and r.size == 1.0 and r.origin == (0.0, 0.0)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            Quadrant(-1, 0, 0)
        with pytest.raises(ValueError):
            Quadrant(MAX_LEVEL + 1, 0, 0)

    def test_rejects_coords_outside_lattice(self):
        with pytest.raises(ValueError):
            Quadrant(1, 2, 0)
        with pytest.raises(ValueError):
            Quadrant(2, 0, 4)

    def test_geometry(self):
        q = Quadrant(2, 1, 3)
        assert q.size == 0.25
        assert q.origin == (0.25, 0.75)

    def test_child_id_convention(self):
        r = root_quadrant()
        ids = [c.child_id for c in quadrant_children(r)]
        assert ids == [0, 1, 2, 3]


class TestFamilies:
    @given(st.data())
    def test_parent_of_children_is_self(self, data):
        q = random_quadrant(data)
        for c in quadrant_children(q):
            assert quadrant_parent(c) == q

    @given(st.data())
    def test_children_tile_parent(self, data):
        q = random_quadrant(data)
        children = quadrant_children(q)
        assert len(set(children)) == 4
        assert sum(c.size**2 for c in children) == pytest.approx(q.size**2)
        for c in children:
            assert is_ancestor(q, c)

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            quadrant_parent(root_quadrant())

    def test_cannot_refine_past_max(self):
        deep = Quadrant(MAX_LEVEL, 0, 0)
        with pytest.raises(ValueError):
            quadrant_children(deep)


class TestAncestry:
    @given(st.data())
    def test_ancestor_is_strict(self, data):
        q = random_quadrant(data)
        assert not is_ancestor(q, q)

    @given(st.data())
    def test_grandparent_is_ancestor(self, data):
        q = random_quadrant(data, max_level=6)
        gc = quadrant_children(quadrant_children(q)[3])[0]
        assert is_ancestor(q, gc)
        assert not is_ancestor(gc, q)
