"""Tests for the brick-of-trees forest."""

import pytest

from repro.mesh.forest import BrickTopology, Forest
from repro.mesh.quadrant import Quadrant


class TestBrickTopology:
    def test_coords_roundtrip(self):
        topo = BrickTopology(3, 2)
        for t in range(topo.num_trees):
            ci, cj = topo.tree_coords(t)
            assert topo.tree_at(ci, cj) == t

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            BrickTopology(0, 1)

    def test_face_neighbors_interior(self):
        topo = BrickTopology(3, 3)
        center = topo.tree_at(1, 1)
        assert topo.face_neighbor_tree(center, 0) == topo.tree_at(0, 1)
        assert topo.face_neighbor_tree(center, 1) == topo.tree_at(2, 1)
        assert topo.face_neighbor_tree(center, 2) == topo.tree_at(1, 0)
        assert topo.face_neighbor_tree(center, 3) == topo.tree_at(1, 2)

    def test_face_neighbors_boundary(self):
        topo = BrickTopology(2, 1)
        assert topo.face_neighbor_tree(0, 0) is None
        assert topo.face_neighbor_tree(1, 1) is None
        assert topo.face_neighbor_tree(0, 2) is None
        assert topo.face_neighbor_tree(0, 3) is None


class TestForest:
    def test_initial_level(self):
        f = Forest(BrickTopology(2, 1), initial_level=2)
        assert len(f) == 2 * 16
        assert f.max_level == 2

    def test_global_order_tree_major(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        trees = [t for t, _ in f.iter_leaves()]
        assert trees == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_level_histogram_accumulates(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        f.trees[0].refine(f.trees[0].leaves[0])
        assert f.level_histogram() == {1: 7, 2: 4}

    def test_locate_in_second_tree(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        tree, q = f.locate(1.75, 0.25)
        assert tree == 1
        assert q == Quadrant(1, 1, 0)

    def test_locate_rejects_outside_brick(self):
        f = Forest(BrickTopology(2, 1))
        with pytest.raises(ValueError):
            f.locate(2.5, 0.5)

    def test_face_neighbor_same_tree(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        hit = f.face_neighbor(0, Quadrant(1, 0, 0), 1)
        assert hit == (0, Quadrant(1, 1, 0))

    def test_face_neighbor_cross_tree(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        # +x neighbor of tree 0's rightmost quadrant wraps into tree 1.
        hit = f.face_neighbor(0, Quadrant(1, 1, 0), 1)
        assert hit == (0, Quadrant(1, 0, 0)) or hit is not None
        hit = f.face_neighbor(0, Quadrant(1, 1, 0), 1)

    def test_face_neighbor_cross_tree_coordinates(self):
        f = Forest(BrickTopology(2, 1), initial_level=2)
        hit = f.face_neighbor(0, Quadrant(2, 3, 1), 1)
        assert hit == (1, Quadrant(2, 0, 1))

    def test_face_neighbor_physical_boundary(self):
        f = Forest(BrickTopology(2, 1), initial_level=1)
        assert f.face_neighbor(0, Quadrant(1, 0, 0), 0) is None
        assert f.face_neighbor(1, Quadrant(1, 1, 1), 1) is None

    def test_domain_extent(self):
        assert Forest(BrickTopology(3, 2)).domain_extent() == (3.0, 2.0)
