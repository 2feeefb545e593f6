"""Regrid order: refine, rebalance, then coarsen only what stays coarse.

``AmrDriver.regrid`` refines the tagged leaves, closes their 2:1 ripple,
and only then coarsens the families whose four members voted -1, finest
level first, where :func:`repro.mesh.balance.coarsening_keeps_balance`
holds.  These tests pin what that order buys: no family is coarsened and
refined back in one regrid, a leaf that ends where it started keeps its
data bit for bit, a regrid that changes no leaf keeps its stack and
exchange plan, and the leaf set is the one the coarsen-then-rebalance
regrid reaches (kept below as :class:`CoarsenFirstDriver`).
"""

import copy
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.amr import AmrConfig, AmrDriver
from repro.mesh.balance import balance_deficits, balance_forest, is_balanced
from repro.mesh.forest import BrickTopology, Forest
from repro.mesh.quadrant import quadrant_parent
from repro.solver import ShockBubbleProblem

MAX_LEVEL = 5


class VoteDriver(AmrDriver):
    """A driver on a given forest whose regrids read preset votes.

    Interiors hold seeded random values, so a lossy transfer shows.  It
    records the leaves each regrid refines and the parents it coarsens.
    """

    def __init__(self, forest: Forest, votes: np.ndarray, seed: int) -> None:
        # A threshold no leaf reaches keeps the initial build to one
        # tagging pass over the level-1 brick.
        cfg = AmrConfig(
            mx=4, min_level=1, max_level=MAX_LEVEL,
            refine_threshold=np.inf, batched=False,
        )
        super().__init__(ShockBubbleProblem(), cfg)
        rng = np.random.default_rng(seed)
        self.forest = forest
        self.patches = {}
        for tree, quad in forest.iter_leaves():
            patch = self._new_patch(tree, quad)
            patch.interior[...] = rng.uniform(0.5, 1.5, patch.interior.shape)
            self.patches[(tree, quad)] = patch
        self.votes = votes
        self.refined = []
        self.coarsened = []

    def _tags(self):
        return dict(zip(self.patches, self.votes))

    def _refine_patch(self, tree, quad, from_initial):
        self.refined.append((tree, quad))
        super()._refine_patch(tree, quad, from_initial)

    def _coarsen_family(self, tree, parent_quad):
        self.coarsened.append((tree, parent_quad))
        super()._coarsen_family(tree, parent_quad)


class CoarsenFirstDriver(VoteDriver):
    """The reference regrid: refine, coarsen every voted family, then
    re-balance by the full scan, refining back what the balance needs."""

    def regrid(self):
        cfg = self.config
        tags = self._tags()
        for (tree, quad), tag in tags.items():
            if tag > 0 and quad.level < cfg.max_level:
                self._refine_patch(tree, quad, from_initial=False)
        votes = Counter(
            (tree, quadrant_parent(quad))
            for (tree, quad), tag in tags.items()
            if tag < 0 and quad.level > cfg.min_level
        )
        for (tree, parent), n in votes.items():
            if n == 4:
                self._coarsen_family(tree, parent)
        while deficits := balance_deficits(self.forest):
            for tree, quad, _ in deficits:
                if (tree, quad) in self.patches:
                    self._refine_patch(tree, quad, from_initial=False)
        self._normalize_leaf_order()


def random_forest(refines) -> Forest:
    """A balanced 2x1 brick: level 1, then ``refines`` (tree, leaf index)."""
    forest = Forest(BrickTopology(2, 1), initial_level=1)
    for tree, pos in refines:
        leaves = forest.trees[tree].leaves
        quad = leaves[pos % len(leaves)]
        if quad.level < MAX_LEVEL:
            forest.trees[tree].refine(quad)
    balance_forest(forest)
    return forest


def random_votes(forest: Forest, seed: int) -> np.ndarray:
    """-1 for nine leaves in ten, so many families vote to coarsen, and +1
    for the rest, whose ripple can reach a family that voted."""
    rng = np.random.default_rng(seed)
    return rng.choice((-1, 1), size=len(forest), p=(0.9, 0.1))


class TestRegridProperty:
    @given(
        refines=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 255)), max_size=16
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # Coarsening in vote order reaches another leaf set; so does checking
    # before the refines are balanced, which in the second case coarsens
    # a family that the refines' ripple then refines back.
    @example(refines=[(1, 7), (1, 180)], seed=49733)
    @example(refines=[(1, 74), (1, 169), (0, 118), (1, 77)], seed=32884)
    def test_balanced_lossless_and_as_coarsen_first(self, refines, seed):
        """After a regrid on a random balanced forest with random votes:
        the forest is balanced, no coarsened parent was refined, every
        leaf that survived holds its data, and the leaves are the
        reference regrid's."""
        forest = random_forest(refines)
        votes = random_votes(forest, seed)
        ref = CoarsenFirstDriver(copy.deepcopy(forest), votes, seed)
        ref.regrid()
        driver = VoteDriver(forest, votes, seed)
        before = {key: p.interior.copy() for key, p in driver.patches.items()}
        driver.regrid()

        assert is_balanced(driver.forest)
        assert not set(driver.coarsened) & set(driver.refined)
        assert list(driver.patches) == list(ref.patches)
        for key, p in driver.patches.items():
            if key in before:
                assert np.array_equal(p.interior, before[key]), key


class TestUnchangedRegrid:
    def test_sweep_job_first_regrid_keeps_stack_and_data(self):
        """``amr-sweep``'s (mx 8, maxlevel 4, r0 0.5, rhoin 0.02) job.

        Its first regrid ends with the leaf set it started with, though
        whole families vote to coarsen next to finer leaves.  It keeps
        the stack (no ``amr_plan`` call) and every interior bit for bit.
        """
        problem = ShockBubbleProblem(r0=0.5, rhoin=0.02)
        driver = AmrDriver(problem, AmrConfig(mx=8, min_level=1, max_level=4))
        for _ in range(driver.config.regrid_interval):
            driver.step(driver.compute_dt())
        stack = driver.stack()
        before = {key: p.interior.copy() for key, p in driver.patches.items()}
        builds = obs.snapshot()["amr_plan"].calls
        driver.regrid()
        assert list(driver.patches) == list(before)
        assert driver.stack() is stack
        assert obs.snapshot()["amr_plan"].calls == builds
        for key, p in driver.patches.items():
            assert np.array_equal(p.interior, before[key]), key
