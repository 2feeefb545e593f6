"""Property-based tests for the SFC curve partitioner (hypothesis).

``tests/mesh/test_sfc_partition.py`` pins concrete examples; here
hypothesis drives the p4est partition rule through its structural
guarantees — the ones the rank placement model
(``repro.machine.placement``) leans on:

- every rank owns one **contiguous Morton segment** (so a rank's leaves
  are one ``[lo, hi)`` slice of the curve);
- the per-rank **load is bounded** by the ideal share plus one leaf (so
  the slowest rank waits on bounded imbalance);
- the assignment is **stable** under a single-leaf refine/coarsen: leaves
  outside the edited family keep their rank bit for bit, because splitting
  a weight into four equal quarters (or merging four back) preserves every
  other leaf's cumulative midpoint exactly.

Weights are dyadic rationals (integers / 4) so that cumulative sums incur
no floating-point rounding and the stability properties are exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.partition import partition_curve, partition_stats

#: Integer weights keep cumsum exact; /4 splits stay dyadic (see module doc).
weights_st = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=80
)
parts_st = st.integers(min_value=1, max_value=8)


def _as_weights(ints) -> np.ndarray:
    return np.asarray(ints, dtype=np.float64)


class TestSegments:
    @given(weights_st, parts_st)
    @settings(max_examples=150)
    def test_contiguous_segments(self, ints, parts):
        """Each rank's rows form one contiguous run of curve positions."""
        a = partition_curve(_as_weights(ints), parts)
        assert np.all(np.diff(a) >= 0)
        for rank in range(parts):
            rows = np.nonzero(a == rank)[0]
            if rows.size:
                assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))

    @given(weights_st, parts_st)
    @settings(max_examples=150)
    def test_all_ranks_in_range(self, ints, parts):
        a = partition_curve(_as_weights(ints), parts)
        assert a.min() >= 0 and a.max() < parts


class TestLoadBound:
    @given(weights_st, parts_st)
    @settings(max_examples=150)
    def test_max_load_bounded_by_share_plus_one_leaf(self, ints, parts):
        """No rank carries more than the ideal share plus one leaf's weight.

        A leaf lands on rank r iff its cumulative midpoint falls in
        ``[r W/P, (r+1) W/P)``; each leaf's mass extends at most half its
        own weight either side of the midpoint, so a rank's total mass
        fits in a window of ``W/P`` widened by the heaviest leaf.
        """
        w = _as_weights(ints)
        a = partition_curve(w, parts)
        stats = partition_stats(w, a, parts)
        bound = w.sum() / parts + w.max()
        assert max(stats.loads) <= bound + 1e-9

    @given(weights_st, parts_st)
    @settings(max_examples=100)
    def test_stats_consistency(self, ints, parts):
        w = _as_weights(ints)
        a = partition_curve(w, parts)
        stats = partition_stats(w, a, parts)
        assert sum(stats.loads) == w.sum()
        assert sum(stats.counts) == len(w)
        assert stats.imbalance >= 0.0


class TestEditStability:
    """Refining or coarsening one leaf never re-ranks unrelated leaves."""

    @given(
        weights_st,
        parts_st,
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150)
    def test_single_leaf_refine_keeps_other_ranks(self, ints, parts, pick):
        """Splitting leaf i into four quarter-weight children is invisible
        to every other leaf: the total weight and every other leaf's
        cumulative midpoint are unchanged (exactly, for dyadic weights)."""
        w = _as_weights(ints)
        i = pick % len(w)
        before = partition_curve(w, parts)
        refined = np.concatenate([w[:i], np.full(4, w[i] / 4.0), w[i + 1 :]])
        after = partition_curve(refined, parts)
        assert np.array_equal(after[:i], before[:i])
        assert np.array_equal(after[i + 4 :], before[i + 1 :])

    @given(
        weights_st,
        parts_st,
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150)
    def test_single_family_coarsen_keeps_other_ranks(self, ints, parts, pick):
        """The inverse edit: merging four equal siblings back into their
        parent leaves every other leaf's rank untouched."""
        w = _as_weights(ints)
        i = pick % len(w)
        fine = np.concatenate([w[:i], np.full(4, w[i] / 4.0), w[i + 1 :]])
        before = partition_curve(fine, parts)
        after = partition_curve(w, parts)
        assert np.array_equal(after[:i], before[:i])
        assert np.array_equal(after[i + 1 :], before[i + 4 :])
