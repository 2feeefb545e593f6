"""Property tests for the campaign queue's scheduling invariants.

Two contracts, each checked over hypothesis-generated budget vectors:
priority order within a round (most remaining node-hours first), and
round-robin starvation freedom (re-entering at ``round + 1`` means nobody
laps anybody).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CampaignQueue

budgets_st = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestPriorityOrder:
    @given(remaining=budgets_st)
    @settings(max_examples=100, deadline=None)
    def test_pops_sorted_by_remaining_budget_within_round(self, remaining):
        q = CampaignQueue()
        for i, r in enumerate(remaining):
            q.push(f"c{i}", r, i)
        popped = [q.pop()[0] for _ in remaining]
        keys = [(-remaining[int(cid[1:])], int(cid[1:])) for cid in popped]
        assert keys == sorted(keys)
        assert q.pop() is None

    def test_round_dominates_budget(self):
        q = CampaignQueue()
        q.push("rich-later", 1e9, 0, round_=1)
        q.push("poor-now", 1.0, 1, round_=0)
        assert q.pop()[0] == "poor-now"
        assert q.pop()[0] == "rich-later"

    def test_duplicate_push_rejected(self):
        q = CampaignQueue()
        q.push("a", 1.0, 0)
        with pytest.raises(ValueError):
            q.push("a", 1.0, 0)

    def test_membership_tracks_pushes_and_pops(self):
        q = CampaignQueue()
        q.push("a", 1.0, 0)
        assert "a" in q and "b" not in q
        q.pop()
        assert "a" not in q


class TestStarvationFreedom:
    @given(remaining=budgets_st, rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_reentry_at_next_round_is_fair(self, remaining, rounds):
        """pop -> push(round+1) cycles schedule every campaign exactly once
        per round, whatever the budget spread: pop counts never diverge by
        more than one."""
        q = CampaignQueue()
        for i, r in enumerate(remaining):
            q.push(f"c{i}", r, i, round_=0)
        counts: Counter[str] = Counter({f"c{i}": 0 for i in range(len(remaining))})
        for _ in range(len(remaining) * rounds):
            cid, round_ = q.pop()
            counts[cid] += 1
            assert max(counts.values()) - min(counts.values()) <= 1
            q.push(cid, remaining[int(cid[1:])], int(cid[1:]), round_=round_ + 1)
        assert set(counts.values()) == {rounds}

    def test_late_submission_joins_current_round(self):
        """push(round_=None) admits at the round floor — a new campaign
        cannot jump ahead of campaigns already waiting."""
        q = CampaignQueue()
        q.push("a", 1.0, 0, round_=0)
        cid, round_ = q.pop()
        q.push(cid, 1.0, 0, round_=round_ + 1)
        q.push("late", 1e9, 1)  # round floor is still 0
        assert q.pop()[0] == "late"
