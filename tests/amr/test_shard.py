"""Flat-index ghost exchange: the compiled kernels match the numpy path.

``ExchangePlan.execute`` runs one flat-index program through the compiled
kernels when they load and through numpy otherwise; on the same poisoned
stack both must write every ghost cell bit for bit alike.
"""

import numpy as np
import pytest

from repro.amr import AmrConfig, AmrDriver
from repro.solver import kernels
from repro.solver.initial_conditions import ShockBubbleProblem


@pytest.fixture(scope="module")
def stack():
    """A mixed-level hierarchy (coarse-fine + same-level + wall traffic)."""
    cfg = AmrConfig(mx=8, min_level=1, max_level=3, batched=True)
    driver = AmrDriver(ShockBubbleProblem(), cfg)
    s = driver.stack()
    levels = {q.level for _, q in driver.patches}
    assert len(levels) >= 2, "fixture must exercise coarse-fine exchange"
    # Signed, non-zero interiors: the shock-bubble state has no wall-normal
    # momentum at the reflecting walls, which would hide a sign error there.
    interior = s.interior
    interior[...] = np.random.default_rng(0).uniform(-1.0, 1.0, interior.shape)
    return s


def _scrambled(stack) -> np.ndarray:
    """A copy of the stack state with every ghost cell poisoned."""
    q = stack.q.copy()
    ng = stack.ng
    q[:, :, :ng, :] = 777.0
    q[:, :, -ng:, :] = 777.0
    q[:, :, :, :ng] = 777.0
    q[:, :, :, -ng:] = 777.0
    return q


class TestParity:
    @pytest.mark.skipif(not kernels.available(), reason="no compiled kernels")
    def test_matches_plan_execute_kernels(self, stack, monkeypatch):
        got = _scrambled(stack)
        stack.plan.execute(got)
        monkeypatch.setattr(kernels, "load", lambda: None)
        ref = _scrambled(stack)
        stack.plan.execute(ref)
        assert not np.array_equal(got, _scrambled(stack))
        assert np.array_equal(got, ref)
