"""Flat-index exchange compilation: parity with the numpy plan.

``build_sharded_exchange`` recompiles an :class:`ExchangePlan` into one
flat-index program that the compiled kernels execute; running it must
reproduce ``ExchangePlan.execute`` bit for bit.
"""

import numpy as np
import pytest

from repro.amr import AmrConfig, AmrDriver
from repro.amr.shard import build_sharded_exchange
from repro.solver import kernels
from repro.solver.initial_conditions import ShockBubbleProblem


@pytest.fixture(scope="module")
def stack():
    """A mixed-level hierarchy (coarse-fine + same-level + wall traffic)."""
    cfg = AmrConfig(mx=8, min_level=1, max_level=3, batched=True)
    driver = AmrDriver(ShockBubbleProblem(), cfg)
    for _ in range(2):  # advance so interiors carry non-trivial data
        driver.step(driver.compute_dt())
    s = driver.stack()
    levels = {q.level for _, q in driver.patches}
    assert len(levels) >= 2, "fixture must exercise coarse-fine exchange"
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
    def test_matches_plan_execute_kernels(self, stack):
        program = build_sharded_exchange(stack)
        ref = _scrambled(stack)
        stack.plan.execute(ref)
        got = _scrambled(stack)
        program.execute(got)
        assert np.array_equal(got, ref)

    def test_programs_are_int32(self, stack):
        program = build_sharded_exchange(stack)
        for arr in (program.copy_dst, program.copy_src, program.neg_dst,
                    program.neg_src, program.coarse_gather,
                    program.coarse_scatter, program.fine_gather,
                    program.fine_scatter):
            assert arr.dtype == np.int32
