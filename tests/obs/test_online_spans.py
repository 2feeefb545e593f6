"""A traced online run records the AL loop's spans plus one per job.

The online learner advances through :meth:`ActiveLearner.step`, so its
runs carry the loop's ``trajectory`` / ``al_iteration`` / ``gp_fit``
spans, and every executed job (the initial runs and each pick) records
one ``job_run`` span.  Tracing must not change which jobs execute.
"""

from collections import Counter

import numpy as np

from repro import obs
from repro.core.policies import RGMA
from repro.core.trajectory import StopReason
from tests.core.test_online import make_online


def _run():
    # Limit 1 MB: some picks run out of memory, so censored picks are traced.
    return make_online(
        RGMA(memory_limit_MB=1.0), max_runs=12, memory_limit_MB=1.0, seed=8
    ).run()


class TestOnlineTracing:
    def test_loop_spans_and_one_job_run_per_executed_job(self):
        obs.enable_tracing()
        result = _run()
        spans = obs.tracer().spans()
        names = Counter(s.name for s in spans)
        n = len(result.trajectory)
        assert result.trajectory.stop_reason is StopReason.MAX_ITERATIONS
        assert result.failed_configs
        assert names["trajectory"] == 1
        # One iteration span per pick, plus the one that hits the budget.
        assert names["al_iteration"] == n + 1
        # The initial fit, then one refit per pick (each one teaches cost).
        assert names["gp_fit"] == n + 1
        assert names["job_run"] == len(result.executed) == 4 + n
        by_id = {s.span_id: s for s in spans}
        in_loop = [
            s
            for s in spans
            if s.name == "job_run"
            and s.parent_id in by_id
            and by_id[s.parent_id].name == "al_iteration"
        ]
        assert len(in_loop) == n

    def test_tracing_changes_no_execution(self):
        baseline = _run()
        obs.enable_tracing()
        traced = _run()
        assert traced.executed == baseline.executed
        assert traced.failed_configs == baseline.failed_configs
        assert traced.total_node_hours == baseline.total_node_hours
        assert len(traced.trajectory) == len(baseline.trajectory)
        for a, b in zip(traced.trajectory.records, baseline.trajectory.records):
            assert a.dataset_index == b.dataset_index
            assert np.array_equal(
                [a.cost, a.mem, a.rmse_cost, a.rmse_mem, a.cumulative_regret],
                [b.cost, b.mem, b.rmse_cost, b.rmse_mem, b.cumulative_regret],
                equal_nan=True,
            )
