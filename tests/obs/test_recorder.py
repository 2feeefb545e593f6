"""Tests for the obs recorder: the no-op contract and its consequences.

The load-bearing guarantees:

- with tracing disabled, the span helpers collapse to a shared no-op and
  ``timed`` is exactly the metrics timer — bounded, allocation-light
  overhead;
- enabling tracing never touches RNG or numerics, so a traced AL run
  selects byte-identical experiment sequences.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core import ActiveLearner, ALConfig, random_partition
from repro.core.policies import RandGoodness
from repro.obs.spans import NOOP_SPAN


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert obs.span("anything", cat="x", attr=1) is NOOP_SPAN

    def test_event_is_dropped(self):
        obs.event("fault", kind="crash")  # no tracer, no error, no record
        obs.enable_tracing()
        assert obs.tracer().instants() == []

    def test_timed_still_feeds_metrics(self):
        with obs.timed("fit", cat="gp"):
            pass
        assert obs.snapshot()["fit"].calls == 1

    def test_disabled_span_overhead_is_bounded(self):
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with obs.span("hot", cat="x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        # Real cost is ~0.5 us; 20 us catches an accidental allocation
        # or tracer construction on the disabled path without flaking CI.
        assert per_call < 20e-6


class TestEnabledPath:
    def test_timed_records_span_and_metric(self):
        obs.enable_tracing()
        with obs.timed("fit", cat="gp", n=3):
            pass
        assert obs.snapshot()["fit"].calls == 1
        (span,) = obs.tracer().spans()
        assert span.name == "fit" and span.attrs["n"] == 3

    def test_event_lands_under_current_span(self):
        obs.enable_tracing()
        with obs.span("outer"):
            obs.event("mark", detail="x")
        (s,) = obs.tracer().spans()
        (i,) = obs.tracer().instants()
        assert i.parent_id == s.span_id

    def test_enable_is_idempotent(self):
        t1 = obs.enable_tracing()
        t2 = obs.enable_tracing()
        assert t1 is t2

    def test_snapshot_state_round_trip(self):
        obs.enable_tracing()
        with obs.timed("fit"):
            pass
        state = obs.snapshot_state(reset_after=True)
        assert obs.snapshot() == {}
        obs.merge_state(state, track=2)
        assert obs.snapshot()["fit"].calls == 1
        assert {s.track for s in obs.tracer().spans()} == {2}


def _run_selections(small_dataset, seed=11):
    rng = np.random.default_rng(seed)
    partition = random_partition(rng, len(small_dataset), n_init=15, n_test=20)
    learner = ActiveLearner(
        small_dataset,
        partition,
        policy=RandGoodness(),
        rng=rng,
        config=ALConfig(max_iterations=6, hyper_refit_interval=2),
    )
    return learner.run().selected_indices


class TestTracingNeverChangesNumerics:
    def test_selections_identical_tracing_on_and_off(self, small_dataset):
        baseline = _run_selections(small_dataset)
        obs.enable_tracing()
        traced = _run_selections(small_dataset)
        obs.disable_tracing()
        again = _run_selections(small_dataset)
        assert np.array_equal(baseline, traced)
        assert np.array_equal(baseline, again)
        assert baseline.tobytes() == traced.tobytes()
