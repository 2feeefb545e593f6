"""Cross-process observability: worker payloads merge deterministically.

Serial and pooled runs of the same specs must leave the parent with the
same metric counts, and pooled spans must land on deterministic per-spec
lanes — independent of worker scheduling, including when a trajectory
dies mid-run.
"""

import collections
import dataclasses
import os

import numpy as np
import pytest

from repro import obs
from repro.core.batch import TrajectoryFailure, TrajectorySpec, run_trajectories
from repro.core.policies import RandUniform
from repro.core.trajectory import Trajectory

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))


class ExplodingPolicy(RandUniform):
    """Raises on the 3rd selection; module-level so it pickles to workers."""

    name = "exploding"

    def __init__(self):
        self.calls = 0

    def select(self, view, rng):
        self.calls += 1
        if self.calls >= 3:
            raise RuntimeError("injected mid-run explosion")
        return super().select(view, rng)


def _specs(n=3, policy=RandUniform):
    return [
        TrajectorySpec(
            name=f"traj{i}", policy_factory=policy, base_seed=31, traj_index=i,
            n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2,
        )
        for i in range(n)
    ]


def _calls(snapshot):
    return {phase: st.calls for phase, st in snapshot.items()}


class TestMetricMerge:
    def test_pooled_counts_match_serial(self, small_dataset):
        run_trajectories(small_dataset, _specs(), max_workers=1)
        serial_calls = _calls(obs.snapshot())
        serial_counters = obs.counters()
        obs.METRICS.reset()

        run_trajectories(small_dataset, _specs(), max_workers=WORKERS)
        assert _calls(obs.snapshot()) == serial_calls
        assert obs.counters() == serial_counters

    def test_failed_trajectory_still_ships_metrics(self, small_dataset):
        specs = _specs(2) + [
            TrajectorySpec(
                name="boom", policy_factory=ExplodingPolicy, base_seed=31,
                traj_index=9, n_init=15, n_test=20, max_iterations=4,
            )
        ]
        obs.METRICS.reset()
        run_trajectories(small_dataset, specs[:2], max_workers=WORKERS)
        clean_fits = obs.snapshot()["fit"].calls
        obs.METRICS.reset()
        out = run_trajectories(
            small_dataset, specs, max_workers=WORKERS, on_error="return"
        )
        kinds = [type(t) for _, t in out]
        assert kinds.count(Trajectory) == 2 and kinds.count(TrajectoryFailure) == 1
        # The exploding run fit its models before dying; those metrics
        # arrived with the other workers' payloads.
        assert obs.snapshot()["fit"].calls > clean_fits
        assert obs.counters().get("lml_eval", 0) > 0


class TestSpanMerge:
    def _traced_run(self, dataset, specs):
        obs.disable_tracing()
        obs.METRICS.reset()
        obs.enable_tracing()
        run_trajectories(dataset, specs, max_workers=WORKERS, on_error="return")
        spans = obs.tracer().spans()
        obs.disable_tracing()
        return spans

    def test_worker_spans_land_on_spec_lanes(self, small_dataset):
        # Spec i stops after i + 2 picks, so its lane has i + 3 iteration
        # spans (the last one ends the run): lanes follow spec order.
        specs = [
            dataclasses.replace(s, max_iterations=i + 2)
            for i, s in enumerate(_specs(3))
        ]
        spans = self._traced_run(small_dataset, specs)
        slices = [s for s in spans if s.name == "campaign_slice"]
        assert sorted(s.track for s in slices) == [1, 2, 3]
        # Parent links survive the id remap: every al_iteration hangs off
        # its lane's root campaign_slice span.
        by_id = {s.span_id: s for s in spans}
        iterations = collections.Counter()
        for s in spans:
            if s.name == "al_iteration":
                root = by_id[s.parent_id]
                assert (root.name, root.parent_id) == ("campaign_slice", 0)
                assert root.track == s.track
                iterations[s.track] += 1
        assert iterations == {1: 3, 2: 4, 3: 5}

    def test_merge_is_deterministic_across_runs(self, small_dataset):
        a = self._traced_run(small_dataset, _specs(3))
        b = self._traced_run(small_dataset, _specs(3))
        shape = lambda spans: sorted((s.name, s.cat, s.track) for s in spans)
        assert shape(a) == shape(b)

    def test_failure_mid_run_keeps_other_lanes(self, small_dataset):
        specs = _specs(2) + [
            TrajectorySpec(
                name="boom", policy_factory=ExplodingPolicy, base_seed=31,
                traj_index=9, n_init=15, n_test=20, max_iterations=4,
            )
        ]
        spans = self._traced_run(small_dataset, specs)
        slices = {s.track for s in spans if s.name == "campaign_slice"}
        dumps = {s.track for s in spans if s.name == "campaign_dump"}
        # All three lanes ship their spans: the exploding run's slice
        # span closes on the way out of the raise, but only the two clean
        # specs go on to dump their learner.
        assert slices == {1, 2, 3}
        assert dumps == {1, 2}
        assert any(s.name == "al_iteration" and s.track == 3 for s in spans)

    def test_serial_run_keeps_the_callers_spans(self, small_dataset):
        """A serial run inside an open caller span leaves the caller's
        spans as they were (regression: the inline slice bracket truncated
        the caller's stack and re-parented its children) and still puts
        each spec on its own lane."""
        obs.disable_tracing()
        obs.enable_tracing()
        try:
            with obs.span("caller"):
                with obs.span("caller_child"):
                    pass
                run_trajectories(small_dataset, _specs(2), max_workers=1)
            spans = obs.tracer().spans()
        finally:
            obs.disable_tracing()
            obs.METRICS.reset()
        main = {s.name: s for s in spans if s.track == 0}
        assert set(main) == {"caller", "caller_child"}
        assert main["caller_child"].parent_id == main["caller"].span_id
        slices = [s for s in spans if s.name == "campaign_slice"]
        assert sorted(s.track for s in slices) == [1, 2]
        assert all(s.parent_id == 0 for s in slices)
