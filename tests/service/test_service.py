"""Service-level behaviour: equivalence, failures, and observability.

Covers the regression pins ISSUE-7 calls out — ``TrajectoryFailure``
must survive the worker pipe intact, and the service's per-campaign
observability merge must be order-independent (inline and process runs
land on the same global registry state).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CampaignService,
    CampaignSpec,
    RandUniform,
    TrajectoryFailure,
    TrajectorySpec,
    run_trajectories,
)

from tests.service.conftest import (
    AL_CFG,
    CountingPolicy,
    DyingPolicy,
    ExplodingPolicy,
    InterruptingPolicy,
    POLICIES3,
    make_specs,
    run_fleet,
)


class TestEquivalence:
    def test_matches_run_trajectories(self, small_dataset, reference_selections):
        """A fleet's selections are bit-identical to the same seeds run by
        the PR-6 parallel runner — the service is a scheduler, not a
        different algorithm."""
        specs = [
            TrajectorySpec(
                name=f"camp-{i}",
                policy_factory=POLICIES3[i % len(POLICIES3)],
                base_seed=3,
                traj_index=i,
                n_init=20,
                n_test=30,
                max_iterations=AL_CFG.max_iterations,
            )
            for i in range(3)
        ]
        results = run_trajectories(small_dataset, specs, max_workers=1)
        for name, traj in results:
            assert tuple(traj.selected_indices) == reference_selections[name]

    def test_slice_length_does_not_change_selections(
        self, small_dataset, reference_selections
    ):
        for steps in (1, 4):
            got, _ = run_fleet(small_dataset, make_specs(), steps_per_slice=steps)
            assert got == reference_selections


class TestFailurePaths:
    def test_trajectory_failure_pickles_through_worker_pipe(self, small_dataset):
        """Regression pin: a policy raising inside a *process* worker must
        come home as a TrajectoryFailure (traceback included), not as a
        pipe error or a hung service."""
        spec = CampaignSpec(
            campaign_id="exploder",
            policy_factory=ExplodingPolicy,
            base_seed=3,
            n_init=20,
            n_test=30,
            config=AL_CFG,
        )
        with CampaignService(small_dataset, workers=2, steps_per_slice=2) as svc:
            svc.submit(spec)
            report = svc.run()
            assert report.campaigns["exploder"] == "failed"
            failure = svc.result("exploder")
        assert isinstance(failure, TrajectoryFailure)
        assert "boom at selection" in failure.error
        assert failure.traceback
        clone = pickle.loads(pickle.dumps(failure))
        assert (clone.name, clone.error) == (failure.name, failure.error)

    def test_worker_death_fails_campaign_after_retries(self, small_dataset):
        """A worker hard-killed mid-slice (os._exit, no exception) is
        respawned and the slice retried; exhausting retries fails the
        campaign instead of wedging the pool."""
        spec = CampaignSpec(
            campaign_id="dier",
            policy_factory=DyingPolicy,
            base_seed=3,
            n_init=20,
            n_test=30,
            config=AL_CFG,
        )
        with CampaignService(small_dataset, workers=1, steps_per_slice=2) as svc:
            svc.submit(spec)
            report = svc.run()
            assert report.campaigns["dier"] == "failed"
            assert report.fault_counts.get("crash", 0) >= 1
            failure = svc.result("dier")
        assert isinstance(failure, TrajectoryFailure)

    def test_idle_worker_death_respawns_at_dispatch(
        self, small_dataset, reference_selections
    ):
        """Regression: a worker that died while idle made the next dispatch
        raise BrokenPipeError.  It is now respawned and handed the job."""
        specs = make_specs()
        with CampaignService(small_dataset, workers=1, steps_per_slice=2) as svc:
            for spec in specs:
                svc.submit(spec)
            svc.run(max_slices=1)
            worker = svc._pool.workers[0]
            assert worker.ticket is None  # idle
            worker.proc.kill()
            worker.proc.join(timeout=10)
            assert not worker.proc.is_alive()
            report = svc.run()
            assert set(report.campaigns.values()) == {"done"}
            assert report.slices_discarded == 0
            got = {
                s.campaign_id: tuple(svc.result(s.campaign_id).selected_indices)
                for s in specs
            }
        assert got == reference_selections

    def test_unpicklable_job_fails_only_its_campaign(
        self, small_dataset, reference_selections
    ):
        """A job that cannot be pickled to the one worker (a lambda policy
        factory) fails its campaign at dispatch; the worker, still idle,
        takes the next campaign, and the others select what they select
        inline."""
        specs = make_specs()
        lam = dataclasses.replace(
            specs[0], campaign_id="lambda", policy_factory=lambda: RandUniform()
        )
        with CampaignService(small_dataset, workers=1, steps_per_slice=2) as svc:
            for spec in [lam, *specs]:
                svc.submit(spec)
            report = svc.run()
            failure = svc.result("lambda")
            got = {
                s.campaign_id: tuple(svc.result(s.campaign_id).selected_indices)
                for s in specs
            }
        assert report.campaigns["lambda"] == "failed"
        assert report.slices_discarded == 0
        assert isinstance(failure, TrajectoryFailure)
        assert "pickle" in failure.error.lower()
        assert got == reference_selections

    def test_inline_exception_fails_without_retry(self, small_dataset):
        spec = CampaignSpec(
            campaign_id="exploder",
            policy_factory=ExplodingPolicy,
            base_seed=3,
            n_init=20,
            n_test=30,
            config=AL_CFG,
        )
        with CampaignService(small_dataset, steps_per_slice=2) as svc:
            svc.submit(spec)
            report = svc.run()
        assert report.campaigns["exploder"] == "failed"
        assert report.slices_discarded == 0  # a bug is not a fault: no retry


class TestLifecycle:
    def test_duplicate_submit_rejected(self, small_dataset):
        with CampaignService(small_dataset) as svc:
            svc.submit(make_specs(1)[0])
            with pytest.raises(ValueError, match="already exists"):
                svc.submit(make_specs(1)[0])

    def test_unknown_campaign_raises_keyerror(self, small_dataset):
        with CampaignService(small_dataset) as svc:
            with pytest.raises(KeyError):
                svc.result("nope")

    def test_unpicklable_spec_is_not_registered_with_a_store(
        self, small_dataset, reference_selections, tmp_path
    ):
        """With a store, a spec that does not pickle fails at submit,
        before the campaign is listed or queued: the service runs on, and
        the store holds nothing under the bad id."""
        good = make_specs(1)[0]
        bad = dataclasses.replace(
            good, campaign_id="lambda", policy_factory=lambda: RandUniform()
        )
        with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as svc:
            with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
                svc.submit(bad)
            assert svc.campaigns() == []
            assert svc.run().campaigns == {}
            svc.submit(good)
            svc.run()
            got = tuple(svc.result(good.campaign_id).selected_indices)
            assert svc.store.campaign_ids() == [good.campaign_id]
        assert got == reference_selections[good.campaign_id]
        assert not (tmp_path / "lambda.ckpt").exists()

    def test_pause_holds_and_resume_releases(self, small_dataset, reference_selections):
        specs = make_specs(2)
        with CampaignService(small_dataset, steps_per_slice=2) as svc:
            for spec in specs:
                svc.submit(spec)
            svc.pause("camp-0")
            svc.run()
            statuses = {i.campaign_id: i.status for i in svc.campaigns()}
            assert statuses == {"camp-0": "paused", "camp-1": "done"}
            assert svc.result("camp-0") is None
            svc.resume_campaign("camp-0")
            svc.run()
            got = tuple(svc.result("camp-0").selected_indices)
        assert got == reference_selections["camp-0"]

    def test_pause_done_campaign_rejected(self, small_dataset):
        from repro.core import ServiceError

        with CampaignService(small_dataset, steps_per_slice=2) as svc:
            svc.submit(make_specs(1)[0])
            svc.run()
            with pytest.raises(ServiceError):
                svc.pause("camp-0")

    def test_max_slices_bounds_commits(self, small_dataset):
        with CampaignService(small_dataset, steps_per_slice=1) as svc:
            for spec in make_specs(2):
                svc.submit(spec)
            report = svc.run(max_slices=3)
            assert report.slices_committed == 3
            report = svc.run()
        assert set(report.campaigns.values()) == {"done"}


class TestObservability:
    def _golden_state(self, dataset, workers):
        obs.reset()
        selections, _ = run_fleet(
            dataset, make_specs(), workers=workers, steps_per_slice=2
        )
        state = obs.METRICS.state()
        obs.reset()
        return selections, state

    def test_merge_is_order_independent_across_worker_counts(self, small_dataset):
        """Golden pin: the final global metrics state is a function of the
        committed work, not of who ran it or in what order — inline and a
        2-worker fleet land on identical counters and call counts."""
        sel_inline, inline_state = self._golden_state(small_dataset, workers=0)
        sel_proc, proc_state = self._golden_state(small_dataset, workers=2)
        assert sel_inline == sel_proc
        assert inline_state["counters"] == proc_state["counters"]
        assert inline_state["calls"] == proc_state["calls"]
        assert inline_state["counters"]["service.slice.committed"] > 0

    def test_failed_slice_metrics_stay_with_their_slice(self, small_dataset):
        """A slice that raises ships its metrics with its failure, in a
        process worker as inline; they must not ship with the next
        campaign's slice on the same worker (regression: the worker kept
        them)."""
        specs = [
            CampaignSpec(
                campaign_id=cid, policy_factory=policy, base_seed=3,
                n_init=20, n_test=30, config=AL_CFG,
            )
            for cid, policy in (("exploder", ExplodingPolicy), ("rand", RandUniform))
        ]
        states = []
        for workers in (0, 1):
            obs.reset()
            with CampaignService(
                small_dataset, workers=workers, steps_per_slice=5
            ) as svc:
                for spec in specs:
                    svc.submit(spec)
                assert svc.run().campaigns == {"exploder": "failed", "rand": "done"}
            states.append(obs.METRICS.state())
            obs.reset()
        inline, pooled = states
        assert inline["counters"] == pooled["counters"]
        assert inline["calls"] == pooled["calls"]

    def test_interrupt_keeps_recorded_state(self, small_dataset):
        """A KeyboardInterrupt from the second campaign's policy keeps a
        counter recorded before run(), both submissions, and the first
        campaign's committed-slice metrics (regression: the inline
        service erased all three)."""
        specs = [
            CampaignSpec(
                campaign_id=cid, policy_factory=policy, base_seed=3,
                n_init=20, n_test=30, config=AL_CFG,
            )
            for cid, policy in (
                ("counted", CountingPolicy), ("ctrl-c", InterruptingPolicy)
            )
        ]
        obs.reset()
        try:
            obs.incr("test.before_run", 3)
            with CampaignService(small_dataset, steps_per_slice=8) as svc:
                for spec in specs:
                    svc.submit(spec)
                with pytest.raises(KeyboardInterrupt):
                    svc.run()
            counters = obs.counters()
            assert counters.get("test.before_run") == 3
            assert counters.get("service.campaign.submitted") == 2
            assert counters.get("test.selections") == AL_CFG.max_iterations
            assert counters.get("service.slice.committed") == 1
        finally:
            obs.reset()

    def test_service_counters_track_report(self, small_dataset):
        obs.reset()
        _, report = run_fleet(small_dataset, make_specs(), steps_per_slice=3)
        counters = obs.METRICS.state()["counters"]
        obs.reset()
        assert counters["service.campaign.submitted"] == 3
        assert counters["service.campaign.done"] == 3
        assert counters["service.slice.committed"] == report.slices_committed

    def test_campaigns_get_deterministic_trace_lanes(self, small_dataset):
        obs.reset()
        obs.enable_tracing()
        try:
            run_fleet(small_dataset, make_specs(2), steps_per_slice=3)
            spans = obs.tracer().spans()
            slice_tracks = {s.track for s in spans if s.name == "campaign_slice"}
            # One lane per campaign, keyed by submission order (seq + 1).
            assert slice_tracks == {1, 2}
        finally:
            obs.disable_tracing()
            obs.reset()
