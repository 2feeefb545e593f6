"""Chaos harness: campaigns survive injected faults with zero drift.

The PR-2 fault layer is pointed at the campaign service itself — crash,
OOM, timeout, straggler, and MaxRSS-loss directives strike dispatched
slices — and every test asserts the one property that matters: the
selection sequences are *bit-identical* to the fault-free reference, at
every worker count.  Faults cost node-hours and wall-clock, never
correctness.
"""

from __future__ import annotations

import pytest

from repro.core import CampaignService, ChaosConfig
from repro.faults import FaultConfig, RetryPolicy

from tests.service.conftest import make_specs, run_fleet

# Fault matrix: one fatal kind exercised in isolation plus a kitchen-sink
# mix.  OOM and TIMEOUT are *deterministic* triggers here — the synthetic
# slice record (3 steps -> wall 90 s, rss 512 + 3*256 = 1280 MB) exceeds
# the limit every dispatch, so the halve-and-resubmit path must engage.
FAULTS = {
    "crash": FaultConfig(crash_probability=0.35),
    "oom": FaultConfig(oom_memory_limit_MB=1000.0),
    "timeout": FaultConfig(timeout_wall_seconds=80.0),
    "mixed": FaultConfig(
        crash_probability=0.2,
        straggler_probability=0.3,
        rss_lost_wall_threshold_s=1e9,
        rss_lost_probability=0.4,
    ),
}


def chaos_config(key: str, seed: int = 11) -> ChaosConfig:
    return ChaosConfig(
        faults=FAULTS[key],
        retry=RetryPolicy(max_retries=6),
        seed=seed,
        straggler_sleep_s=0.01,
        timeout_kill_s=0.3,
    )


def run_chaos_fleet(dataset, key, workers):
    return run_fleet(
        dataset,
        make_specs(),
        workers=workers,
        steps_per_slice=3,
        chaos=chaos_config(key),
    )


class TestInlineChaos:
    @pytest.mark.parametrize("key", sorted(FAULTS))
    def test_selections_identical_to_fault_free(
        self, small_dataset, reference_selections, key
    ):
        selections, report = run_chaos_fleet(small_dataset, key, workers=0)
        assert set(report.campaigns.values()) == {"done"}
        # The harness must actually have struck, or this test proves nothing.
        assert report.fault_counts, f"no faults injected for {key!r}"
        assert selections == reference_selections

    def test_fatal_faults_cost_node_hours(self, small_dataset):
        with CampaignService(
            small_dataset, steps_per_slice=3, chaos=chaos_config("crash")
        ) as svc:
            for spec in make_specs():
                svc.submit(spec)
            report = svc.run()
            assert report.slices_discarded >= 1
            wasted = sum(i.wasted_node_hours for i in svc.campaigns())
            assert wasted > 0.0
            events = [e for c in report.campaigns for e in svc.fault_events(c)]
        assert any(e.kind.value == "crash" for e in events)

    def test_oom_halves_slice_length_until_it_fits(self, small_dataset):
        """3 steps -> 1280 MB > 1000 MB limit, deterministically; after
        halving to 1 step (768 MB) the slice fits and the campaign
        completes on the reference trajectory."""
        with CampaignService(
            small_dataset, steps_per_slice=3, chaos=chaos_config("oom")
        ) as svc:
            for spec in make_specs():
                svc.submit(spec)
            report = svc.run()
            details = {
                e.detail for c in report.campaigns for e in svc.fault_events(c)
            }
        assert report.fault_counts.get("oom", 0) >= 3  # every campaign hit it
        assert any("steps=1" in d for d in details)
        assert set(report.campaigns.values()) == {"done"}

    def test_retries_exhausted_fails_campaign(self, small_dataset):
        chaos = ChaosConfig(
            faults=FaultConfig(crash_probability=1.0),
            retry=RetryPolicy(max_retries=1),
            seed=11,
        )
        with CampaignService(small_dataset, steps_per_slice=3, chaos=chaos) as svc:
            svc.submit(make_specs(1)[0])
            report = svc.run()
            failure = svc.result("camp-0")
        assert report.campaigns["camp-0"] == "failed"
        assert "crash" in failure.error and "2 attempts" in failure.error

    def test_waste_draws_down_budget_to_exhaustion(self, small_dataset):
        """With every dispatch crashing and a finite budget, waste alone
        must exhaust the ledger and finalize with BUDGET_EXHAUSTED."""
        chaos = ChaosConfig(
            faults=FaultConfig(crash_probability=1.0),
            retry=RetryPolicy(max_retries=1_000_000),
            seed=11,
        )
        spec = make_specs(1, budget_node_hours=0.05)[0]  # 2 slices of waste
        with CampaignService(small_dataset, steps_per_slice=3, chaos=chaos) as svc:
            svc.submit(spec)
            svc.run()
            traj = svc.result("camp-0")
            info = svc.campaigns()[0]
        assert traj.stop_reason.value == "budget_exhausted"
        assert len(traj.selected_indices) == 0  # nothing ever committed
        assert info.wasted_node_hours >= 0.05


class TestProcessChaos:
    @pytest.mark.parametrize("key", ["crash", "timeout", "mixed"])
    def test_selections_identical_to_fault_free(
        self, small_dataset, reference_selections, key
    ):
        """Real process kills: chaos crash directives execute ``os._exit``
        inside the worker, timeouts are parent-side deadline kills — the
        pool respawns and the fleet still lands on the reference."""
        selections, report = run_chaos_fleet(small_dataset, key, workers=2)
        assert set(report.campaigns.values()) == {"done"}
        assert report.fault_counts, f"no faults injected for {key!r}"
        assert selections == reference_selections


class TestChaosResume:
    def test_kill_mid_chaos_then_resume_lands_on_reference(
        self, tmp_path, small_dataset, reference_selections
    ):
        """The chaos RNG is checkpointed: kill the service mid-campaign,
        resume over the store with the same chaos config, and the fault
        stream — and therefore the selections — continue bit-identically."""
        chaos = chaos_config("mixed")
        specs = make_specs()
        with CampaignService(
            small_dataset, store=tmp_path, steps_per_slice=3, chaos=chaos
        ) as s1:
            for spec in specs:
                s1.submit(spec)
            s1.run(max_slices=4)
        with CampaignService(
            small_dataset, store=tmp_path, steps_per_slice=3, chaos=chaos
        ) as s2:
            report = s2.run()
            selections = {
                spec.campaign_id: tuple(s2.result(spec.campaign_id).selected_indices)
                for spec in specs
            }
        assert set(report.campaigns.values()) == {"done"}
        assert selections == reference_selections

    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_process_kill_resume_strikes_the_uninterrupted_faults(
        self, tmp_path, small_dataset, reference_selections, kill_after
    ):
        """With worker processes a commit is written after the next
        dispatch, whose verdict draws from the campaign's chaos stream.
        The checkpoint still holds the stream as of the commit, so a
        fleet killed and resumed strikes exactly the faults of one run
        through.  Two campaigns on two workers: each commit's campaign is
        the next one dispatched."""
        chaos = chaos_config("mixed")
        specs = make_specs(2)

        def serve(store, max_slices=None):
            with CampaignService(
                small_dataset,
                store=store,
                workers=2,
                steps_per_slice=3,
                chaos=chaos,
            ) as svc:
                if not svc.campaigns():
                    for spec in specs:
                        svc.submit(spec)
                report = svc.run(max_slices=max_slices)
                return report, {
                    s.campaign_id: (
                        svc.fault_events(s.campaign_id),
                        svc.result(s.campaign_id),
                    )
                    for s in specs
                }

        _, whole = serve(None)
        serve(tmp_path, max_slices=kill_after)
        report, resumed = serve(tmp_path)
        assert set(report.campaigns.values()) == {"done"}
        for cid, (faults, traj) in resumed.items():
            assert tuple(traj.selected_indices) == reference_selections[cid]
            assert faults == whole[cid][0]
        assert any(faults for faults, _ in whole.values())
