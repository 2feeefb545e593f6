"""End-to-end resilience: faulty campaigns and AL runs that still finish.

Covers the PR's acceptance criteria:

- with faults disabled, campaign and AL outputs are bit-identical to the
  plain (pre-fault-layer) execution path;
- a 600-job campaign under a seeded fault config completes, with every
  retry logged as a structured FaultEvent;
- Active Learning finishes all trajectories on a fault-generated dataset
  even when >= 5% of acquisitions fail;
- an OOM kill is answered by resubmission at a higher node count.
"""

import numpy as np
import pytest

from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.batch import TrajectorySpec, run_trajectories
from repro.core.partitions import random_partition
from repro.core.policies import RandGoodness, RandUniform
from repro.core.trajectory import Trajectory
from repro.data.campaign import CampaignConfig, run_campaign
from repro.faults import (
    AcquisitionFaultModel,
    FaultConfig,
    FaultKind,
    RetryPolicy,
)

#: A moderately hostile machine: every fault mode armed.
HOSTILE = FaultConfig(
    crash_probability=0.05,
    straggler_probability=0.03,
    straggler_slowdown=4.0,
    timeout_wall_seconds=4000.0,
    rss_lost_wall_threshold_s=139.0,
    rss_lost_probability=0.55,
)


class TestCampaignBitIdentity:
    def test_disabled_faults_change_nothing(self):
        """Every field of every record must match the plain path exactly:
        the fault layer consumes zero RNG draws when disabled."""
        plain = run_campaign(np.random.default_rng(42))
        gated = run_campaign(
            np.random.default_rng(42), faults=FaultConfig.disabled()
        )
        assert len(plain.records) == len(gated.records) == 600
        for a, b in zip(plain.records, gated.records):
            assert a == b  # frozen dataclass: full field-wise equality
        assert plain.total_core_hours == gated.total_core_hours
        assert gated.fault_events == []
        assert gated.wasted_core_hours == 0.0
        assert np.array_equal(plain.dataset.X, gated.dataset.X)
        assert np.array_equal(plain.dataset.cost, gated.dataset.cost)
        assert np.array_equal(plain.dataset.mem, gated.dataset.mem)

    def test_disabled_acquisition_faults_change_nothing(self, small_dataset):
        def run(**kw):
            rng = np.random.default_rng(5)
            partition = random_partition(rng, len(small_dataset), n_init=15, n_test=20)
            return ActiveLearner(
                small_dataset, partition, policy=RandGoodness(), rng=rng,
                config=ALConfig(max_iterations=5, hyper_refit_interval=2, **kw),
            ).run()

        plain = run()
        gated = run(acquisition_faults=AcquisitionFaultModel(), on_failure="impute")
        assert np.array_equal(plain.selected_indices, gated.selected_indices)
        assert np.array_equal(plain.rmse_cost, gated.rmse_cost)
        assert np.array_equal(plain.rmse_mem, gated.rmse_mem)
        assert np.array_equal(plain.cumulative_cost, gated.cumulative_cost)
        assert gated.fault_events == ()


class TestFaultyCampaign:
    @pytest.fixture(scope="class")
    def faulty(self):
        return run_campaign(
            np.random.default_rng(42), faults=HOSTILE, retry=RetryPolicy()
        )

    def test_600_jobs_complete_with_events(self, faulty):
        assert len(faulty.records) == 600
        assert faulty.fault_events, "the hostile config must strike"
        kinds = {e.kind for e in faulty.fault_events}
        assert FaultKind.CRASH in kinds
        assert FaultKind.RSS_LOST in kinds
        # Events carry the retry bookkeeping.
        retried = [e for e in faulty.fault_events if "resubmitted" in e.detail]
        assert retried
        assert all(e.backoff_seconds > 0.0 for e in retried)

    def test_usable_dataset_survives(self, faulty):
        assert 0 < faulty.num_usable <= 600
        assert faulty.num_usable == 600 - faulty.failed_jobs - faulty.censored_jobs
        # Retries rescue most crashes; the RSS bug censors ~a third.  The
        # majority of the campaign must still be usable.
        assert faulty.num_usable > 300

    def test_waste_is_charged(self, faulty):
        assert faulty.wasted_core_hours > 0.0
        # Total includes the waste: strictly more than the plain campaign.
        plain = run_campaign(np.random.default_rng(42))
        assert faulty.total_core_hours > plain.total_core_hours - 1e-9

    def test_failed_rows_carry_exit_states(self, faulty):
        failed = [r for r in faulty.records if r.failed]
        assert faulty.failed_jobs == len(failed)
        for r in failed:
            assert r.state in ("NODE_FAIL", "OUT_OF_MEMORY", "TIMEOUT")

    def test_deterministic(self):
        a = run_campaign(np.random.default_rng(9), faults=HOSTILE)
        b = run_campaign(np.random.default_rng(9), faults=HOSTILE)
        assert a.records == b.records
        assert a.fault_events == b.fault_events


class TestOOMEscalation:
    def test_resubmitted_at_higher_p(self):
        """A tight memory limit triggers OOM kills that the retry policy
        answers by doubling the node count."""
        cfg = CampaignConfig(num_unique=60, num_repeats=0)
        result = run_campaign(
            np.random.default_rng(1),
            config=cfg,
            faults=FaultConfig(oom_memory_limit_MB=30.0),
            retry=RetryPolicy(p_max=32),
        )
        ooms = [e for e in result.fault_events if e.kind is FaultKind.OOM]
        assert ooms, "a 30 MB limit must OOM-kill some jobs in this dataset"
        escalated = [e for e in ooms if "resubmitted at p=" in e.detail]
        assert escalated
        # Escalation halves the footprint: most OOM victims recover.
        assert result.failed_jobs < len({e.job_id for e in ooms})


class TestALOnFaultyDataset:
    def test_trajectories_finish_despite_5pct_failures(self):
        """The full resilient pipeline: generate a dataset on the hostile
        machine, then run AL trajectories whose acquisitions also fail;
        every trajectory must complete."""
        result = run_campaign(
            np.random.default_rng(42), faults=HOSTILE, retry=RetryPolicy()
        )
        dataset = result.dataset
        faults = AcquisitionFaultModel(crash_probability=0.1, censor_probability=0.1)
        specs = [
            TrajectorySpec(
                name=f"t{i}", policy_factory=RandUniform, base_seed=77,
                traj_index=i, n_init=20, n_test=40, max_iterations=10,
                hyper_refit_interval=2,
                learner_kwargs={
                    "acquisition_faults": faults, "on_failure": "next_best"
                },
            )
            for i in range(3)
        ]
        out = run_trajectories(dataset, specs, max_workers=2)
        assert len(out) == 3
        total_acqs = 0
        total_failures = 0
        for _, traj in out:
            assert isinstance(traj, Trajectory)
            good = [r for r in traj.records if not r.failed]
            assert len(good) == 10  # every trajectory finished its budget
            total_acqs += len(traj.records)
            total_failures += traj.num_failed_acquisitions
        # The injected rates guarantee a nontrivial failure load overall.
        assert total_failures >= 1
        assert total_failures / total_acqs >= 0.02
