"""Checkpoint/resume: atomicity, interning, and bit-identical restarts.

The contract under test is the service's strongest invariant: a service
killed after any number of committed slices and re-attached to its store
continues to *exactly* the trajectory an uninterrupted run produces —
same selections, same RNG stream, same stop reason.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALConfig,
    CampaignService,
    CampaignSpec,
    CheckpointStore,
    RandUniform,
    ServiceError,
    build_learner,
    dataset_fingerprint,
    dumps_campaign,
    loads_campaign,
)
from repro.data import CampaignConfig, run_campaign

from tests.service.conftest import make_specs


class TestBlobRoundTrip:
    def test_dataset_is_interned_not_copied(self, small_dataset):
        spec = make_specs(1)[0]
        learner = build_learner(spec, small_dataset)
        learner.start()
        blob = dumps_campaign(learner, small_dataset)
        restored = loads_campaign(blob, small_dataset)
        assert restored.dataset is small_dataset
        # The blob must be far smaller than a dataset-carrying pickle.
        assert len(blob) < len(pickle.dumps(learner))

    def test_restored_learner_continues_bit_identically(self, small_dataset):
        spec = make_specs(1)[0]
        a = build_learner(spec, small_dataset)
        a.start()
        a.step()
        b = loads_campaign(dumps_campaign(a, small_dataset), small_dataset)
        # RNG sharing survives the round-trip (pickle memoization): the
        # learner and its regressors draw from one stream.
        assert b.gpr_cost.rng is b.rng
        for _ in range(3):
            a.step()
            b.step()
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        ta, tb = a.finalize(), b.finalize()
        np.testing.assert_array_equal(ta.selected_indices, tb.selected_indices)


class TestAtomicity:
    def test_failed_replace_leaves_old_checkpoint_intact(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        store.save("c", {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save("c", {"generation": 2})
        monkeypatch.undo()
        assert store.load("c") == {"generation": 1}

    def test_no_temp_files_survive_a_save(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("c", {"generation": 1})
        leftovers = [p for p in os.listdir(tmp_path) if p not in ("meta.json", "c.ckpt")]
        assert leftovers == []

    def test_delete_and_listing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", {})
        store.save("b", {})
        assert store.campaign_ids() == ["a", "b"]
        store.delete("a")
        assert store.campaign_ids() == ["b"]


class TestResumeRefusal:
    def test_different_dataset_refused(self, tmp_path, small_dataset):
        CampaignService(small_dataset, store=tmp_path).close()
        other = run_campaign(
            np.random.default_rng(99),
            config=CampaignConfig(num_unique=100, num_repeats=20),
        ).dataset
        assert dataset_fingerprint(other) != dataset_fingerprint(small_dataset)
        with pytest.raises(ServiceError, match="different dataset"):
            CampaignService(other, store=tmp_path)

    def test_config_fingerprint_mismatch_refused(self, tmp_path, small_dataset):
        store = CheckpointStore(tmp_path)
        with CampaignService(small_dataset, store=store, steps_per_slice=2) as svc:
            svc.submit(make_specs(1)[0])
            svc.run(max_slices=1)
        payload = store.load("camp-0")
        payload["config_fingerprint"] = "0" * 16
        store.save("camp-0", payload)
        with pytest.raises(ServiceError, match="refusing to resume"):
            CampaignService(small_dataset, store=store)

    def test_version_1_payload_refused(self, tmp_path, small_dataset):
        """Version-1 learner blobs predate the one-learner layout; attaching
        must refuse them loudly instead of failing inside a slice."""
        store = CheckpointStore(tmp_path)
        with CampaignService(small_dataset, store=store, steps_per_slice=2) as svc:
            svc.submit(make_specs(1)[0])
            svc.run(max_slices=1)
        payload = store.load("camp-0")
        payload["version"] = 1
        store.save("camp-0", payload)
        with pytest.raises(ServiceError, match="has version 1, expected 2"):
            CampaignService(small_dataset, store=store)


class TestKillResume:
    @given(kill_after=st.integers(min_value=0, max_value=7))
    @settings(max_examples=6, deadline=None)
    def test_resume_equals_uninterrupted(
        self, small_dataset, reference_selections, kill_after
    ):
        """Kill the service after any number of committed slices; a fresh
        service over the store finishes with the uninterrupted selections."""
        spec = make_specs(1)[0]
        with tempfile.TemporaryDirectory() as td:
            with CampaignService(small_dataset, store=td, steps_per_slice=2) as s1:
                s1.submit(spec)
                s1.run(max_slices=kill_after)
            with CampaignService(small_dataset, store=td, steps_per_slice=2) as s2:
                s2.run()
                got = tuple(s2.result(spec.campaign_id).selected_indices)
        assert got == reference_selections[spec.campaign_id]

    def test_resume_midway_preserves_ledger_and_iterations(
        self, tmp_path, small_dataset
    ):
        spec = make_specs(1, budget_node_hours=1e6)[0]
        with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as s1:
            s1.submit(spec)
            s1.run(max_slices=2)
            before = {
                (i.campaign_id, i.iterations, i.committed_node_hours)
                for i in s1.campaigns()
            }
        with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as s2:
            after = {
                (i.campaign_id, i.iterations, i.committed_node_hours)
                for i in s2.campaigns()
            }
            assert after == before
            s2.run()
            info = s2.campaigns()[0]
            assert info.status == "done"
            assert info.iterations == 5

    def test_budget_exhaustion_survives_resume(self, tmp_path, small_dataset):
        tiny = CampaignSpec(
            campaign_id="tiny-budget",
            policy_factory=RandUniform,
            base_seed=3,
            n_init=20,
            n_test=30,
            config=ALConfig(max_iterations=5),
            budget_node_hours=1e-9,
        )
        with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as s1:
            s1.submit(tiny)
            s1.run()
            traj = s1.result("tiny-budget")
            assert traj.stop_reason.value == "budget_exhausted"
        with CampaignService(small_dataset, store=tmp_path) as s2:
            again = s2.result("tiny-budget")
            assert again.stop_reason.value == "budget_exhausted"
            np.testing.assert_array_equal(
                again.selected_indices, traj.selected_indices
            )
