"""Checkpoint/resume: atomicity, interning, and bit-identical restarts.

The contract under test is the service's strongest invariant: a service
killed after any number of committed slices and re-attached to its store
continues to *exactly* the trajectory an uninterrupted run produces —
same selections, same RNG stream, same stop reason.
"""

from __future__ import annotations

import dataclasses
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
from repro.core import service as service_module
from repro.core.loop import ActiveLearner, CandidateCovarianceCache
from repro.core.online import OnlineActiveLearner
from repro.core.trajectory import IterationRecord
from repro.data import CampaignConfig, run_campaign
from repro.gp.gpr import GPRegressor
from repro.gp.kernels import _WsNode
from repro.machine.runner import JobRunner

from tests.core.test_online import SMALL_SPACE
from tests.service.conftest import make_specs
from tests.service.test_mf_campaign import mf_spec


def _use_uncompacted_layout(monkeypatch) -> None:
    """Pickle learners in the layout of version-2 blobs written before
    compaction: every object's full ``__dict__`` (Cholesky capacity
    buffer, LML scratch, untrimmed workspace structure and scratch, the
    learner's copy of the dataset's columns)."""
    for cls in (GPRegressor, _WsNode, CandidateCovarianceCache, ActiveLearner):
        monkeypatch.delattr(cls, "__getstate__")


def _dumps_uncompacted(learner, dataset) -> bytes:
    """That layout's writer, which emptied the candidate caches first."""
    learner._cache_cost.invalidate()
    learner._cache_mem.invalidate()
    return dumps_campaign(learner, dataset)


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

    def test_dumping_leaves_the_learner_warm_and_unchanged(self, small_dataset):
        """A learner dumped after every step keeps its candidate caches and
        selects exactly like one never dumped; the blob carries the caches
        empty."""
        spec = make_specs(2)[1]  # MaxSigma: picks read the cached sigma
        dumped = build_learner(spec, small_dataset)
        plain = build_learner(spec, small_dataset)
        dumped.start()
        plain.start()
        while plain.step():
            assert dumped.step()
            warm = dumped._cache_cost._Ks
            assert warm is not None
            blob = dumps_campaign(dumped, small_dataset)
            assert dumped._cache_cost._Ks is warm
            restored = loads_campaign(blob, small_dataset)
            assert restored._cache_cost._Ks is None
            assert [r.dataset_index for r in restored.records] == [
                r.dataset_index for r in dumped.records
            ]
        assert not dumped.step()
        assert dumped.rng.bit_generator.state == plain.rng.bit_generator.state
        np.testing.assert_array_equal(
            dumped.finalize().selected_indices, plain.finalize().selected_indices
        )

    @pytest.mark.parametrize("kind", ["offline", "portfolio", "online"])
    def test_dataset_columns_are_rebuilt_not_stored(self, small_dataset, kind):
        """The blob carries no copy of the dataset's scaled features or log
        responses; the restored learner rebuilds them byte for byte."""
        if kind == "online":
            live = OnlineActiveLearner(
                JobRunner(), RandUniform(), np.random.default_rng(5),
                space=SMALL_SPACE, n_init=4, n_eval=10, max_runs=4,
            )
            dataset = live.dataset
        else:
            dataset = small_dataset
            spec = make_specs(1)[0]
            if kind == "portfolio":
                spec = mf_spec(small_dataset.memory_limit())
            live = build_learner(spec, dataset)
        live.start()
        for _ in range(2):
            assert live.step()
        columns = ("_U", "_log_cost", "_log_mem")
        assert not set(columns) & set(live.__getstate__())
        restored = loads_campaign(dumps_campaign(live, dataset), dataset)
        for name in columns:
            got, want = getattr(restored, name), getattr(live, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        while live.step():
            assert restored.step()
        assert not restored.step()
        assert restored.rng.bit_generator.state == live.rng.bit_generator.state
        np.testing.assert_array_equal(
            restored.finalize().selected_indices, live.finalize().selected_indices
        )

    def test_restored_pool_and_records_hold_plain_values(self, small_dataset):
        """The pool restores as Python ints and every record field for
        field, type included (NaN equal to NaN)."""
        live = build_learner(make_specs(1)[0], small_dataset)
        live.start()
        for _ in range(3):
            assert live.step()
        restored = loads_campaign(dumps_campaign(live, small_dataset), small_dataset)
        assert restored._remaining == live._remaining
        assert {type(i) for i in restored._remaining} == {int}
        assert len(restored.records) == len(live.records) == 3
        for got, want in zip(restored.records, live.records):
            for f in dataclasses.fields(IterationRecord):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(b), f.name
                assert a == b or (a != a and b != b), f.name


class TestUncompactedBlobs:
    """Version-2 blobs written before checkpoints held live state only
    still load, attach and continue exactly."""

    @pytest.mark.parametrize("refit", [1, 3])
    def test_blob_continues_like_an_uninterrupted_run(
        self, small_dataset, monkeypatch, refit
    ):
        spec = make_specs(2)[1]  # MaxSigma: picks read the cached sigma
        spec = dataclasses.replace(
            spec, config=ALConfig(max_iterations=8, hyper_refit_interval=refit)
        )
        plain = build_learner(spec, small_dataset)
        plain.start()
        while plain.step():
            pass
        live = build_learner(spec, small_dataset)
        live.start()
        for _ in range(4):
            assert live.step()
        with monkeypatch.context() as m:
            _use_uncompacted_layout(m)
            old = _dumps_uncompacted(live, small_dataset)
        assert len(old) > len(dumps_campaign(live, small_dataset))
        restored = loads_campaign(old, small_dataset)
        assert restored.gpr_cost._chol_flat is not None  # scratch came along
        while restored.step():
            pass
        assert restored.rng.bit_generator.state == plain.rng.bit_generator.state
        np.testing.assert_array_equal(
            restored.finalize().selected_indices, plain.finalize().selected_indices
        )

    def test_store_attaches_and_resumes(
        self, tmp_path, small_dataset, reference_selections, monkeypatch
    ):
        specs = make_specs()
        with monkeypatch.context() as m:
            _use_uncompacted_layout(m)
            m.setattr(service_module, "dumps_campaign", _dumps_uncompacted)
            with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as s1:
                for spec in specs:
                    s1.submit(spec)
                s1.run(max_slices=4)
        with CampaignService(small_dataset, store=tmp_path, steps_per_slice=2) as s2:
            s2.run()
            got = {
                s.campaign_id: tuple(s2.result(s.campaign_id).selected_indices)
                for s in specs
            }
        assert got == reference_selections


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
        with pytest.raises(
            ServiceError,
            match="has version 1, expected 2; checkpoints are not migrated: "
            "finish those campaigns with the release that wrote them, or "
            "start a new store",
        ):
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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_store_keeps_a_finished_campaigns_blob(
        self, tmp_path, small_dataset, workers
    ):
        """A store-backed service still writes the learner of a campaign
        that finished; resuming and auditing a store read that blob."""
        spec = make_specs(1)[0]
        with CampaignService(
            small_dataset, store=tmp_path, workers=workers, steps_per_slice=2
        ) as svc:
            svc.submit(spec)
            svc.run()
            traj = svc.result(spec.campaign_id)
        payload = CheckpointStore(tmp_path).load(spec.campaign_id)
        assert payload["status"] == "done"
        learner = loads_campaign(payload["blob"], small_dataset)
        # Field by field, NaN equal to NaN (unweighted runs record NaN).
        np.testing.assert_equal(
            [dataclasses.astuple(r) for r in learner.records],
            [dataclasses.astuple(r) for r in traj.records],
        )
        assert len(traj.records) == 5

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


class _FailingStore(CheckpointStore):
    """A store whose ``fail_at``-th save raises, as a full disk would."""

    def __init__(self, root, fail_at: int) -> None:
        super().__init__(root)
        self.saves = 0
        self.fail_at = fail_at

    def save(self, campaign_id: str, payload: dict) -> None:
        self.saves += 1
        if self.saves == self.fail_at:
            raise OSError("no space left on device")
        super().save(campaign_id, payload)


def _slices_on_disk(root) -> int:
    store = CheckpointStore(root)
    return sum(store.load(cid)["slice_index"] for cid in store.campaign_ids())


def _resume_inline(root, dataset) -> dict:
    with CampaignService(dataset, store=root, steps_per_slice=2) as svc:
        report = svc.run()
        assert set(report.campaigns.values()) == {"done"}
        return {
            cid: tuple(svc.result(cid).selected_indices) for cid in report.campaigns
        }


class TestDeferredWrites:
    """With worker processes a commit is written after the freed workers
    have their next slices.  However the run ends, every commit it
    counted is on disk, and a fresh service resumes exactly."""

    @pytest.mark.parametrize("where", ["wait", "dispatch"])
    def test_interrupt_leaves_every_counted_commit_on_disk(
        self, tmp_path, small_dataset, reference_selections, monkeypatch, where
    ):
        """A KeyboardInterrupt after three commits, from the parent's wait
        for results (every commit is written by then) or from the next
        dispatch (the last wait's commits are not yet written)."""
        svc = CampaignService(
            small_dataset, store=tmp_path, workers=2, steps_per_slice=1
        )
        raised = []

        def interrupt_after_commits():
            committed = svc.report().slices_committed
            if not raised and committed >= 3:
                raised.append((committed, _slices_on_disk(tmp_path)))
                raise KeyboardInterrupt

        if where == "wait":
            real = service_module.connection.wait

            def wait(*args, **kwargs):
                interrupt_after_commits()
                return real(*args, **kwargs)

            monkeypatch.setattr(service_module.connection, "wait", wait)
        else:
            real = service_module.CampaignWorkerPool.idle

            def idle(pool):
                interrupt_after_commits()
                return real(pool)

            monkeypatch.setattr(service_module.CampaignWorkerPool, "idle", idle)
        with svc:
            for spec in make_specs():
                svc.submit(spec)
            with pytest.raises(KeyboardInterrupt):
                svc.run()
            committed = svc.report().slices_committed
        monkeypatch.undo()
        (counted, written), = raised
        assert counted == committed >= 3
        if where == "wait":
            assert written == committed
        else:
            assert written < committed
        assert _slices_on_disk(tmp_path) == committed
        assert _resume_inline(tmp_path, small_dataset) == reference_selections

    def test_failed_write_raises_and_the_store_resumes(
        self, tmp_path, small_dataset, reference_selections
    ):
        """The fifth save (the second after the three submissions) fails:
        run() raises it, writes the other deferred checkpoints, and the
        store lags that one campaign by one commit, which resuming re-runs."""
        store = _FailingStore(tmp_path, fail_at=5)
        with CampaignService(
            small_dataset, store=store, workers=2, steps_per_slice=1
        ) as svc:
            for spec in make_specs():
                svc.submit(spec)
            with pytest.raises(OSError, match="no space left"):
                svc.run()
            committed = svc.report().slices_committed
        assert store.saves >= 5
        assert _slices_on_disk(tmp_path) == committed - 1
        assert _resume_inline(tmp_path, small_dataset) == reference_selections
