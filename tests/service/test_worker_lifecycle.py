"""Worker lifecycle: boots never block the event loop, and a failed boot is loud.

A campaign worker counts as booting from its start until its handshake
is read through the service's ``connection.wait``.  These tests pin that
lifecycle without asserting any wall-clock figure: respawn returns before
the handshake, the fleet commits around a booting replacement, a worker
respawned at dispatch is read handshake-first, ``close()`` terminates
booting workers, and a worker that dies before its handshake raises
``ServiceError``.  Every test joins the worker processes it saw, with a
timeout, and asserts they are gone.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import CampaignService, ServiceError
from repro.core import service as service_mod
from repro.core.service import CampaignWorkerPool, _campaign_worker_main

from tests.service.conftest import make_specs, run_fleet

#: Environment variable naming the file whose existence lets a gated
#: worker boot (spawned workers inherit the parent's environment).
GATE_ENV = "REPRO_TEST_BOOT_GATE"


def _exit_before_handshake(conn, rank, trace_enabled):
    """Worker entry point that dies before reading its dataset."""
    os._exit(3)


def _gated_worker_main(conn, rank, trace_enabled):
    """The real worker, held before its handshake until the gate file exists."""
    gate = Path(os.environ[GATE_ENV])
    while not gate.exists():
        time.sleep(0.01)
    _campaign_worker_main(conn, rank, trace_enabled)


def assert_reaped(procs):
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()


def selections_of(svc, specs):
    return {
        s.campaign_id: tuple(svc.result(s.campaign_id).selected_indices)
        for s in specs
    }


class TestPool:
    def test_respawn_returns_before_the_handshake(self, small_dataset):
        pool = CampaignWorkerPool(1, small_dataset)
        worker = pool.workers[0]
        try:
            assert worker.booting  # the constructor reads no handshake
            assert worker.conn.poll(60)
            pool.handshake(worker)
            assert not worker.booting
            old = worker.proc
            pool.respawn(worker)
            assert worker.booting and worker.proc is not old
            assert_reaped([old])
            # respawn() left the replacement's handshake in the pipe.
            assert worker.conn.poll(60)
            assert worker.conn.recv() == ("ok", 0)
        finally:
            pool.close()
        assert_reaped([worker.proc])

    def test_close_right_after_respawn_terminates_the_booting_worker(
        self, small_dataset
    ):
        pool = CampaignWorkerPool(1, small_dataset)
        worker = pool.workers[0]
        assert worker.conn.poll(60)
        pool.handshake(worker)
        pool.respawn(worker)
        assert worker.booting
        proc = worker.proc
        pool.close()
        assert_reaped([proc])
        # Terminated, not asked to close: a graceful exit would be 0.
        assert proc.exitcode == -signal.SIGTERM


class TestService:
    def test_worker_dying_before_handshake_is_a_service_error(
        self, small_dataset, monkeypatch
    ):
        """Regression: this used to surface as a raw ConnectionResetError."""
        monkeypatch.setattr(service_mod, "_campaign_worker_main", _exit_before_handshake)
        with CampaignService(small_dataset, workers=2, steps_per_slice=2) as svc:
            svc.submit(make_specs(1)[0])
            with pytest.raises(
                ServiceError,
                match=r"campaign worker [01] died before its handshake \(exit code 3\)",
            ):
                svc.run()
            procs = [w.proc for w in svc._pool.workers]
        assert_reaped(procs)

    def test_killed_worker_is_replaced_while_the_survivor_commits(
        self, small_dataset, reference_selections, monkeypatch, tmp_path
    ):
        gate = tmp_path / "boot-gate"
        gate.touch()
        monkeypatch.setenv(GATE_ENV, str(gate))
        monkeypatch.setattr(service_mod, "_campaign_worker_main", _gated_worker_main)
        specs = make_specs()
        with CampaignService(small_dataset, workers=2, steps_per_slice=1) as svc:
            for spec in specs:
                svc.submit(spec)
            before = svc.run(max_slices=2).slices_committed
            # Both original workers must be past the gate before it closes.
            for w in svc._pool.workers:
                if w.booting:
                    assert w.conn.poll(60)
                    svc._pool.handshake(w)
            gate.unlink()  # from here on, a replacement cannot finish booting
            victim = svc._pool.workers[0]
            killed = victim.proc
            killed.kill()
            assert_reaped([killed])
            report = svc.run(max_slices=4)
            # Four commits while the replacement is held before its
            # handshake: the survivor kept committing without it.
            assert report.slices_committed == before + 4
            assert victim.booting and victim.proc is not killed
            gate.touch()
            report = svc.run()
            assert set(report.campaigns.values()) == {"done"}
            got = selections_of(svc, specs)
            procs = [w.proc for w in svc._pool.workers]
        assert_reaped(procs)
        assert got == reference_selections

    def test_idle_death_at_two_workers_reads_the_handshake_first(
        self, small_dataset, reference_selections, monkeypatch
    ):
        """A worker found dead while idle is respawned at dispatch and
        handed its job at once, so it is booting and busy together: it
        must be waited on once (selectors reject a duplicate) and its
        handshake read before its slice result."""
        handshakes = []
        real_handshake = CampaignWorkerPool.handshake

        def spy(pool, handle):
            handshakes.append((handle.rank, handle.ticket is not None))
            real_handshake(pool, handle)

        monkeypatch.setattr(CampaignWorkerPool, "handshake", spy)
        specs = make_specs()
        with CampaignService(small_dataset, workers=2, steps_per_slice=2) as svc:
            for spec in specs:
                svc.submit(spec)
            svc.run(max_slices=1)
            victim = next(svc._pool.idle())  # the worker that just committed
            victim.proc.kill()
            assert_reaped([victim.proc])
            handshakes.clear()
            report = svc.run()
            assert set(report.campaigns.values()) == {"done"}
            assert report.slices_discarded == 0
            got = selections_of(svc, specs)
            procs = [w.proc for w in svc._pool.workers]
        assert_reaped(procs)
        assert (victim.rank, True) in handshakes
        assert got == reference_selections


class TestTracing:
    def test_traced_fleet_records_each_worker_ready(self, small_dataset):
        obs.reset()
        obs.enable_tracing()
        try:
            run_fleet(small_dataset, make_specs(), workers=2, steps_per_slice=1)
            t = obs.tracer()
            ready = [i for i in t.instants() if i.name == "service.worker_ready"]
            assert {i.attrs["rank"] for i in ready} == {0, 1}
            assert all(i.attrs["boot_ms"] > 0 for i in ready)
            assert any(s.name == "service.wait" for s in t.spans())
            trace = obs.chrome_trace(t.spans(), t.instants())
            assert obs.validate_chrome_trace(trace) == []
        finally:
            obs.disable_tracing()
            obs.reset()
