"""The one worker start context: a preloaded forkserver, spawn as fallback.

The campaign service's worker pool, which also runs ``run_trajectories``,
starts its processes from :func:`repro.core.service.worker_context`.
These tests pin what that must not change: an interpreter that used the
pool through both entry points leaves no process behind when it exits
(the forkserver included), and where the platform has no forkserver the
pool starts through ``spawn`` with results identical to a serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import service
from repro.core.batch import TrajectorySpec, run_trajectories
from repro.core.policies import MaxSigma, RandUniform
from repro.core.service import CampaignWorkerPool

#: Uses the pool through both entry points, closes it, and exits.  The
#: stdlib resource tracker is not the package's to stop; the script stops
#: it itself, as the end-to-end benchmark does, so what is left is the
#: package's.
EXIT_SCRIPT = """
import numpy as np
from multiprocessing import resource_tracker

from repro.core import (
    ALConfig, CampaignService, CampaignSpec, MaxSigma, TrajectorySpec, run_trajectories,
)
from repro.core.service import worker_context
from repro.data import CampaignConfig, run_campaign

ds = run_campaign(
    np.random.default_rng(7), config=CampaignConfig(num_unique=100, num_repeats=20)
).dataset
specs = [
    TrajectorySpec(name=f"t{i}", policy_factory=MaxSigma, traj_index=i,
                   n_init=10, n_test=10, max_iterations=2)
    for i in range(2)
]
run_trajectories(ds, specs, max_workers=2)
with CampaignService(ds, workers=2, steps_per_slice=1) as svc:
    svc.submit(CampaignSpec(campaign_id="c", policy_factory=MaxSigma, n_init=10,
                            n_test=10, config=ALConfig(max_iterations=2)))
    assert svc.run().done == 1
resource_tracker._resource_tracker._stop()
print(worker_context().get_start_method())
"""


#: A script that finds the package only through its own ``sys.path``
#: edit.  A worker runs the script's top level again, as ``__mp_main__``,
#: before its target: what is imported at that point came from the server.
PRELOAD_SCRIPT = """
import os
import sys

PRELOADED = sorted({"numpy", "scipy", "repro.core.service"} & set(sys.modules))
sys.path.insert(0, {src!r})


def report(conn):
    conn.send(PRELOADED)


if __name__ == "__main__":
    from repro.core.service import worker_context

    ctx = worker_context()
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=report, args=(child,))
    proc.start()
    print(*parent.recv())
    proc.join()
    print("PYTHONPATH" in os.environ)
"""


def _process_group(pgid: int) -> list[str]:
    """Every process in group ``pgid``, zombies included."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process ended while being listed
            continue
        if int(group) == pgid:
            members.append(f"{stat.parent.name} ({state})")
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
def test_no_process_outlives_an_interpreter_that_used_every_pool(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    )
    # In its own session the interpreter leads a process group that every
    # process it starts joins: its workers, the forkserver and the tracker.
    proc = subprocess.Popen(
        [sys.executable, "-c", EXIT_SCRIPT],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, env=env, start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    if "forkserver" in multiprocessing.get_all_start_methods():
        assert out.split() == ["forkserver"]
    assert _process_group(proc.pid) == []


def test_every_pool_falls_back_to_spawn(small_dataset, monkeypatch):
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "forkserver"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    started = []
    start = CampaignWorkerPool._start

    def spy(pool, handle):
        start(pool, handle)
        started.append(handle.proc)

    monkeypatch.setattr(CampaignWorkerPool, "_start", spy)
    service.worker_context.cache_clear()
    try:
        assert service.worker_context().get_start_method() == "spawn"
        specs = [
            TrajectorySpec(
                name=f"traj{i}", policy_factory=policy, base_seed=31, traj_index=i,
                n_init=15, n_test=20, max_iterations=4, hyper_refit_interval=2,
            )
            for i, policy in enumerate((RandUniform, MaxSigma, MaxSigma))
        ]
        pooled = run_trajectories(small_dataset, specs, max_workers=2)
        serial = run_trajectories(small_dataset, specs, max_workers=1)
        assert len(started) == 2
        assert all(isinstance(p, multiprocessing.context.SpawnProcess) for p in started)
        for (n1, a), (n2, b) in zip(serial, pooled):
            assert n1 == n2
            assert np.array_equal(a.selected_indices, b.selected_indices)
            assert np.array_equal(a.rmse_cost, b.rmse_cost)
    finally:
        service.worker_context.cache_clear()


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver",
)
def test_server_preloads_a_package_found_by_a_sys_path_edit(tmp_path):
    """Python 3.11's forkserver ignores the ``sys_path`` it is handed, so a
    server started plainly for this script preloads nothing, and each worker
    imports numpy and scipy itself."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = tmp_path / "edit_sys_path.py"
    script.write_text(PRELOAD_SCRIPT.replace("{src!r}", repr(src)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    preloaded, environ_changed = out.stdout.splitlines()
    assert preloaded.split() == ["numpy", "repro.core.service", "scipy"]
    assert environ_changed == "False"
