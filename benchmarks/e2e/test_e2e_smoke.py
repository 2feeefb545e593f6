"""Smoke tests of the end-to-end benchmark at ``--size smoke``.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q benchmarks/e2e/test_e2e_smoke.py

They prove every metric BENCHMARK.json names is emitted with its unit,
that an output check can fail and then counts as an error, that no
process the benchmark starts outlives it, that the benchmark refuses to
run without the package source, and that
``compare.py`` flags regressions and refuses reports it cannot pair.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace, tmp_path):
    proc = _run(
        "--workload", "all", "--seed", "0", "--size", "smoke",
        "--trace", str(trace), "--trace-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    envelopes, final = lines[:-1], lines[-1]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert [e["workload"] for e in envelopes] == [w["name"] for w in BENCH["workloads"]]
    for envelope in envelopes:
        assert all(envelope["checks"].values()), envelope["checks"]
        assert envelope["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        for metric in wanted:
            got = envelope["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if not trace:
            assert all(envelope["metrics"][m["name"]]["value"] > 0 for m in wanted)
    if trace:
        for w in BENCH["workloads"]:
            assert (tmp_path / w["name"] / "layers.json").is_file()
            check = subprocess.run(
                [sys.executable, "-m", "repro.obs.export", "--check",
                 str(tmp_path / w["name"] / "trace.json")],
                capture_output=True, text=True, cwd=ROOT,
            )
            assert check.returncode == 0, check.stderr


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
def test_no_process_outlives_a_run():
    # Started in its own session, the run leads a process group that every
    # process it starts joins, and stays in until reaped.  The pooled
    # workload starts the most: its workers and multiprocessing's
    # resource tracker.
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "al-batch", "--seed", "0",
         "--size", "smoke", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process ended while being listed
            continue
        if int(group) == proc.pid:
            left.append(f"{stat.parent.name} ({state})")
    assert left == []


def test_wrong_reference_digest_counts_as_an_error(tmp_path, monkeypatch):
    # Only the workloads are imported: run.py pins BLAS threads in
    # os.environ, which would leak into every later test's processes.
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    monkeypatch.setattr(
        workloads.ServiceChaos,
        "reference_digests",
        lambda self, specs: {s.campaign_id: "not-a-digest" for s in specs},
    )
    wl = workloads.ServiceChaos(0, "smoke", tmp_path)
    try:
        wl.setup()
        window = wl.measure(0.1)
    finally:
        wl.close()
    wl.check(window)
    result = window.result({})
    assert window.checks["digests_equal_fault_free"] is False
    assert result["failed"] > 0 and not result["correct"]


def test_compare_rules(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from compare import comparable, verdict

    base = [100.0, 80.0, 120.0, 90.0, 110.0] * 2  # spread 0.25
    twice_as_slow = [v / 2 for v in base]
    assert verdict(base, twice_as_slow, "higher", 0.1)["status"] == "regressed"
    assert verdict(base, base, "higher", 0.1)["status"] == "unresolved"
    assert verdict(base, base, "lower", 0.1, median_only=True)["status"] == "unchanged"

    def report(seconds, starts):
        runs = [{"seed": s, "started": t, "correct": True, "metrics": {}}
                for s, t in enumerate(starts)]
        return {"seconds": seconds, "size": "full", "workloads": {"w": {"runs": runs}}}

    assert comparable(report(16, [0, 3, 4]), report(16, [1, 2, 5])) == []
    assert comparable(report(16, [0, 3]), report(8, [1, 2]))  # unequal work
    assert comparable(report(16, [0, 1, 2]), report(16, [3, 4, 5]))  # batched


def test_refuses_to_run_without_the_package(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench_dir, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "amr-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
