"""End-to-end benchmark of the repro pipeline, with a per-layer split.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload amr-sweep --seed 0
    python3 benchmarks/e2e/run.py --workload all --seed 0
    python3 benchmarks/e2e/run.py --workload al-batch --seed 0 --trace 1
    python3 benchmarks/e2e/run.py --workload all --repeat 10 \
        --base-checkout ../parent --base-out base.json > new.json

Each workload prints one envelope line (metrics, checks, informational
outputs and the environment) and then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are its per-layer metrics from
a traced rerun, and the Chrome trace plus ``layers.json`` are written
under ``--trace-dir``.  ``--repeat N`` runs each workload N times in fresh
processes at seeds ``seed .. seed+N-1`` and prints medians and quartiles;
with ``--base-checkout`` it interleaves runs of a second checkout seed by
seed, and ``compare.py`` judges the two reports against the
BENCHMARK.json bounds.

The script builds nothing: it runs the package from ``src/`` of the
checkout it sits in, and exits 2 when that is missing.  Everything it
writes stays under ``.bench_work/`` of that checkout.
"""

from __future__ import annotations

import os

#: BLAS thread pools, pinned before numpy is first imported so this
#: process and every spawned worker use one thread each.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: ``setup_s`` is the median of this many fresh-interpreter imports, whose
#: time swings most, plus the median of ``SETUP_REPEATS`` set-ups.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3


@functools.cache
def benchmark() -> dict:
    """BENCHMARK.json of the checkout: workloads, metrics, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workers: int) -> dict:
    import numpy

    return {
        "host_cores": os.cpu_count(),
        "workers": workers,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def stop_children() -> None:
    """Stop and reap every process this one started, the resource tracker last.

    Workloads close their own workers; this catches any a failure left
    behind.  The tracker, started with the first spawned worker, would
    otherwise outlive this process for a moment after it exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _named(kind: str, values: dict) -> dict:
    """The BENCHMARK.json metrics of ``kind``, each with its value and unit."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in benchmark()[kind]
    }


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the workloads."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import workloads"], cwd=HERE, check=True, timeout=120
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_untraced(wl, args):
    """Set up several times, then measure with tracing off."""
    from repro import obs

    import_s = import_seconds()
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        samples.append(time.perf_counter() - t0)
    obs.reset()
    window = wl.measure(args.seconds)
    wl.close()
    wl.check(window)
    metrics = _named(
        "end_to_end",
        {
            "setup_s": import_s + statistics.median(samples),
            "ops_per_s": window.rate,
            "peak_rss_mb": peak_rss_mb(),
        },
    )
    window.info.update(setup_samples_s=samples, import_s=import_s)
    return window, metrics


def run_traced(wl, args):
    """An untraced window as the overhead base, then a traced window.

    The two windows share ``--seconds`` equally, so a traced run takes
    about as long as an untraced one.
    """
    from repro import obs
    from repro.obs import validate_chrome_trace

    from layers import layer_table, per_layer_metrics

    half = args.seconds / 2
    wl.setup()
    base = wl.measure(half)
    wl.close()
    tracer = obs.enable_tracing()
    try:
        wl.setup()  # pools spawned now inherit tracing
        tracer.drain()
        obs.reset()
        window = wl.measure(half)
        wl.close()
        spans = tracer.spans()
        phases, counters = obs.snapshot(), obs.counters()
        out = Path(args.trace_dir) / wl.name
        out.mkdir(parents=True, exist_ok=True)
        obs.export_chrome_trace(
            str(out / "trace.json"), metadata={"workload": wl.name, "seed": args.seed}
        )
    finally:
        obs.disable_tracing()
    wl.check(window)
    errors = validate_chrome_trace(json.loads((out / "trace.json").read_text()))
    window.checks["trace_valid"] = not errors
    overhead = 1.0 - window.rate / base.rate
    table = layer_table(spans, window.wall_s, wl.workers)
    table.update(
        traced_ops_per_s=window.rate,
        untraced_ops_per_s=base.rate,
        trace_overhead_frac=overhead,
    )
    (out / "layers.json").write_text(json.dumps(table, indent=2))
    values = per_layer_metrics(phases, counters, spans, table, window, overhead)
    window.info.update(trace_dir=str(out), layer_lanes=table["lanes"])
    return window, _named("per_layer", values)


def run_one(name: str, args, work_dir: Path) -> tuple[dict, dict]:
    """Run one workload; return ``(envelope, result)``."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](args.seed, args.size, work_dir)
    try:
        if args.trace:
            window, metrics = run_traced(wl, args)
        else:
            window, metrics = run_untraced(wl, args)
    finally:
        wl.close()
    info = dict(window.info, units=window.units, ops=window.ops, window_s=window.wall_s)
    if window.store is not None:
        t = window.store.turnarounds_ms()
        info["turnaround_ms"] = {"p50": statistics.median(t) if t else None, "samples": len(t)}
    envelope = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "metrics": metrics,
        "checks": window.checks,
        "info": info,
        "env": environment(wl.workers),
    }
    return envelope, window.result(metrics)


def _fresh_run(checkout: Path, name: str, seed: int, args) -> dict:
    """One untraced run of ``checkout``'s benchmark in a fresh process."""
    cmd = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--size", args.size, "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=checkout)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {name} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, started=started)
    return result


def _summary(runs: list[dict]) -> dict:
    """Median, quartiles and spread (IQR over median) of every metric."""
    from compare import quartiles

    summary = {}
    for metric, first in runs[0]["metrics"].items():
        q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs])
        summary[metric] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return summary


def repeat(args, names: list[str]) -> int:
    """Run each workload ``args.repeat`` times in fresh processes.

    With ``--base-checkout`` every seed also runs the base checkout's
    benchmark, right before or right after this one, alternating which
    side goes first, so drift of the host hits both sides alike.
    """
    sides = {"new": ROOT}
    if args.base_checkout:
        sides["base"] = Path(args.base_checkout).resolve()
    reports = {
        side: {"repeat": args.repeat, "seconds": args.seconds, "size": args.size,
               "workloads": {}}
        for side in sides
    }
    for name in names:
        runs = {side: [] for side in sides}
        for i in range(args.repeat):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                try:
                    runs[side].append(_fresh_run(sides[side], name, args.seed + i, args))
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(exc, file=sys.stderr)
                    return 1
        for side in sides:
            reports[side]["workloads"][name] = {
                "runs": runs[side], "summary": _summary(runs[side])
            }
    if args.base_checkout:
        Path(args.base_out).write_text(json.dumps(reports["base"]))
    print(json.dumps(reports["new"]))
    ok = all(
        r["correct"] for report in reports.values()
        for wl in report["workloads"].values() for r in wl["runs"]
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in benchmark()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=str(WORK / "trace"))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--base-checkout", help="with --repeat: also run this checkout")
    parser.add_argument("--base-out", help="with --base-checkout: its report goes here")
    args = parser.parse_args(argv)
    if bool(args.base_checkout) != bool(args.base_out) or (
        args.base_checkout and not args.repeat
    ):
        parser.error("--base-checkout and --base-out go together, with --repeat")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    # Temporary files of this process and its workers stay in the checkout.
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    selected = names if args.workload == "all" else [args.workload]
    if args.repeat:
        return repeat(args, selected)

    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in selected:
            envelope, result = run_one(name, args, work_dir)
            print(json.dumps(envelope), flush=True)
            results[name] = result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if len(results) == 1:
        final = results[selected[0]]
    else:
        from workloads import result_line

        final = result_line(
            all(r["correct"] for r in results.values()),
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        )
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
