"""Perf baselines for AMR stepping: per-patch, batched numpy, C kernels.

Times a medium shock-bubble run (mx=16, max_level=4) through three
backends, all bit-identical to each other (``tests/amr/test_batch.py``,
``tests/amr/test_kernel_fallback.py``):

- the **per-patch** reference loop;
- **batched numpy**: the serial batched path with the compiled kernels
  forced off (``repro.solver.kernels.load`` returning None, as on a host
  without a C compiler) — one ``(P, 4, n, n)`` stack, cache-blocked numpy
  sweeps, the ``ExchangePlan`` ghost exchange, vectorized reductions;
- **serial kernels**: the same serial batched path as it runs by default,
  stepping through the compiled C sweep, wave-speed and exchange kernels.

Gates, both against the batched-numpy baseline: batched numpy >= 3x over
per-patch, and serial kernels >= 3x.  Each backend's time is its best of
``REPEATS`` runs, and every repeat runs the three backends back to back,
so a slow spell of a shared host lands on all of them rather than on one.

Results: a rendered table in ``benchmarks/results/perf_amr.txt`` plus a
machine-readable ``BENCH_amr.json`` at the repo root (steps/sec, cells/sec,
speedups) for trend tracking in CI.
"""

import json
import os
import time
from pathlib import Path
from unittest import mock

from repro.amr import AmrConfig, AmrDriver
from repro.solver import ShockBubbleProblem, kernels

MX = 16
MAX_LEVEL = 4
NSTEPS = 24
#: Timed repetitions per backend; best-of damps scheduler noise.
REPEATS = 5

BENCH_JSON = Path(__file__).parent.parent / "BENCH_amr.json"


def _run(batched):
    """One full run; returns (elapsed_seconds, cells_advanced)."""
    cfg = AmrConfig(mx=MX, min_level=1, max_level=MAX_LEVEL, batched=batched)
    driver = AmrDriver(ShockBubbleProblem(), cfg)
    t0 = time.perf_counter()
    for k in range(NSTEPS):
        dt = driver.compute_dt()
        driver.step(dt)
        if (k + 1) % driver.config.regrid_interval == 0:
            driver.regrid()
    elapsed = time.perf_counter() - t0
    return elapsed, sum(rec.cells_advanced for rec in driver.stats.steps)


def _run_numpy():
    with mock.patch.object(kernels, "load", lambda: None):
        return _run(batched=True)


def _row(wall_s, cells, steps, **extra):
    return {
        "wall_s": round(wall_s, 4),
        "steps_per_s": round(steps / wall_s, 3),
        "cells_per_s": round(cells / wall_s, 1),
        **extra,
    }


def test_perf_batched_vs_per_patch(report):
    assert kernels.available(), f"C kernels unavailable: {kernels.load_error()}"
    backends = {
        "batched": _run_numpy,
        "per_patch": lambda: _run(batched=False),
        "kernels": lambda: _run(batched=True),
    }
    best = dict.fromkeys(backends, float("inf"))
    cells = {}
    for _ in range(REPEATS):
        for name, run in backends.items():
            elapsed, cells[name] = run()
            best[name] = min(best[name], elapsed)
    assert len(set(cells.values())) == 1, (
        "backends must advance identical hierarchies"
    )
    cells = cells["batched"]
    steps = NSTEPS
    t_batch, t_patch, t_kern = best["batched"], best["per_patch"], best["kernels"]
    speedup = t_patch / t_batch
    kern_speedup = t_batch / t_kern

    cores = os.cpu_count()
    head = f"{'backend':>15}  {'wall_s':>8}  {'steps/s':>8}  {'Mcells/s':>9}"

    def line(name, t):
        return (
            f"{name:>15}  {t:>8.3f}  {steps / t:>8.2f}  {1e-6 * cells / t:>9.3f}"
        )

    rows = [
        head,
        line("per-patch", t_patch),
        line("batched numpy", t_batch),
        line("serial kernels", t_kern),
        f"batched numpy vs per-patch: {speedup:.2f}x; serial kernels vs "
        f"batched numpy: {kern_speedup:.2f}x",
        f"(mx={MX}, max_level={MAX_LEVEL}, {steps} steps, best of {REPEATS}, "
        f"host_cores={cores})",
    ]
    report("perf_amr", "\n".join(rows))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "amr_batched_stepping",
                "host_cores": cores,
                "config": {
                    "mx": MX,
                    "max_level": MAX_LEVEL,
                    "nsteps": steps,
                    "repeats": REPEATS,
                },
                "per_patch": _row(t_patch, cells, steps),
                "batched": _row(
                    t_batch, cells, steps, backend="numpy (kernels forced off)"
                ),
                "serial_kernels": _row(
                    t_kern, cells, steps,
                    speedup_vs_batched=round(kern_speedup, 3),
                ),
                "speedup": round(speedup, 3),
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= 3.0, (
        f"batched stepping must be >= 3x faster (got {speedup:.2f}x)"
    )
    assert kern_speedup >= 3.0, (
        f"serial kernel stepping must be >= 3x over batched numpy "
        f"(got {kern_speedup:.2f}x)"
    )
