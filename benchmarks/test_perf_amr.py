"""Perf baselines for AMR stepping: per-patch, batched numpy, C kernels, shards.

Times a medium shock-bubble run (mx=16, max_level=4) through four
backends, all bit-identical to each other (``tests/amr/test_batch.py``,
``tests/amr/test_kernel_fallback.py``, ``tests/amr/test_parallel.py``):

- the **per-patch** reference loop;
- **batched numpy**: the serial batched path with the compiled kernels
  forced off (``repro.solver.kernels.load`` returning None, as on a host
  without a C compiler) — one ``(P, 4, n, n)`` stack, cache-blocked numpy
  sweeps, the ``ExchangePlan`` ghost exchange, vectorized reductions;
- **serial kernels**: the same serial batched path as it runs by default,
  stepping through the compiled C sweep, wave-speed and exchange kernels;
- **parallel** (``repro.amr.parallel``): the stack in shared memory,
  sharded along the Morton curve across W worker processes running the
  same C kernels, phased by the parent.

Gates, all against the batched-numpy baseline: batched numpy >= 3x over
per-patch, serial kernels >= 3x, and 4 workers >= 3x.  The parallel rows
are also reported against serial kernels, which isolates what the workers
add on top of the kernels; that ratio is reported with ``host_cores`` and
not gated, because on a host with fewer cores than workers the shards
cannot overlap and the phase barriers only cost.

Results: a rendered table in ``benchmarks/results/perf_amr.txt`` plus a
machine-readable ``BENCH_amr.json`` at the repo root (steps/sec, cells/sec,
speedups, worker scaling) for trend tracking in CI.
"""

import json
import os
import time
from pathlib import Path
from unittest import mock

from repro.amr import AmrConfig, AmrDriver
from repro.amr.parallel import ParallelAmrDriver
from repro.solver import ShockBubbleProblem, kernels

MX = 16
MAX_LEVEL = 4
NSTEPS = 24
#: Timed repetitions per backend; best-of damps scheduler noise.
REPEATS = 2
#: Shard counts for the worker-scaling section.
WORKER_COUNTS = (1, 2, 4)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_amr.json"


def _advance(driver):
    """The timed stepping loop shared by all backends."""
    t0 = time.perf_counter()
    for k in range(NSTEPS):
        dt = driver.compute_dt()
        driver.step(dt)
        if (k + 1) % driver.config.regrid_interval == 0:
            driver.regrid()
    return time.perf_counter() - t0


def _run(batched, workers=None):
    """One full run; returns (elapsed_seconds, cells_advanced, num_steps)."""
    cfg = AmrConfig(mx=MX, min_level=1, max_level=MAX_LEVEL, batched=batched)
    if workers is None:
        driver = AmrDriver(ShockBubbleProblem(), cfg)
        elapsed = _advance(driver)
    else:
        with ParallelAmrDriver(
            ShockBubbleProblem(), cfg, num_workers=workers
        ) as driver:
            elapsed = _advance(driver)
    cells = sum(rec.cells_advanced for rec in driver.stats.steps)
    return elapsed, cells, NSTEPS


def _best_of(batched, workers=None):
    best = None
    for _ in range(REPEATS):
        run = _run(batched, workers)
        if best is None or run[0] < best[0]:
            best = run
    return best


def _row(wall_s, cells, steps, **extra):
    return {
        "wall_s": round(wall_s, 4),
        "steps_per_s": round(steps / wall_s, 3),
        "cells_per_s": round(cells / wall_s, 1),
        **extra,
    }


def test_perf_batched_vs_per_patch_vs_parallel(report):
    assert kernels.available(), f"C kernels unavailable: {kernels.load_error()}"
    with mock.patch.object(kernels, "load", lambda: None):
        t_batch, cells, steps = _best_of(batched=True)
    t_patch, cells_ref, _ = _best_of(batched=False)
    t_kern, cells_kern, _ = _best_of(batched=True)
    assert cells == cells_ref == cells_kern, (
        "backends must advance identical hierarchies"
    )
    speedup = t_patch / t_batch
    kern_speedup = t_batch / t_kern

    scaling = []
    for workers in WORKER_COUNTS:
        t_par, cells_par, _ = _best_of(batched=True, workers=workers)
        assert cells_par == cells, "parallel must advance the same hierarchy"
        scaling.append((workers, t_par, t_batch / t_par, t_kern / t_par))

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
    ]
    rows += [line(f"parallel W={w}", t) for w, t, _b, _k in scaling]
    rows.append(
        f"batched numpy vs per-patch: {speedup:.2f}x; serial kernels vs "
        f"batched numpy: {kern_speedup:.2f}x; parallel W=4 vs batched numpy: "
        f"{scaling[-1][2]:.2f}x"
    )
    rows.append(
        "parallel vs serial kernels: "
        + ", ".join(f"W={w} {k:.2f}x" for w, _t, _b, k in scaling)
        + f"  (host_cores={cores}, not gated)"
    )
    rows.append(f"(mx={MX}, max_level={MAX_LEVEL}, {steps} steps)")
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
                "workers": {
                    "host_cores": cores,
                    "note": (
                        "sharded drivers and serial kernels step through the "
                        "compiled C kernels; batched and per_patch are numpy. "
                        "speedup_vs_serial_kernels is what the workers add "
                        "and is not gated"
                    ),
                    "scaling": [
                        _row(
                            t_par, cells, steps,
                            workers=workers,
                            speedup_vs_batched=round(s_batch, 3),
                            speedup_vs_serial_kernels=round(s_kern, 3),
                        )
                        for workers, t_par, s_batch, s_kern in scaling
                    ],
                },
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
    w4 = scaling[-1]
    assert w4[0] == 4 and w4[2] >= 3.0, (
        f"4-worker sharded stepping must be >= 3x over batched serial "
        f"(got {w4[2]:.2f}x)"
    )
