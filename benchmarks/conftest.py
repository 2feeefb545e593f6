"""Shared infrastructure for the figure/table regeneration benchmarks.

Every benchmark regenerates one table or figure of the paper and prints its
rows/series (run pytest with ``-s`` to see them live); the rendered text is
also written to ``benchmarks/results/<name>.txt``.

Scaling: the paper's full runs (hundreds of AL iterations, many
trajectories) take minutes; benchmarks default to a reduced but
shape-preserving configuration.  Set ``REPRO_BENCH_SCALE=full`` for
paper-scale runs.

Parallelism: the fig2/fig3/fig4 benchmarks fan their independent
trajectories out over :func:`repro.core.run_trajectories`' worker
processes (the campaign service's pool).  ``REPRO_BENCH_WORKERS``
overrides the worker count (1 = serial); results are
worker-count-independent by seed design.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.data import run_campaign

RESULTS_DIR = Path(__file__).parent / "results"

#: Reduced vs full experiment scales.
SCALES = {
    "quick": dict(
        n_trajectories=3,
        fig2_iterations=100,
        fig34_iterations=80,
        hyper_refit_interval=2,
    ),
    "full": dict(
        n_trajectories=5,
        fig2_iterations=150,
        fig34_iterations=350,
        hyper_refit_interval=1,
    ),
}


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if name not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return SCALES[name]


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Process-pool width for trajectory fan-out (capped, env-overridable)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if raw is not None:
        workers = int(raw)
        if workers < 1:
            raise ValueError("REPRO_BENCH_WORKERS must be >= 1")
        return workers
    return max(1, min(os.cpu_count() or 1, 4))


@pytest.fixture(scope="session")
def dataset():
    """The paper-scale 600-job dataset (fixed seed: one dataset per run)."""
    return run_campaign(np.random.default_rng(42)).dataset


@pytest.fixture(scope="session")
def memory_limit(dataset) -> float:
    """L_mem per the paper's rule (95% of log-bytes max = 42% of raw max)."""
    return dataset.memory_limit()


@pytest.fixture
def report():
    """Print a rendered table/figure and persist it under results/."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _report
