"""Perf headline: candidate-selection throughput, dense vs iterative GP.

The AL loop's steady-state cost at large n is *selection scoring*: the
candidate cache holds the cross covariance ``Ks`` (M, n), and each
selection is one ``predict_from_cross`` pass — mean, variance, argmax.
The dense backend pays an O(n^2 M) triangular solve per pass; the
iterative backend's Woodbury factor answers the same query in O(n r M);
the sparse (DTC) backend in O(m^2 M).  This benchmark measures
selections/second for all three at growing training-set sizes and pins
two claims:

- **parity** (every scale, the CI slice): at n = 600 the iterative
  backend fits bit-identical hyperparameters and makes the *same
  selection sequence* as the dense backend;
- **speedup** (full scale): >= 5x selections/sec over dense at n = 20000.

Protocol per checkpoint: hyperparameters come from one exact fit at
n = 600 (shared by every backend — throughput is compared at identical
theta), each backend factorizes the n-point training set once (setup,
reported but untimed), and the scoring pass over a fixed M = 256
candidate pool is timed best-of-``REPEATS`` with ``PASSES`` passes per
timing.  Results: ``benchmarks/results/perf_select.txt`` plus a
machine-readable ``BENCH_select.json`` (schema-checked in CI by
``repro.analysis.bench_schema``) at the repo root.

Scale: ``REPRO_BENCH_SCALE=quick`` (default) stops at n = 600 so the CI
smoke stays fast; ``full`` adds n = 5000 and n = 20000 (the dense
factorization at 20k is minutes of one-time setup).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.gp import GPRegressor, IterativeGPRegressor, SparseGPRegressor
from repro.gp.surrogate import cross_points

DIMS = 4
#: Candidate-pool size scored per selection pass.
N_CANDIDATES = 256
#: Timed repetitions; best-of damps scheduler noise.
REPEATS = 3
#: Scoring passes per timed repetition (smooths sub-ms passes at small n).
PASSES = 5
#: Sequential argmax-sigma selections compared in the parity slice.
PARITY_ROUNDS = 20
#: Training size whose exact fit supplies theta to every backend.
FIT_N = 600

CHECKPOINTS_BY_SCALE = {"quick": (600,), "full": (600, 5000, 20000)}
#: The iterative backend's work, as counted in repro.obs (precond_rank is
#: a gauge), reported for the last checkpoint.
ITER_COUNTERS = (
    "ws_hit", "ws_extend", "ws_rebuild",
    "cg_solves", "cg_iters", "lanczos_steps", "precond_rank", "matvecs",
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_select.json"


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _data(n):
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (n, DIMS))
    y = np.sin(X @ np.linspace(1.0, 3.0, DIMS)) + 0.05 * rng.standard_normal(n)
    return X, y


def _candidates():
    return np.random.default_rng(99).uniform(0, 1, (N_CANDIDATES, DIMS))


def _fit_theta(X, y):
    """The shared hyperparameters: one exact fit at the paper's n = 600."""
    gp = GPRegressor(n_restarts=1, rng=np.random.default_rng(1))
    gp.fit(X[:FIT_N], y[:FIT_N])
    return gp.kernel_


def _setup_backend(name, kernel, X, y):
    """Factorize ``n`` training points under the shared frozen theta."""
    if name == "dense":
        model = GPRegressor(n_restarts=0, use_workspace=False)
    elif name == "iterative":
        model = IterativeGPRegressor(n_restarts=0, use_workspace=False)
    else:
        model = SparseGPRegressor(n_inducing=64, rng=np.random.default_rng(2))
    model.kernel_ = kernel.with_theta(kernel.theta)
    t0 = time.perf_counter()
    model.refactor(X, y)
    return model, time.perf_counter() - t0


def _selections_per_sec(model, U):
    """Steady-state scoring throughput against a cached cross covariance."""
    kernel = model.kernel_
    Ks = kernel(U, cross_points(model))
    prior = kernel.diag(U)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(PASSES):
            _, sd = model.predict_from_cross(Ks, prior, return_std=True)
            int(np.argmax(sd))
        best = min(best, (time.perf_counter() - t0) / PASSES)
    return 1.0 / best


def _parity_slice(X, y):
    """Dense vs iterative at n = 600: same theta, same selection sequence."""
    results = {}
    for name, cls in (("dense", GPRegressor), ("iterative", IterativeGPRegressor)):
        model = cls(n_restarts=1, rng=np.random.default_rng(1))
        model.fit(X[:FIT_N], y[:FIT_N])
        pool = _candidates()
        picks = []
        for _ in range(PARITY_ROUNDS):
            _, sd = model.predict(pool, return_std=True)
            i = int(np.argmax(sd))
            picks.append(tuple(np.round(pool[i], 12)))
            pool = np.delete(pool, i, axis=0)
        results[name] = (model.kernel_.theta.copy(), picks)
    theta_d, picks_d = results["dense"]
    theta_i, picks_i = results["iterative"]
    assert np.array_equal(theta_i, theta_d), "theta diverged at n=600"
    identical = picks_i == picks_d
    assert identical, "selection sequences diverged at n=600"
    return {"n_train": FIT_N, "rounds": PARITY_ROUNDS, "identical": identical}


def test_perf_selection_throughput(report):
    scale = _scale()
    checkpoints = CHECKPOINTS_BY_SCALE[scale]
    n_max = checkpoints[-1]
    X, y = _data(n_max)
    U = _candidates()

    parity = _parity_slice(X, y)
    kernel = _fit_theta(X, y)

    rows = [
        f"{'n_train':>8}  {'dense/s':>10}  {'iterative/s':>12}  "
        f"{'sparse/s':>10}  {'speedup':>8}"
    ]
    checkpoints_json = []
    iter_counters = {}
    for n in checkpoints:
        sps = {}
        setup = {}
        for name in ("dense", "iterative", "sparse"):
            obs.reset()
            model, setup_s = _setup_backend(name, kernel, X[:n], y[:n])
            if name == "iterative":
                work = {**obs.counters(), **obs.gauges()}
                iter_counters = {k: int(work.get(k, 0)) for k in ITER_COUNTERS}
            sps[name] = _selections_per_sec(model, U)
            setup[name] = setup_s
        speedup = sps["iterative"] / sps["dense"]
        rows.append(
            f"{n:>8}  {sps['dense']:>10.1f}  {sps['iterative']:>12.1f}  "
            f"{sps['sparse']:>10.1f}  {speedup:>7.2f}x"
        )
        checkpoints_json.append(
            {
                "n_train": n,
                "dense_sps": round(sps["dense"], 2),
                "iterative_sps": round(sps["iterative"], 2),
                "sparse_sps": round(sps["sparse"], 2),
                "dense_setup_s": round(setup["dense"], 3),
                "iterative_setup_s": round(setup["iterative"], 3),
                "sparse_setup_s": round(setup["sparse"], 3),
                "speedup": round(speedup, 3),
            }
        )
    rows.append("")
    rows.append(
        f"parity: {parity['rounds']} argmax-sigma selections at "
        f"n={parity['n_train']} identical dense vs iterative"
    )
    rows.append("iterative counters (last checkpoint):")
    width = max(len(c) for c in iter_counters)
    for counter, count in sorted(iter_counters.items()):
        rows.append(f"  {counter:<{width}}  {count:>8d}")
    report("perf_select", "\n".join(rows))

    final_speedup = checkpoints_json[-1]["speedup"]
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "gp_select_throughput",
                "host_cores": os.cpu_count(),
                "config": {
                    "dims": DIMS,
                    "n_candidates": N_CANDIDATES,
                    "repeats": REPEATS,
                    "passes": PASSES,
                    "fit_n": FIT_N,
                    "scale": scale,
                },
                "parity": parity,
                "checkpoints": checkpoints_json,
                "counters": iter_counters,
                "speedup": final_speedup,
            },
            indent=2,
        )
        + "\n"
    )

    if n_max >= 20000:
        assert final_speedup >= 5.0, (
            f"iterative selection must be >= 5x dense at n={n_max} "
            f"(got {final_speedup:.2f}x)"
        )
