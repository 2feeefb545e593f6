"""Perf baseline: incremental Cholesky extension vs from-scratch refactor.

Times a sequence of one-row-append ``refactor()`` calls (as the AL loop
issues them) through both paths at n in {100, 300, 600} and records the
per-append table in ``benchmarks/results/perf_gpr.txt``.  The
incremental path replaces an O(n^3) factorization plus an O(n^2 d)
kernel rebuild with an O(n^2) block update, so the gap must widen with
n; the acceptance bar is >= 5x at n = 600.
"""

import time

import numpy as np

from repro.gp.gpr import GPRegressor

SIZES = (100, 300, 600)
#: One-sample acquisitions timed per measurement, as in the AL loop.
APPENDS = 8


def _problem(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n + APPENDS, d))
    y = np.sin(X @ np.linspace(1.0, 3.0, d)) + 0.05 * rng.standard_normal(
        n + APPENDS
    )
    return X, y


def _append_sequence(n, X, y, incremental):
    """Seconds per refactor over ``APPENDS`` one-row appends from size n."""
    gp = GPRegressor(n_restarts=0, incremental=incremental)
    gp.fit(X[:n], y[:n])
    expected = "rank1" if incremental else "full"
    t0 = time.perf_counter()
    for k in range(n + 1, n + APPENDS + 1):
        gp.refactor(X[:k], y[:k])
        assert gp.last_factor_mode_ == expected
    return (time.perf_counter() - t0) / APPENDS


def _best_of(n, X, y, repeats=3):
    """Best (full, rank-1) seconds per append over ``repeats`` rounds.

    Every round times both paths back to back, so a slow spell of a
    shared host lands on both rather than on one path's repeats.
    """
    t_full = t_incr = float("inf")
    for _ in range(repeats):
        t_full = min(t_full, _append_sequence(n, X, y, incremental=False))
        t_incr = min(t_incr, _append_sequence(n, X, y, incremental=True))
    return t_full, t_incr


def test_perf_incremental_vs_full_refactor(report):
    rows = [f"{'n':>5}  {'full_ms':>9}  {'rank1_ms':>9}  {'speedup':>8}"]
    speedups = {}
    for n in SIZES:
        X, y = _problem(n)
        t_full, t_incr = _best_of(n, X, y)
        speedups[n] = t_full / t_incr
        rows.append(
            f"{n:>5}  {1e3 * t_full:>9.3f}  {1e3 * t_incr:>9.3f}  "
            f"{speedups[n]:>7.1f}x"
        )
    report("perf_gpr", "\n".join(rows))

    # The gap must widen with n, and clear the acceptance bar at n=600.
    assert speedups[600] >= 5.0, f"rank-1 update only {speedups[600]:.1f}x at n=600"
    assert speedups[600] > speedups[100]
