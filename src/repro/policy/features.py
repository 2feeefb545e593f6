"""GP-free candidate features for the amortized selection policy.

The amortized policy must score candidates *without* a surrogate refit, so
everything it sees has to be computable from quantities that exist before
any GP does:

- **machine-model predictions** — the analytic work profile of
  :func:`repro.machine.perf_model.estimate_work` priced noise-free by
  :meth:`repro.machine.runner.JobRunner.price` gives a log10
  cost/memory prediction per candidate (the same models that generated the
  dataset's responses, so they are strong zero-cost priors);
- **geometry vs. the training set** — min/mean distance and a local
  density count in the scaled design space stand in for the posterior
  variance the GP policies consume (far-from-training == uncertain);
- **run state** — training-set size, pool fraction, cumulative node-hours
  spent, and running mean/std of the observed log targets (the
  budget-ledger view of the campaign so far).

Incrementality mirrors the candidate cross-covariance cache's contract
(:class:`repro.core.loop.CandidateCovarianceCache`): an acquisition
deletes the selected candidate's *row* from every per-candidate array and
folds the new training point in with one O(m·d) vectorized pass
(:meth:`FeatureExtractor.observe_acquire` — the column-append analog); a
crashed/censored candidate loses its row only
(:meth:`FeatureExtractor.observe_drop`).  Nothing is ever recomputed from
scratch inside the serving loop.

The extractor's state is plain arrays, so a pickled extractor (inside a
campaign checkpoint) resumes bit-identically — the accumulator values ride
along rather than being recomputed in a different summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.data.dataset import Dataset
from repro.machine import JobConfig, JobRunner

__all__ = ["FEATURE_NAMES", "FeatureExtractor", "PolicyContext", "machine_log_predictions"]

#: Column layout of :meth:`FeatureExtractor.features`, in order.
FEATURE_NAMES = (
    "machine_log_cost",  # analytic log10 node-hours prediction
    "machine_log_mem",  # analytic log10 MaxRSS prediction
    "mem_margin",  # log10(L_mem) - machine_log_mem (+3 when unconstrained)
    "u_p",  # scaled design coordinates (5)
    "u_mx",
    "u_maxlevel",
    "u_r0",
    "u_rhoin",
    "min_dist",  # geometry vs. the training set
    "mean_dist",
    "near_frac",  # fraction of training points within NEAR_RADIUS
    "log_n_train",  # run state
    "pool_frac",
    "log_cost_spent",  # log10(1 + cumulative node-hours charged)
    "cost_mean",  # running stats of observed log10 targets
    "cost_std",
    "mem_mean",
    "mem_std",
)

#: Scaled-space radius of the local-density count.
NEAR_RADIUS = 0.3

#: ``mem_margin`` stand-in when no memory limit constrains the run: +3
#: decades of headroom, comfortably above any real margin in the dataset.
UNCONSTRAINED_MARGIN = 3.0

#: Column index of ``log_cost_spent`` — the one feature that depends on
#: *charged* (not just learned) cost, so a rebuilt extractor cannot
#: reconstruct it from a context alone (crashed acquisitions charge too).
COST_SPENT_COLUMN = FEATURE_NAMES.index("log_cost_spent")


@dataclass(frozen=True)
class PolicyContext:
    """What :meth:`FeatureExtractor.prepare`-style construction needs.

    Built by :meth:`repro.core.loop.ActiveLearner.start` and handed to any
    policy exposing a ``prepare(ctx)`` hook.

    Attributes
    ----------
    dataset : Dataset
        The offline job table (features + responses).
    scaler : object
        The learner's :class:`~repro.core.preprocessing.DesignTransform`
        (anything with ``transform``).
    pool_indices : ndarray of int
        Dataset indices of the remaining Active candidates, in pool order.
    train_indices : ndarray of int
        Dataset indices currently in the training set (the Initial
        partition at :meth:`~repro.core.loop.ActiveLearner.start` time).
    memory_limit_MB : float or None
        ``L_mem`` when the run is memory-constrained.
    """

    dataset: Dataset
    scaler: object
    pool_indices: np.ndarray
    train_indices: np.ndarray
    memory_limit_MB: float | None = None


def machine_log_predictions(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic log10 (cost, mem) predictions for raw feature rows.

    Prices each ``(p, mx, maxlevel, r0, rhoin)`` row through the noise-free
    machine models (:func:`~repro.machine.perf_model.estimate_work` →
    node-hours / MaxRSS).  Rows repeat heavily in grid-sampled datasets, so
    results are memoized per unique configuration — pricing 20k rows costs
    at most the 1920 distinct grid points.
    """
    runner = JobRunner()
    cache: dict[tuple, tuple[float, float]] = {}
    log_cost = np.empty(X.shape[0])
    log_mem = np.empty(X.shape[0])
    for i, row in enumerate(X):
        key = tuple(row)
        hit = cache.get(key)
        if hit is None:
            cfg = JobConfig(
                p=int(round(row[0])),
                mx=int(round(row[1])),
                maxlevel=int(round(row[2])),
                r0=float(row[3]),
                rhoin=float(row[4]),
            )
            _, node_hours, max_rss = runner.price(cfg)
            hit = (float(np.log10(node_hours)), float(np.log10(max_rss)))
            cache[key] = hit
        log_cost[i], log_mem[i] = hit
    return log_cost, log_mem


class FeatureExtractor:
    """Incrementally maintained feature matrix over the candidate pool.

    Construction is the expensive part (one machine-model pass over the
    pool plus one vectorized distance pass against the training set);
    every subsequent :meth:`features` call assembles the cached columns in
    O(m · n_features), and the per-acquisition update is one O(m · d)
    vectorized pass — no surrogate, no refit, nothing quadratic in the
    training-set size.
    """

    def __init__(self, ctx: PolicyContext) -> None:
        ds = ctx.dataset
        pool = np.asarray(ctx.pool_indices, dtype=np.int64)
        train = np.asarray(ctx.train_indices, dtype=np.int64)
        self._U = np.asarray(ctx.scaler.transform(ds.X[pool]), dtype=np.float64)
        self._log_limit = (
            float(np.log10(ctx.memory_limit_MB))
            if ctx.memory_limit_MB is not None
            else None
        )
        self._machine_log_cost, self._machine_log_mem = machine_log_predictions(
            ds.X[pool]
        )

        # Geometry vs. the current training set, vectorized once here and
        # folded forward point-by-point afterwards.
        U_train = np.asarray(ctx.scaler.transform(ds.X[train]), dtype=np.float64)
        diff = self._U[:, None, :] - U_train[None, :, :]
        d = np.sqrt(np.einsum("mnd,mnd->mn", diff, diff))
        self._min_dist = d.min(axis=1)
        self._dist_sum = d.sum(axis=1)
        self._near = (d < NEAR_RADIUS).sum(axis=1).astype(np.float64)
        self._n_train = int(train.shape[0])
        self._pool0 = int(pool.shape[0])

        # Running target statistics, seeded from the (observed) training
        # targets so the very first selection already sees them.
        log_cost = ds.log_cost()[train]
        log_mem = ds.log_mem()[train]
        self._cost_stats = [float(log_cost.sum()), float((log_cost**2).sum()), len(train)]
        self._mem_stats = [float(log_mem.sum()), float((log_mem**2).sum()), len(train)]
        self._cost_spent = 0.0

    # ------------------------------------------------------------- properties

    @property
    def m(self) -> int:
        """Candidates currently in the pool."""
        return int(self._U.shape[0])

    @property
    def machine_log_cost(self) -> np.ndarray:
        return self._machine_log_cost

    @property
    def machine_log_mem(self) -> np.ndarray:
        return self._machine_log_mem

    def feasible_mask(self) -> np.ndarray:
        """Machine-predicted memory under the limit (all-True when none)."""
        if self._log_limit is None:
            return np.ones(self.m, dtype=bool)
        return self._machine_log_mem < self._log_limit

    # --------------------------------------------------------------- features

    @staticmethod
    def _mean_std(stats: list) -> tuple[float, float]:
        s, s2, n = stats
        if n == 0:
            return 0.0, 0.0
        mean = s / n
        return mean, float(np.sqrt(max(0.0, s2 / n - mean * mean)))

    def features(self) -> np.ndarray:
        """The ``(m, len(FEATURE_NAMES))`` feature matrix, freshly assembled.

        Timed into the ``policy.features`` phase (a span when tracing is
        on); bumps the ``policy_feature_rows`` counter by ``m``.
        """
        with obs.timed("policy.features", cat="policy", rows=self.m):
            m = self.m
            F = np.empty((m, len(FEATURE_NAMES)))
            F[:, 0] = self._machine_log_cost
            F[:, 1] = self._machine_log_mem
            if self._log_limit is None:
                F[:, 2] = UNCONSTRAINED_MARGIN
            else:
                F[:, 2] = self._log_limit - self._machine_log_mem
            F[:, 3:8] = self._U
            F[:, 8] = self._min_dist
            n = max(1, self._n_train)
            F[:, 9] = self._dist_sum / n
            F[:, 10] = self._near / n
            F[:, 11] = np.log10(n)
            F[:, 12] = m / max(1, self._pool0)
            F[:, 13] = np.log10(1.0 + self._cost_spent)
            F[:, 14], F[:, 15] = self._mean_std(self._cost_stats)
            F[:, 16], F[:, 17] = self._mean_std(self._mem_stats)
        obs.incr("policy_feature_rows", m)
        return F

    # ---------------------------------------------------------------- updates

    def _delete_row(self, pos: int) -> None:
        self._U = np.delete(self._U, pos, axis=0)
        self._machine_log_cost = np.delete(self._machine_log_cost, pos)
        self._machine_log_mem = np.delete(self._machine_log_mem, pos)
        self._min_dist = np.delete(self._min_dist, pos)
        self._dist_sum = np.delete(self._dist_sum, pos)
        self._near = np.delete(self._near, pos)

    def observe_acquire(
        self,
        pos: int,
        u_new: np.ndarray,
        cost: float,
        target_cost: float,
        target_mem: float,
        learn_mem: bool = True,
    ) -> None:
        """Candidate ``pos`` joined the training set (row-drop + fold-in).

        Mirrors :meth:`CandidateCovarianceCache.acquire`: the selected
        candidate's row leaves every per-candidate array, and the new
        training point updates the distance/density columns of the
        *remaining* rows in one vectorized pass.
        """
        self._delete_row(pos)
        d = np.sqrt(((self._U - np.asarray(u_new)[None, :]) ** 2).sum(axis=1))
        np.minimum(self._min_dist, d, out=self._min_dist)
        self._dist_sum += d
        self._near += d < NEAR_RADIUS
        self._n_train += 1
        self._cost_spent += float(cost)
        self._cost_stats[0] += float(target_cost)
        self._cost_stats[1] += float(target_cost) ** 2
        self._cost_stats[2] += 1
        if learn_mem:
            self._mem_stats[0] += float(target_mem)
            self._mem_stats[1] += float(target_mem) ** 2
            self._mem_stats[2] += 1

    def observe_drop(self, pos: int, cost: float = 0.0) -> None:
        """Candidate ``pos`` left the pool without joining the training set.

        The failure path (crashed acquisition): row-drop only — the
        distance columns still describe the unchanged training set — but
        the charged node-hours still count toward the spent ledger.
        """
        self._delete_row(pos)
        self._cost_spent += float(cost)
