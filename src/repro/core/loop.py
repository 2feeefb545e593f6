"""Algorithm 1: the Active Learning procedure.

The learner owns two GPR models — cost and memory — pre-fit on the Initial
partition.  Each round it predicts over the remaining Active samples, asks
the selection policy for up to ``batch_size`` candidates, "runs the
experiments" by looking the samples up in the offline dataset, moves them
into the learned set, and retrains both models once, warm-started from the
previous hyperparameters.  Test-set RMSE, cumulative cost, and cumulative
regret are recorded for every selected sample.  The online learner
(:mod:`repro.core.online`) runs the same loop and executes each pick on
the simulated machine instead of looking it up.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

import numpy as np

from repro import obs
from repro.core.config import ALConfig
from repro.core.metrics import individual_regret, rmse_nonlog
from repro.core.partitions import Partition
from repro.core.policies import CandidateView, SelectionPolicy
from repro.core.preprocessing import DesignTransform
from repro.core.stopping import NoEarlyStopping
from repro.core.trajectory import IterationRecord, StopReason, Trajectory
from repro.data.dataset import Dataset
from repro.data.fidelity import MultiFidelityDataset
from repro.faults.acquisition import AcquisitionOutcome, FailurePolicy
from repro.faults.model import FaultEvent, FaultKind
from repro.gp.kernels import default_kernel
from repro.gp.surrogate import (
    build_surrogate,
    cross_appends,
    cross_points,
    cross_version,
    supports_cross,
)
from repro.machine.accounting import CampaignLedger


class CandidateCovarianceCache:
    """Incrementally maintained cross-covariance for one surrogate model.

    Re-scoring the Active pool each iteration rebuilds the
    ``(candidates x basis)`` kernel matrix from scratch even though only
    one candidate left the pool — and, for training-set bases, one column
    (the newly learned point) joined the basis.  This cache keeps ``Ks``
    and the prior diagonal across iterations: an acquisition deletes the
    selected candidate's row and appends a single freshly evaluated
    column when the model's basis grows on acquisition
    (:func:`repro.gp.surrogate.cross_appends`); models with a frozen
    basis (the sparse GP's inducing set) keep their rows valid with no
    column work at all.

    Exactness invariants:

    - The cache is keyed on the kernel's ``theta`` *and* the model's
      basis epoch (:func:`repro.gp.surrogate.cross_version`); a
      hyperparameter refit or a basis move (inducing re-cluster) makes
      the next :meth:`predict` silently rebuild.
    - ``Ks`` depends only on the kernel and the point sets — *not* on the
      factorization — so a jitter-ladder or full-refactor fallback in
      the model never stales the cache.
    - Models that do not declare ``supports_cross`` (e.g.
      :class:`repro.gp.local.LocalGPRegressor`) bypass the cache entirely.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._Ks: np.ndarray | None = None
        self._diag: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self._version = 0

    def invalidate(self) -> None:
        self._Ks = None
        self._diag = None
        self._theta = None

    def __getstate__(self) -> dict:
        # Pickles empty: the cache is exact and rebuilt on first use, so a
        # checkpoint carries the model reference only, and pickling leaves
        # the live cache warm.
        state = self.__dict__.copy()
        state.update(_Ks=None, _diag=None, _theta=None)
        return state

    @property
    def _cacheable(self) -> bool:
        return supports_cross(self.model) and getattr(self.model, "is_fitted", False)

    def _fresh(self) -> bool:
        kernel = getattr(self.model, "kernel_", None)
        basis = cross_points(self.model)
        return (
            self._Ks is not None
            and kernel is not None
            and basis is not None
            and self._theta is not None
            and self._Ks.shape[1] == basis.shape[0]
            and self._version == cross_version(self.model)
            and np.array_equal(kernel.theta, self._theta)
        )

    def predict(self, U_cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate mean/std, rebuilding the cached ``Ks`` only when stale."""
        if not self._cacheable:
            return self.model.predict(U_cand, return_std=True)
        if not self._fresh():
            kernel = self.model.kernel_
            self._Ks = kernel(U_cand, cross_points(self.model))
            self._diag = kernel.diag(U_cand)
            self._theta = kernel.theta.copy()
            self._version = cross_version(self.model)
        return self.model.predict_from_cross(self._Ks, self._diag, return_std=True)

    def acquire(self, pos: int, U_remaining: np.ndarray, u_new: np.ndarray) -> None:
        """Candidate ``pos`` was selected: drop its row, append its column.

        ``U_remaining`` are the features of the pool *after* removal and
        ``u_new`` the selected point now joining the training set.  Must
        run before any hyperparameter refit so the single-column kernel
        evaluation uses the same ``theta`` the cache was built under.
        Models whose cross basis does not absorb acquisitions (frozen
        inducing sets) only lose the selected row — their remaining rows
        are still exact.
        """
        if self._Ks is None or not self._fresh():
            self.invalidate()
            return
        self._Ks = np.delete(self._Ks, pos, axis=0)
        self._diag = np.delete(self._diag, pos)
        if not cross_appends(self.model):
            return
        if U_remaining.shape[0] != self._Ks.shape[0]:
            self.invalidate()
            return
        col = self.model.kernel_(U_remaining, u_new[None, :])
        self._Ks = np.hstack([self._Ks, col])

    def drop(self, pos: int) -> None:
        """Candidate ``pos`` left the pool *without* joining the training set.

        The failure-handling path: a crashed or censored acquisition is
        removed from the pool but its column never appears in the kernel
        matrix, so only the row is deleted.  ``Ks`` stays keyed to the
        unchanged training set and the fast path is preserved.
        """
        if self._Ks is None or not self._fresh():
            self.invalidate()
            return
        self._Ks = np.delete(self._Ks, pos, axis=0)
        self._diag = np.delete(self._diag, pos)


class ActiveLearner:
    """Runs Algorithm 1 on an offline dataset, one acquisition round per step.

    A round scores the remaining candidates, takes up to
    ``config.batch_size`` picks, runs every pick through one observation
    path (node-hour charge, regret, acquisition faults, candidate caches,
    per-fidelity training sets), then refits the models once.  Sequential
    policies (``select``) run the paper's one-pick round; policies with a
    ``select_batch`` surface (:class:`~repro.core.portfolio.PortfolioPolicy`)
    pick budgeted batches of (point, fidelity) pairs, and reduce to RGMA
    draw for draw at one pick, one fidelity, and no round budget.

    Parameters
    ----------
    dataset : Dataset or MultiFidelityDataset
        The offline job table.  Multi-fidelity configurations need its
        priced fidelity surfaces (:meth:`ALConfig.priced`); the config is
        then normalized to the dataset's fidelity axis and the
        ``"multifidelity"`` co-kriging surrogate.
    partition : Partition
        Initial / Active / Test split.
    policy : optional
        One of the Sec. IV-B algorithms (:mod:`repro.core.policies`), a
        :class:`~repro.core.portfolio.PortfolioPolicy`, or any other
        implementation of the protocol — e.g. the zero-refit
        :class:`repro.policy.AmortizedPolicy`.  ``None`` instantiates the
        policy ``config`` declares (:func:`repro.policy.make_policy`); a
        policy with ``requires_surrogate = False`` switches the loop into
        zero-refit mode (no GP fit/refactor/RMSE anywhere).
    rng : numpy.random.Generator
        Drives randomized policies, GPR restarts, and acquisition faults
        (required).
    config : ALConfig, optional
        Every tuning knob, validated (:class:`repro.core.config.ALConfig`);
        available as ``self.config`` and embedded in the returned
        :class:`~repro.core.trajectory.Trajectory`.
    """

    def __init__(
        self,
        dataset: Dataset | MultiFidelityDataset,
        partition: Partition,
        policy: SelectionPolicy | None = None,
        rng: np.random.Generator | None = None,
        config: ALConfig | None = None,
    ) -> None:
        if rng is None:
            raise ValueError("rng is required")
        cfg = config if config is not None else ALConfig()
        mf = None
        if isinstance(dataset, MultiFidelityDataset):
            # Normalize the config to the dataset's fidelity axis, so
            # describe()/fingerprint() reflect the run's real identity.
            cfg = _dc_replace(
                cfg,
                num_fidelities=dataset.num_fidelities,
                fidelity_schedule=tuple(dataset.schedule.describe()),
            )
            mf, dataset = dataset, dataset.base
        elif cfg.num_fidelities > 1:
            raise ValueError(
                "multi-fidelity configurations need a MultiFidelityDataset "
                "(price one with ALConfig.priced)"
            )
        if cfg.num_fidelities > 1:
            # Only a fidelity axis changes the surrogate: the co-kriging stack.
            opts = dict(cfg.surrogate_options)
            opts["num_fidelities"] = cfg.num_fidelities
            cfg = _dc_replace(cfg, surrogate="multifidelity", surrogate_options=opts)
            faults = cfg.acquisition_faults
            if faults is not None and faults.enabled:
                raise ValueError(
                    "acquisition faults are modelled at the top fidelity "
                    "only (num_fidelities=1)"
                )
        self.config = cfg

        if policy is None:
            # Instantiate from the config's declarative policy selection
            # (lazy import: repro.policy depends on this module).
            from repro.policy import make_policy

            policy = make_policy(cfg, dataset)
        self._batch = hasattr(policy, "select_batch")
        if not self._batch and not cfg.sequential:
            raise ValueError(
                f"policy {policy.name!r} has no select_batch surface; batch, "
                "budgeted, and multi-fidelity rounds need a "
                "PortfolioPolicy-style policy"
            )
        # Policies that never consult a surrogate (the amortized server)
        # switch the loop into zero-refit mode: no GP fit, refactor, or
        # RMSE evaluation anywhere on the serving path.
        self._zero_refit = not getattr(policy, "requires_surrogate", True)
        if self._zero_refit:
            if cfg.on_failure is FailurePolicy.IMPUTE:
                raise ValueError(
                    "on_failure='impute' needs surrogate predictions; "
                    f"policy {policy.name!r} is zero-refit"
                )
            if cfg.stopping_rule is not None:
                raise ValueError(
                    "stopping rules consume surrogate predictions; "
                    f"policy {policy.name!r} is zero-refit"
                )
        # Policies may expose incremental-state hooks (prepare /
        # observe_acquire / observe_drop); the loop feeds them so the
        # policy's own caches track the pool exactly like the
        # cross-covariance caches do.
        self._policy_hooks = hasattr(policy, "observe_acquire")

        self.dataset = dataset
        self.partition = partition
        self.policy = policy
        self.rng = rng
        self.stopping_rule = (
            cfg.stopping_rule if cfg.stopping_rule is not None else NoEarlyStopping()
        )

        self.scaler = DesignTransform(dataset.bounds, log2_columns=cfg.log2_features)
        self._derive_columns()
        # Sub-top fidelities (F > 1 only): priced surfaces and the points
        # observed at each rung.  The top fidelity lives in the lists below.
        self._mf = mf if cfg.num_fidelities > 1 else None
        self._lofi_learned: list[list[int]] = [
            [] for _ in range(cfg.num_fidelities - 1)
        ]

        base_kernel = cfg.kernel if cfg.kernel is not None else default_kernel()
        # The two models get structurally independent kernel copies
        # (with_theta) so their workspaces/fits never alias.  The backend
        # name resolves through the surrogate registry (repro.registry) —
        # any registered model plugs in here.
        kernels = (base_kernel, base_kernel.with_theta(base_kernel.theta))
        self.gpr_cost, self.gpr_mem = (
            build_surrogate(
                cfg.surrogate,
                kernel=k,
                rng=rng,
                n_restarts=cfg.n_restarts,
                options=cfg.surrogate_options,
            )
            for k in kernels
        )

        # Mutable AL state.  The cost and memory models keep separate
        # learned lists because a censored acquisition (MaxRSS lost) feeds
        # only the cost model; targets ride along so the impute policy can
        # substitute posterior means for lost observations.  The pool holds
        # Python ints: a checkpoint pickles them in one opcode each, where
        # numpy scalars take a reduce call apiece.
        self._remaining = partition.active_idx.tolist()
        self._learned: list[int] = []
        self._targets_cost: list[float] = []
        self._learned_mem: list[int] = []
        self._targets_mem: list[float] = []
        self._cache_cost = CandidateCovarianceCache(self.gpr_cost)
        self._cache_mem = CandidateCovarianceCache(self.gpr_mem)

        # Stepwise-execution state (see start/step/finalize).  Lives on the
        # instance — not in run()-local variables — so a learner pickled
        # between steps checkpoints its complete mid-run state and resumes
        # bit-identically (the campaign service's resume contract).
        self._started = False
        self._stop: StopReason | None = None
        self._records: list[IterationRecord] = []
        self._fault_events: list[FaultEvent] = []
        self._cum_cost = 0.0
        self._cum_regret = 0.0
        self._iteration = 0
        self._initial_rmse = (float("nan"), float("nan"))
        self._prev_rmse = (float("nan"), float("nan"), float("nan"))
        self._memory_limit: float | None = None

    def _derive_columns(self) -> None:
        """Derive the dataset columns the loop reads.

        Every feature scaled into the unit cube, and the log10 responses:
        all three are functions of ``dataset`` and ``scaler``.
        """
        self._U = self.scaler.transform(self.dataset.X)
        self._log_cost = self.dataset.log_cost()
        self._log_mem = self.dataset.log_mem()

    def __getstate__(self) -> dict:
        # A checkpoint carries no copy of the dataset: the service interns
        # the dataset itself, and the columns read from it are rebuilt on
        # restore, bit for bit.
        state = self.__dict__.copy()
        del state["_U"], state["_log_cost"], state["_log_mem"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Blobs written before carry the columns; identical ones replace them.
        self._derive_columns()

    # ---------------------------------------------------------------- helpers

    def _train_indices(self) -> np.ndarray:
        return np.concatenate(
            [self.partition.init_idx, np.asarray(self._learned, dtype=np.int64)]
        )

    def _fit_models(self, optimize: bool = True) -> None:
        init = self.partition.init_idx
        # (cost rows, cost targets, mem rows, mem targets) per fidelity, low
        # to high; every rung shares the Initial partition.
        levels = []
        for f, learned in enumerate(self._lofi_learned):
            idx = np.concatenate([init, np.asarray(learned, dtype=np.int64)])
            levels.append(
                (idx, self._mf.log_cost(f)[idx], idx, self._mf.log_mem(f)[idx])
            )
        idx_c = np.concatenate([init, np.asarray(self._learned, dtype=np.int64)])
        y_c = np.concatenate(
            [self._log_cost[init], np.asarray(self._targets_cost, dtype=np.float64)]
        )
        # An initial row whose MaxRSS was never observed (a run that ran out
        # of memory) trains the cost model only.
        init_m = init[np.isfinite(self._log_mem[init])]
        idx_m = np.concatenate([init_m, np.asarray(self._learned_mem, dtype=np.int64)])
        y_m = np.concatenate(
            [self._log_mem[init_m], np.asarray(self._targets_mem, dtype=np.float64)]
        )
        levels.append((idx_c, y_c, idx_m, y_m))
        if len(levels) == 1:
            X_c, X_m = self._U[idx_c], self._U[idx_m]
        else:
            # The co-kriging stack reads each row's fidelity from a
            # trailing column.
            def stacked(col):
                return np.vstack(
                    [
                        np.column_stack(
                            [self._U[lv[col]], np.full(lv[col].shape[0], float(f))]
                        )
                        for f, lv in enumerate(levels)
                    ]
                )

            X_c, X_m = stacked(0), stacked(2)
            y_c = np.concatenate([lv[1] for lv in levels])
            y_m = np.concatenate([lv[3] for lv in levels])
        with obs.span("gp_fit", cat="al", optimize=optimize, n=int(X_c.shape[0])):
            for model, X, y in ((self.gpr_cost, X_c, y_c), (self.gpr_mem, X_m, y_m)):
                if not y.size:
                    continue  # no MaxRSS observed yet: the model keeps its prior
                if optimize or not model.is_fitted:
                    model.fit(X, y)
                else:
                    model.refactor(X, y)

    def _test_rmse(self) -> tuple[float, float, float]:
        t = self.partition.test_idx
        mu_c = self.gpr_cost.predict(self._U[t])
        rmse_m = weighted = float("nan")
        if self.gpr_mem.is_fitted:  # else no MaxRSS was observed yet
            rmse_m = rmse_nonlog(self.gpr_mem.predict(self._U[t]), self.dataset.mem[t])
        if self.config.weight_rmse_by_cost:
            weighted = rmse_nonlog(mu_c, self.dataset.cost[t], weights=self.dataset.cost[t])
        return rmse_nonlog(mu_c, self.dataset.cost[t]), rmse_m, weighted

    def _candidate_view(self) -> CandidateView:
        idx = np.asarray(self._remaining, dtype=np.int64)
        U = self._U[idx]
        if self._zero_refit:
            # No surrogate exists; the amortized policy scores from its
            # own features and never reads the predictive columns.
            nan = np.full(idx.shape[0], np.nan)
            return CandidateView(
                X=U, mu_cost=nan, sigma_cost=nan, mu_mem=nan, sigma_mem=nan
            )
        mu_c, sd_c = self._cache_cost.predict(U)
        mu_m, sd_m = self._cache_mem.predict(U)
        return CandidateView(
            X=U, mu_cost=mu_c, sigma_cost=sd_c, mu_mem=mu_m, sigma_mem=sd_m
        )

    def _portfolio_view(self, top: CandidateView):
        """Stack the sub-top fidelities' predictions under ``top``."""
        from repro.core.portfolio import PortfolioCandidateView

        idx = np.asarray(self._remaining, dtype=np.int64)
        F, m = self.config.num_fidelities, idx.shape[0]
        mu_c, sd_c, mu_m = np.empty((F, m)), np.empty((F, m)), np.empty((F, m))
        mu_c[F - 1], sd_c[F - 1] = top.mu_cost, top.sigma_cost
        mu_m[F - 1] = top.mu_mem
        blocked = np.zeros((F, m), dtype=bool)
        for f, learned in enumerate(self._lofi_learned):
            mu_c[f], sd_c[f] = self.gpr_cost.predict_fidelity(
                top.X, f, return_std=True
            )
            mu_m[f] = self.gpr_mem.predict_fidelity(top.X, f)
            blocked[f] = np.isin(idx, learned)  # one observation per pair
        weights = np.ones(1)
        if F > 1:
            weights = np.abs(self.gpr_cost.fidelity_weights(F - 1))
        return PortfolioCandidateView(
            X=top.X,
            mu_cost=mu_c,
            sigma_cost=sd_c,
            mu_mem=mu_m,
            weights=weights,
            blocked=blocked,
        )

    def _conditioner(self, U: np.ndarray):
        """Y-free in-batch sigma deflation by one pick's *prior* covariance.

        At one fidelity this reads the fitted ``kernel_`` directly (a
        surrogate without one gets no conditioning); the co-kriging stack
        contributes every rung the two pairs share.
        """
        model, F = self.gpr_cost, self.config.num_fidelities

        def deflate(sigma: np.ndarray, pos: int, fid: int) -> np.ndarray:
            u = U[pos]
            if F == 1:
                kernel = getattr(model, "kernel_", None)
                if kernel is None:
                    return sigma
                denom = float(kernel.diag(u[None, :])[0])
                covs = [kernel(U, u[None, :]).ravel()]
            else:
                denom = model.prior_var_fidelity(u, fid)
                covs = [model.prior_cov_fidelity(U, fq, u, fid) for fq in range(F)]
            if not np.isfinite(denom) or denom <= 0:
                return sigma
            var = sigma * sigma
            for fq, c in enumerate(covs):
                var[fq] = np.maximum(var[fq] - (c * c) / denom, 0.0)
            return np.sqrt(var)

        return deflate

    # -------------------------------------------------------------------- run

    def run(self) -> Trajectory:
        """Execute the full AL loop and return its trajectory.

        With an enabled ``acquisition_faults`` model, acquisitions can
        crash (no usable responses) or come back RSS-censored (cost
        observed, memory lost); either way the sample's node-hours are
        charged, the candidate leaves the pool, a
        :class:`~repro.faults.FaultEvent` is appended to the trajectory,
        and the loop proceeds per ``on_failure`` — it never corrupts the
        incremental-Cholesky fast path (lost samples are *dropped* from
        the cached cross-covariance, never appended) and never aborts.
        """
        with obs.span(
            "trajectory",
            cat="al",
            policy=self.policy.name,
            n_init=self.partition.n_init,
        ) as traj_span:
            trajectory = self._run()
            traj_span.annotate(
                iterations=len(trajectory), stop_reason=trajectory.stop_reason.value
            )
            return trajectory

    def _run(self) -> Trajectory:
        self.start()
        while self.step():
            pass
        return self.finalize()

    # ------------------------------------------------------- stepwise API

    @property
    def finished(self) -> bool:
        """True once the run has reached a stop condition."""
        return self._stop is not None

    @property
    def iteration(self) -> int:
        """The next AL iteration to execute (0 before any selection)."""
        return self._iteration

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """Records committed so far (stable snapshot)."""
        return tuple(self._records)

    @property
    def cumulative_cost_spent(self) -> float:
        """Node-hours charged so far (the campaign ledger's feed)."""
        return self._cum_cost

    @property
    def ledger(self) -> CampaignLedger:
        """Lifetime ledger of the node-hours this learner's picks committed."""
        return CampaignLedger(committed_node_hours=self._cum_cost)

    def start(self) -> None:
        """Pre-AL initialization: initial fit + baseline RMSE (idempotent).

        Splitting this out of :meth:`run` lets a driver (the campaign
        service) execute the loop one :meth:`step` at a time, pickling the
        learner between steps as a checkpoint.  Everything :meth:`step`
        needs lives on the instance afterwards.
        """
        if self._started:
            return
        self.stopping_rule.reset()
        if not self._zero_refit:
            self._fit_models(optimize=True)
            rmse_c0, rmse_m0, _ = self._test_rmse()
            self._initial_rmse = (rmse_c0, rmse_m0)
            # RMSE reported on iterations that learned nothing (dropped
            # acquisitions leave the models untouched).
            self._prev_rmse = (rmse_c0, rmse_m0, float("nan"))
        self._memory_limit = getattr(self.policy, "memory_limit_MB", None)
        prepare = getattr(self.policy, "prepare", None)
        if prepare is not None:
            # One-time policy state construction (e.g. the amortized
            # feature extractor).  Runs only on a cold start: ``_started``
            # rides the checkpoint pickle, so a resumed learner keeps the
            # policy state it was pickled with instead of rebuilding it.
            from repro.policy.features import PolicyContext

            prepare(
                PolicyContext(
                    dataset=self.dataset,
                    scaler=self.scaler,
                    pool_indices=np.asarray(self._remaining, dtype=np.int64),
                    train_indices=self._train_indices(),
                    memory_limit_MB=getattr(self.policy, "memory_limit_MB", None),
                )
            )
        self._started = True

    def step(self) -> bool:
        """One acquisition round; returns False once the run has ended.

        Exactly one pass of Algorithm 1's loop body, taking up to
        ``config.batch_size`` picks.  ``max_iterations`` counts picks and
        is checked when a round starts.  The ``next_best`` failure path
        consumes a pick without advancing the iteration counter (a
        replacement is selected in the following round), matching the
        historical in-loop ``continue``.  The learner may be pickled
        between any two calls and the restored copy continues the
        identical sequence.
        """
        if not self._started:
            self.start()
        if self._stop is not None:
            return False
        if not self._remaining:
            self._stop = StopReason.EXHAUSTED
            return False

        cfg = self.config
        iteration = self._iteration
        with obs.span(
            "al_iteration",
            cat="al",
            iteration=iteration,
            pool=len(self._remaining),
        ):
            if cfg.max_iterations is not None and iteration >= cfg.max_iterations:
                self._stop = StopReason.MAX_ITERATIONS
                return False
            view = self._candidate_view()
            if self.stopping_rule.update(view.mu_cost, view.sigma_cost):
                self._stop = StopReason.STOPPING_RULE
                return False
            if self._batch:
                view = self._portfolio_view(view)
                budget = cfg.round_budget_node_hours
                picks = self.policy.select_batch(
                    view,
                    self.rng,
                    ledger=(
                        None
                        if budget is None
                        else CampaignLedger(budget_node_hours=budget)
                    ),
                    batch_size=cfg.batch_size,
                    conditioner=(
                        self._conditioner(view.X) if cfg.batch_size > 1 else None
                    ),
                )
            else:
                pos = self.policy.select(view, self.rng)
                # -1 tags a sequential pick (always the top fidelity).
                picks = [] if pos is None else [(pos, -1)]
            if not picks:
                memory_ok = self._batch and bool(
                    ((view.mu_mem < self.policy.log_limit) & ~view.blocked).any()
                )
                self._stop = (
                    StopReason.BUDGET_EXHAUSTED
                    if memory_ok
                    else StopReason.MEMORY_CONSTRAINED
                )
                return False
            optimize = iteration % cfg.hyper_refit_interval == 0
            self._observe_round(picks, optimize=optimize)
        return True

    def _observe_round(self, picks: list[tuple[int, int]], optimize: bool) -> None:
        """Observe every pick of one round, then refit the models once.

        ``picks`` are ``(position, fidelity)`` pairs with positions into
        the pool as the round started.  Every record of the round carries
        the RMSE after the round's refit (or the previous RMSE when the
        round learned nothing).
        """
        if len(picks) > 1:
            # Only single-pick rounds keep the candidate caches warm (row
            # drop + column append); a batch rebuilds them after its refit.
            self._cache_cost.invalidate()
            self._cache_mem.invalidate()
        staged: list[dict] = []
        learned = False
        left: list[int] = []  # round-start positions that left the pool
        for pos, fid in picks:
            top = not 0 <= fid < self.config.num_fidelities - 1
            learned |= self._observe(
                pos - sum(p < pos for p in left), fid, top, staged
            )
            if top:
                left.append(pos)
        if learned and not self._zero_refit:
            self._fit_models(optimize=optimize)
            self._prev_rmse = self._test_rmse()
        rmse_c, rmse_m, rmse_w = self._prev_rmse
        for fields in staged:
            self._records.append(
                IterationRecord(
                    rmse_cost=rmse_c,
                    rmse_mem=rmse_m,
                    rmse_cost_weighted=rmse_w,
                    **fields,
                )
            )

    def _observe(self, pos: int, fid: int, top: bool, staged: list[dict]) -> bool:
        """Run one pick's experiment; returns whether a model learned from it.

        ``pos`` indexes the current pool.  A top-fidelity pick leaves the
        pool; a lower-fidelity pick keeps its point in the pool (the pair
        is blocked instead).  The experiment's node-hours are spent even
        when the observation is lost.
        """
        cfg = self.config
        ds_index = int(self._remaining.pop(pos) if top else self._remaining[pos])
        cost, mem, outcome = self._acquire(ds_index, fid, top)
        self._cum_cost += cost
        if self._memory_limit is not None:
            self._cum_regret += individual_regret(cost, mem, self._memory_limit)
        crashed = outcome is AcquisitionOutcome.CRASHED
        censored = outcome is AcquisitionOutcome.CENSORED
        staged.append(
            dict(
                iteration=self._iteration,
                dataset_index=ds_index,
                cost=cost,
                mem=mem,
                cumulative_cost=self._cum_cost,
                cumulative_regret=self._cum_regret,
                failed=crashed,
                censored=censored,
                fidelity=fid,
            )
        )

        if crashed and cfg.on_failure is not FailurePolicy.IMPUTE:
            # The sample is lost entirely: remove it from the cached
            # cross-covariances (row only — it never joins the kernel)
            # and leave both models untouched.
            self._cache_cost.drop(pos)
            self._cache_mem.drop(pos)
            if self._policy_hooks:
                self.policy.observe_drop(pos, cost=cost)
            self._record_fault(
                ds_index,
                FaultKind.CRASH,
                f"acquisition crashed ({cfg.on_failure.value})",
            )
            if cfg.on_failure is not FailurePolicy.NEXT_BEST:
                self._iteration += 1  # DROP: the iteration is consumed
            return False  # NEXT_BEST: replacement selected next round

        if not top:
            self._lofi_learned[fid].append(ds_index)
            self._iteration += 1
            return True

        # The sample (or an imputation of it) joins the training sets.
        u_new = self._U[ds_index]
        target_cost = float(np.log10(cost))
        target_mem = float(np.log10(mem))
        learn_mem = True
        if crashed:  # IMPUTE policy: both observations were lost
            target_cost = float(self.gpr_cost.predict(u_new[None, :])[0])
            target_mem = float(self.gpr_mem.predict(u_new[None, :])[0])
        elif censored:  # cost observed, MaxRSS lost
            if cfg.on_failure is FailurePolicy.IMPUTE:
                target_mem = float(self.gpr_mem.predict(u_new[None, :])[0])
            else:
                learn_mem = False

        self._learned.append(ds_index)
        self._targets_cost.append(target_cost)
        if learn_mem:
            self._learned_mem.append(ds_index)
            self._targets_mem.append(target_mem)
        if not self._zero_refit:
            U_rem = self._U[np.asarray(self._remaining, dtype=np.int64)]
            self._cache_cost.acquire(pos, U_rem, u_new)
            if learn_mem:
                self._cache_mem.acquire(pos, U_rem, u_new)
            else:
                self._cache_mem.drop(pos)
        if self._policy_hooks:
            self.policy.observe_acquire(
                pos,
                u_new,
                cost=cost,
                target_cost=target_cost,
                target_mem=target_mem,
                learn_mem=learn_mem,
            )
        if crashed or censored:
            self._record_fault(
                ds_index,
                FaultKind.CRASH if crashed else FaultKind.RSS_LOST,
                f"handled via {cfg.on_failure.value}",
            )
        self._iteration += 1
        return not self._zero_refit

    def _acquire(
        self, ds_index: int, fid: int, top: bool
    ) -> tuple[float, float, AcquisitionOutcome]:
        """Run one pick's experiment: its node-hours, MaxRSS and outcome.

        Offline, the experiment is a lookup in the job table (or in the
        pick's priced fidelity surface below the top), struck by the
        acquisition-fault model when one is enabled.  A learner whose picks
        execute overrides this one method
        (:class:`repro.core.online.OnlineActiveLearner`).
        """
        faults = self.config.acquisition_faults
        outcome = (
            faults.strike(self.rng)
            if faults is not None and faults.enabled
            else AcquisitionOutcome.OK
        )
        if top:
            cost, mem = self.dataset.cost[ds_index], self.dataset.mem[ds_index]
        else:
            cost, mem = self._mf.cost[fid, ds_index], self._mf.mem[fid, ds_index]
        return float(cost), float(mem), outcome

    def _record_fault(self, ds_index: int, kind: FaultKind, detail: str) -> None:
        obs.event(
            "acquisition_fault",
            cat="al",
            kind="crash" if kind is FaultKind.CRASH else "rss_lost",
            dataset_index=ds_index,
            handled=self.config.on_failure.value,
        )
        self._fault_events.append(
            FaultEvent(
                job_id=ds_index,
                attempt=self._iteration,
                kind=kind,
                lost_wall_seconds=(
                    float(self.dataset.wall[ds_index])
                    if kind is FaultKind.CRASH
                    else 0.0
                ),
                nodes=int(self.dataset.X[ds_index, 0]),
                detail=detail,
            )
        )

    def finalize(self, stop: StopReason | None = None) -> Trajectory:
        """Build the :class:`Trajectory` for the run so far.

        ``stop`` overrides the recorded stop reason — the campaign service
        uses it to close out a run its ledger terminated early
        (:attr:`StopReason.BUDGET_EXHAUSTED`).  Without an override, an
        unfinished run reports ``EXHAUSTED`` (the historical default for a
        loop that never hit another condition).
        """
        if stop is None:
            stop = self._stop if self._stop is not None else StopReason.EXHAUSTED
        else:
            self._stop = stop
        return Trajectory(
            policy_name=self.policy.name,
            n_init=self.partition.n_init,
            records=tuple(self._records),
            stop_reason=stop,
            initial_rmse_cost=self._initial_rmse[0],
            initial_rmse_mem=self._initial_rmse[1],
            fault_events=tuple(self._fault_events),
            config=self.config.describe(),
        )
