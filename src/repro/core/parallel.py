"""Parallel execution of independent AL trajectories.

The figure benchmarks and the paper's cross-validation run many AL
trajectories that share nothing but the (read-only) dataset — one per
(policy, partition seed) pair.  :func:`run_trajectories` fans a list of
:class:`TrajectorySpec` out over a ``concurrent.futures`` process pool.

Determinism: every spec derives its own ``Generator`` from
``SeedSequence(entropy=base_seed, spawn_key=(traj_index,))`` — the same
stream construction :mod:`repro.core.batch` has always used — so results
are identical serial or parallel, at any worker count, and specs with the
same ``(base_seed, traj_index)`` share a partition (paired comparisons
across policies).  :func:`build_learner` is the one cold start of a
trajectory and of a campaign-service campaign, so a spec selects what the
same campaign selects in the service.

Worker start: both pools in the package — this module's trajectory pool
and the campaign service's worker pool — start their processes from
:func:`worker_context`, a ``forkserver`` whose server has imported
numpy, scipy and :mod:`repro.core.service` once.  A worker
is a fork of that server and reaches its first message in about
10–20 ms, where a ``spawn`` interpreter spends 0.5–1 s importing the same
modules.  The server starts on the first ``Process.start()``, which
waits for it to finish preloading (0.6–1.2 s, paid once per process).
It fixes two things when it starts: the environment (so BLAS thread
counts and every other variable are the parent's at that moment, as a
spawned worker's would be) and the code of the preloaded modules.  Each
worker still takes its working directory and ``sys.path`` from the
parent at its own start, imports the parent's ``__main__`` (so scripts
keep their ``if __name__ == "__main__":`` guard), and runs no code the
parent ran — workers start with an empty observability registry and
tracing off, like spawned ones.  Where
``forkserver`` is unavailable the context falls back to ``spawn``.
Everything a worker needs — a module-level worker function and picklable
policy factories (classes or :func:`functools.partial`, not lambdas) —
crosses the process boundary by pickling.  The shared read-only dataset
is shipped **once per worker** through the pool initializer
(:func:`_pool_init`) instead of riding along with every submitted spec,
so submitting ``S`` specs to ``W`` workers pickles the dataset ``W``
times, not ``S`` times.

Exit: every live worker holds the server's "alive" pipe, and the server
exits once all holders have closed it.  :func:`worker_context` registers
a stop of the server that runs at interpreter exit *after*
:mod:`multiprocessing` has terminated and joined its children; stopping
it any earlier would block on the workers still holding the pipe.  So a
process that used a pool leaves no server behind when it exits.

Failure isolation: exceptions are caught *inside* the worker and returned
as :class:`TrajectoryFailure` values, so one trajectory that raises (or a
worker process that dies outright) never hangs the pool or discards the
other trajectories' results — see ``run_trajectories(on_error=...)``.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.config import ALConfig
from repro.core.loop import ActiveLearner
from repro.core.partitions import random_partition
from repro.core.trajectory import Trajectory
from repro.data.dataset import Dataset


@dataclass(frozen=True)
class TrajectorySpec:
    """One independent AL run: a policy factory plus its seed-tree position.

    Attributes
    ----------
    name : str
        Display name the result is reported under.
    policy_factory : callable
        Zero-argument factory for a fresh policy instance.  Must be
        picklable for parallel execution — a policy class or a
        ``functools.partial``, not a lambda.
    base_seed, traj_index : int
        Position in the seed tree; specs sharing both get the same
        partition and RNG stream.
    n_init, n_test : int
        Partition sizes.
    max_iterations, hyper_refit_interval, n_restarts :
        The run's :class:`~repro.core.config.ALConfig` fields.
    learner_kwargs : dict
        Any further :class:`~repro.core.config.ALConfig` fields (e.g.
        ``stopping_rule``, ``cache_candidates``).
    """

    name: str
    policy_factory: Callable[[], object]
    base_seed: int = 0
    traj_index: int = 0
    n_init: int = 50
    n_test: int = 200
    max_iterations: int | None = None
    hyper_refit_interval: int = 1
    n_restarts: int = 2
    learner_kwargs: dict = field(default_factory=dict)

    @property
    def config(self) -> ALConfig:
        """The run's :class:`~repro.core.config.ALConfig`."""
        return ALConfig(
            n_restarts=self.n_restarts,
            hyper_refit_interval=self.hyper_refit_interval,
            max_iterations=self.max_iterations,
            **self.learner_kwargs,
        )


@dataclass(frozen=True)
class TrajectoryFailure:
    """A trajectory that died instead of returning a :class:`Trajectory`.

    Returned in place of the trajectory when ``on_error="return"``, so one
    bad spec (a policy that raises, a worker that crashes) costs exactly
    one result — never the whole batch.

    Attributes
    ----------
    name : str
        The failed spec's display name.
    error : str
        ``repr`` of the exception (or a pool-level diagnosis).
    traceback : str
        Formatted traceback from the worker, for postmortems.
    """

    name: str
    error: str
    traceback: str = ""


def build_learner(spec, dataset: Dataset) -> ActiveLearner:
    """Cold-start a learner at its spec's seed-tree position.

    ``spec`` is a :class:`TrajectorySpec` or a
    :class:`~repro.core.service.CampaignSpec`: both carry
    ``policy_factory``, ``base_seed``, ``traj_index``, ``n_init``,
    ``n_test`` and ``config``.  ``SeedSequence(entropy=base_seed,
    spawn_key=(traj_index,))`` seeds the partition and the learner's RNG
    stream.  Multi-fidelity configs price their fidelity surfaces
    deterministically from the config (:meth:`ALConfig.priced`), so
    every cold start of the same spec sees identical surfaces — and the
    config's fingerprint covers the fidelity axis, so a checkpoint
    written under one schedule refuses to resume under another.
    """
    seed_seq = np.random.SeedSequence(
        entropy=spec.base_seed, spawn_key=(spec.traj_index,)
    )
    rng = np.random.default_rng(seed_seq)
    partition = random_partition(
        rng, len(dataset), n_init=spec.n_init, n_test=spec.n_test
    )
    config = spec.config
    return ActiveLearner(
        config.priced(dataset),
        partition,
        policy=spec.policy_factory(),
        rng=rng,
        config=config,
    )


def _run_spec(dataset: Dataset, spec: TrajectorySpec) -> tuple[str, Trajectory]:
    """Worker body: one fully seeded AL run."""
    return spec.name, build_learner(spec, dataset).run()


def _run_spec_guarded(
    dataset: Dataset, spec: TrajectorySpec
) -> tuple[str, Trajectory | TrajectoryFailure]:
    """Worker body that converts exceptions into data.

    Raising across the process boundary would poison ``pool.map`` — every
    later result is lost and, for unpicklable exceptions, the pool can
    deadlock.  Catching *inside* the worker makes a failed trajectory an
    ordinary return value.
    """
    try:
        return _run_spec(dataset, spec)
    except Exception as exc:  # noqa: BLE001 - the boundary must be total
        return spec.name, TrajectoryFailure(
            name=spec.name, error=repr(exc), traceback=_traceback.format_exc()
        )


#: Dataset installed by :func:`_pool_init` in each worker process.
_POOL_DATASET: Dataset | None = None


def _pool_init(dataset: Dataset, trace_enabled: bool = False) -> None:
    """Pool initializer: receive the shared dataset once per worker.

    ``trace_enabled`` propagates the parent's tracing switch, so spans
    recorded inside workers ship home with each result (workers start
    with tracing off regardless of the parent).
    """
    global _POOL_DATASET
    _POOL_DATASET = dataset
    if trace_enabled:
        obs.enable_tracing()


def _run_spec_pooled(
    spec: TrajectorySpec,
) -> tuple[str, Trajectory | TrajectoryFailure, dict]:
    """Worker entry point reading the dataset shipped by :func:`_pool_init`.

    Returns the guarded result plus this task's observability payload
    (:func:`repro.obs.snapshot_state` with ``reset_after``, so a worker
    running several specs ships each spec's metrics and spans exactly
    once).  The parent merges payloads in spec order.
    """
    assert _POOL_DATASET is not None, "pool initializer did not run"
    name, result = _run_spec_guarded(_POOL_DATASET, spec)
    return name, result, obs.snapshot_state(reset_after=True)


def default_workers(n_jobs: int) -> int:
    """Worker count capped by the job count and the machine's cores."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


@functools.cache
def worker_context() -> multiprocessing.context.BaseContext:
    """The start context of every worker pool, created on first use.

    A ``forkserver`` whose server preloads :mod:`repro.core.service`
    (which imports this module and the learner stack), or ``spawn`` where
    the platform has no forkserver.  The module docstring says what the
    server fixes when it starts and how it is stopped at exit.  The
    stdlib keeps one forkserver per process, so the preload applies to
    any other ``forkserver`` context the process uses, and is ignored if
    that server was already running.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    from multiprocessing import forkserver, util

    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["repro.core.service"])
    # A negative priority runs after multiprocessing's exit handler has
    # terminated and joined the workers, the other holders of the
    # server's alive pipe; any earlier, the stop would wait on them.
    util.Finalize(None, forkserver._forkserver._stop, exitpriority=-1)
    return ctx


def run_trajectories(
    dataset: Dataset,
    specs: Iterable[TrajectorySpec],
    max_workers: int | None = None,
    on_error: str = "raise",
) -> list[tuple[str, Trajectory | TrajectoryFailure]]:
    """Run every spec; return ``(name, trajectory)`` pairs in spec order.

    ``max_workers=None`` picks :func:`default_workers`; ``1`` runs
    serially in-process (no pool, easiest to debug/profile).  Results are
    independent of the worker count by construction.

    Failure handling (``on_error``):

    - ``"raise"`` (default) — after *every* spec has finished, raise a
      ``RuntimeError`` naming each failed trajectory with its worker-side
      traceback.  Unlike a raw ``pool.map``, completed results are
      computed before the raise and no worker is left hanging.
    - ``"return"`` — substitute a :class:`TrajectoryFailure` for each
      failed trajectory and return the full, spec-ordered list.  Callers
      filter with ``isinstance(t, Trajectory)``.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'")
    spec_list: Sequence[TrajectorySpec] = list(specs)
    if max_workers is None:
        max_workers = default_workers(len(spec_list))
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")

    results: list[tuple[str, Trajectory | TrajectoryFailure]]
    if max_workers == 1 or len(spec_list) <= 1:
        results = [_run_spec_guarded(dataset, s) for s in spec_list]
    else:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=worker_context(),
            initializer=_pool_init,
            initargs=(dataset, obs.tracing_enabled()),
        ) as pool:
            futures = [pool.submit(_run_spec_pooled, s) for s in spec_list]
            results = []
            # Fold worker metrics/spans into this process as each result
            # drains, in spec order — metric merging is order-independent
            # (sums; gauges keep the max) and spans land on lane
            # ``spec_index + 1``, so the merged state is identical for any
            # worker count or completion order.  Merging *inside* the drain
            # loop (rather than after it) means a cancellation mid-drain —
            # KeyboardInterrupt while blocked on a later future — keeps the
            # observability state every finished trajectory already
            # shipped, matching how worker/slice failures ship partial
            # state everywhere else.
            for i, (spec, fut) in enumerate(zip(spec_list, futures)):
                try:
                    name, result, payload = fut.result()
                    results.append((name, result))
                except Exception as exc:  # noqa: BLE001
                    # The worker process itself died (BrokenProcessPool,
                    # unpicklable result, ...): report, don't hang.  Its
                    # observability payload died with it.
                    results.append(
                        (
                            spec.name,
                            TrajectoryFailure(name=spec.name, error=repr(exc)),
                        )
                    )
                    payload = None
                if payload is not None:
                    obs.merge_state(payload, track=i + 1)

    failures = [t for _, t in results if isinstance(t, TrajectoryFailure)]
    if failures and on_error == "raise":
        detail = "\n".join(
            f"- {f.name}: {f.error}\n{f.traceback}".rstrip() for f in failures
        )
        raise RuntimeError(
            f"{len(failures)}/{len(spec_list)} trajectories failed:\n{detail}"
        )
    return results
