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
across policies).

Worker start: every pool in the package — this module's trajectory pool,
:class:`ShardWorkerPool` and the campaign service's worker pool — starts
its processes from :func:`worker_context`, a ``forkserver`` whose server
has imported numpy, scipy and :mod:`repro.core.service` once.  A worker
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


def _run_spec(dataset: Dataset, spec: TrajectorySpec) -> tuple[str, Trajectory]:
    """Worker body: one fully seeded AL run."""
    seed_seq = np.random.SeedSequence(
        entropy=spec.base_seed, spawn_key=(spec.traj_index,)
    )
    rng = np.random.default_rng(seed_seq)
    partition = random_partition(
        rng, len(dataset), n_init=spec.n_init, n_test=spec.n_test
    )
    config = ALConfig(
        n_restarts=spec.n_restarts,
        hyper_refit_interval=spec.hyper_refit_interval,
        max_iterations=spec.max_iterations,
        **spec.learner_kwargs,
    )
    learner = ActiveLearner(
        dataset, partition, policy=spec.policy_factory(), rng=rng, config=config
    )
    return spec.name, learner.run()


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


# --------------------------------------------------------------------------
# Persistent shard workers (parallel AMR)
#
# run_trajectories' pool fans out *independent* jobs; the sharded AMR driver
# (repro.amr.parallel) instead needs a persistent, synchronously-phased crew:
# every worker owns a contiguous slice of one shared-memory PatchStack and
# must run the same phase (exchange / sweep / wave speeds) before any worker
# may start the next.  There is deliberately no OS barrier primitive here —
# the parent IS the barrier: it broadcasts a phase command down one pipe per
# worker and collects every reply before issuing the next phase, which on
# measured hardware costs a fraction of a multiprocessing.Barrier cycle and
# keeps all failure handling in one place.
# --------------------------------------------------------------------------


class ShardWorkerError(RuntimeError):
    """A shard worker raised (or died) during a phase."""


class _ShardWorkerState:
    """Per-process state of one shard worker: shared views + programs."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.shm = {}  # name -> SharedMemory, kept attached across installs
        self.q = None
        self.sx = None
        self.sy = None
        self.program = None
        self.lo = 0
        self.hi = 0
        self.dx = None
        self.stepper = None

    def _attach(self, name: str):
        from multiprocessing import resource_tracker, shared_memory

        if name not in self.shm:
            # Attaching registers the segment with the resource tracker
            # (CPython registers unconditionally), and workers share the
            # parent's tracker process — a worker registration would
            # later fight the parent's own unlink bookkeeping.  Suppress
            # registration for the attach; only the creating parent tracks
            # and unlinks these segments.
            orig = resource_tracker.register

            def _skip(name_, rtype):  # pragma: no cover - trivial shim
                if rtype != "shared_memory":
                    orig(name_, rtype)

            resource_tracker.register = _skip
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig
            self.shm[name] = seg
        return self.shm[name]

    def install(self, payload: dict) -> None:
        import numpy as np

        seg = self._attach(payload["q_name"])
        self.q = np.ndarray(payload["q_shape"], dtype=np.float64, buffer=seg.buf)
        scratch = self._attach(payload["scratch_name"])
        cap = payload["scratch_cap"]
        self.sx = np.ndarray((cap,), dtype=np.float64, buffer=scratch.buf)
        self.sy = np.ndarray(
            (cap,), dtype=np.float64, buffer=scratch.buf, offset=cap * 8
        )
        self.program = payload["program"]
        self.lo = payload["lo"]
        self.hi = payload["hi"]
        self.dx = payload["dx"]
        self.stepper = payload["stepper"]

    def exchange(self) -> None:
        self.program.execute(self.q, lib=self.stepper.lib)
        obs.incr("amr.halo.gather_bytes", self.program.halo_gather_bytes)
        obs.incr("amr.halo.scatter_bytes", self.program.halo_scatter_bytes)
        obs.incr("amr.halo.local_bytes", self.program.local_bytes)
        obs.incr("amr.halo.messages", self.program.halo_messages)
        obs.incr("amr.shard.exchanges")

    def sweep(self, axis: int, dt: float, with_speeds: bool = False) -> None:
        if self.hi <= self.lo:  # a shard can own zero patches (W > P)
            return
        self.stepper.sweep(self.q[self.lo : self.hi], dt / self.dx, axis)
        if with_speeds:
            # Piggyback the next step's CFL wave speeds on the final sweep
            # phase: saves one pool round-trip per step, and the values are
            # identical to a dedicated phase (same post-step interiors).
            self.speeds()

    def speeds(self) -> None:
        if self.hi <= self.lo:
            return
        lo, hi = self.lo, self.hi
        self.stepper.wave_speeds(self.q[lo:hi], self.sx[lo:hi], self.sy[lo:hi])

    def handle(self, cmd: str, payload):
        if cmd == "install":
            with obs.span("shard_install", cat="amr", rank=self.rank):
                self.install(payload)
            return None
        if cmd == "exchange":
            self.exchange()
            return None
        if cmd == "sweep":
            self.sweep(*payload)
            return None
        if cmd == "speeds":
            self.speeds()
            return None
        if cmd == "obs":
            return obs.snapshot_state(reset_after=True)
        if cmd == "ping":
            return self.rank
        raise ValueError(f"unknown shard command {cmd!r}")


def _shard_worker_main(conn, rank: int, trace_enabled: bool) -> None:
    """Entry point of one shard worker (must be importable)."""
    if trace_enabled:
        obs.enable_tracing()
    state = _ShardWorkerState(rank)
    while True:
        try:
            cmd, payload = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if cmd == "close":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", state.handle(cmd, payload)))
        except Exception:  # noqa: BLE001 - report, never kill the pipe
            conn.send(("error", _traceback.format_exc()))


class ShardWorkerPool:
    """A persistent crew of shard workers, phased by the parent.

    Workers hold no hierarchy state of their own beyond what ``install``
    ships (shared-memory names, their shard program and row slice), so the
    pool outlives regrids and repartitions — only ``install`` is re-sent.
    The parent acts as the phase barrier: :meth:`broadcast` returns only
    after every worker has replied, so a subsequent phase can never observe
    a half-finished predecessor.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        ctx = worker_context()
        self._conns = []
        self._procs = []
        for rank in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, rank, obs.tracing_enabled()),
                daemon=True,
                name=f"amr-shard-{rank}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self.broadcast("ping")  # handshake: every worker imported and ready

    def __len__(self) -> int:
        return len(self._procs)

    def broadcast(self, cmd: str, payload=None) -> list:
        """Send one phase command to every worker; gather every reply."""
        for conn in self._conns:
            conn.send((cmd, payload))
        return self._gather(cmd)

    def scatter(self, cmd: str, payloads: Sequence) -> list:
        """Send per-worker payloads (e.g. shard-specific install specs)."""
        if len(payloads) != len(self._conns):
            raise ValueError("need exactly one payload per worker")
        for conn, payload in zip(self._conns, payloads):
            conn.send((cmd, payload))
        return self._gather(cmd)

    def _gather(self, cmd: str) -> list:
        replies = []
        errors = []
        for rank, conn in enumerate(self._conns):
            try:
                status, value = conn.recv()
            except (EOFError, ConnectionResetError) as exc:
                raise ShardWorkerError(
                    f"shard worker {rank} died during {cmd!r}: {exc!r}"
                ) from exc
            if status == "error":
                errors.append((rank, value))
            else:
                replies.append(value)
        if errors:
            detail = "\n".join(f"[worker {r}]\n{tb}" for r, tb in errors)
            raise ShardWorkerError(f"shard phase {cmd!r} failed:\n{detail}")
        return replies

    def drain_observability(self) -> None:
        """Merge every worker's metrics/spans home, one lane per shard."""
        for rank, payload in enumerate(self.broadcast("obs")):
            if payload is not None:
                obs.merge_state(payload, track=rank + 1)

    def close(self) -> None:
        """Shut the workers down; safe to call twice."""
        for conn, proc in zip(self._conns, self._procs):
            try:
                if proc.is_alive():
                    conn.send(("close", None))
                    if conn.poll(2.0):
                        conn.recv()
            except (OSError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = []
        self._procs = []

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if self._procs:
                self.close()
        except Exception:
            pass


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
