"""Parallel AMR: SFC-sharded PatchStack workers over shared memory.

:class:`ParallelAmrDriver` decomposes the hierarchy along the global
Morton curve (``repro.mesh.partition.partition_curve`` over the uniform
per-leaf weights of :func:`repro.amr.shard.shard_weights`) and advances it
with a persistent crew of shard workers
(:class:`repro.core.parallel.ShardWorkerPool`):

- **Shared-memory stack** — the ``(P, 4, n, n)`` :class:`PatchStack` array
  lives in a ``multiprocessing.shared_memory`` segment; workers map it and
  advance their contiguous row slice in place, so no patch state is ever
  pickled per step.  Rebuilds after a regrid ping-pong between two
  segments: the constructor copies every surviving patch out of the old
  segment into the new one, which would corrupt rows if old and new
  storage aliased.
- **Phased stepping** — each step runs exchange / sweep-x / exchange /
  sweep-y as pool-wide phases; the parent broadcasting a phase and
  collecting all replies is the barrier required by the ghost-coherence
  contract (exchange reads only interiors, writes only owned ghosts; see
  DESIGN.md).  Workers sweep through the serial driver's own
  :class:`~repro.amr.batch.StackStepper`, shipped in the install payload.
- **Global reductions stay parent-side** — workers write per-patch wave
  speeds into a shared scratch segment and the parent folds them with the
  serial :meth:`PatchStack.dt_from_speeds`; regrid decisions, conserved
  totals and physicality checks run on the parent against the same shared
  array.  Every reduction therefore matches the serial batched backend
  bit for bit (pinned by ``tests/amr/test_parallel.py``).
- **Repartition on regrid** — any refine/coarsen/rebalance invalidates the
  stack; the next access rebuilds it, recuts the curve, recompiles the
  shard programs (:func:`repro.amr.shard.build_sharded_exchange`) and
  re-installs the workers.  :meth:`ShardedExchange.covers` guards against
  reusing programs across a changed assignment even when the leaf count
  did not change.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.amr.batch import PatchStack, StackStepper
from repro.amr.driver import AmrConfig, AmrDriver
from repro.amr.shard import ShardedExchange, build_sharded_exchange, shard_weights
from repro.amr.stats import StepRecord
from repro.core.parallel import ShardWorkerPool
from repro.mesh.partition import partition_curve
from repro.solver import kernels
from repro.solver.initial_conditions import ShockBubbleProblem


def _shard_bounds(assignment: np.ndarray, rank: int) -> tuple[int, int]:
    """Row slice [lo, hi) owned by ``rank`` (assignments are contiguous)."""
    lo = int(np.searchsorted(assignment, rank, side="left"))
    hi = int(np.searchsorted(assignment, rank, side="right"))
    return lo, hi


class ParallelAmrDriver(AmrDriver):
    """AmrDriver advanced by SFC-sharded workers over shared memory.

    Parameters
    ----------
    problem, config
        As for :class:`AmrDriver`; ``config.batched`` must be True (the
        stacked storage is what gets shared).
    num_workers : int, optional
        Shard count; defaults to ``REPRO_BENCH_WORKERS`` or 2.
    use_kernels : bool, optional
        Let workers use the compiled C kernels of
        :mod:`repro.solver.kernels` (default when a compiler is
        available); workers fall back to the numpy reference path when the
        build fails or the configured Riemann solver or limiter is not one
        the kernels implement (:class:`~repro.amr.batch.StackStepper`),
        with identical results either way.

    The worker pool starts in ``__init__`` and persists across regrids;
    call :meth:`close` (or use the driver as a context manager) to release
    the processes and shared segments.
    """

    def __init__(
        self,
        problem: ShockBubbleProblem,
        config: AmrConfig,
        num_workers: int | None = None,
        use_kernels: bool = True,
    ) -> None:
        if not config.batched:
            raise ValueError("ParallelAmrDriver requires config.batched=True")
        if num_workers is None:
            num_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or 2
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.use_kernels = bool(use_kernels) and kernels.available()
        self._pool: ShardWorkerPool | None = None
        self._segments: list[shared_memory.SharedMemory] = []  # ping-pong pair
        self._scratch: shared_memory.SharedMemory | None = None
        self._retired: list[shared_memory.SharedMemory] = []
        self._active = 0  # which ping-pong segment the live stack uses
        self._capacity = 0  # patch slots per segment
        self._sx: np.ndarray | None = None
        self._sy: np.ndarray | None = None
        self._sharded: ShardedExchange | None = None
        self._speeds_fresh = False  # scratch sx/sy match the current state
        self._closed = False
        super().__init__(problem, config)
        self._stepper = StackStepper.from_config(config, self.use_kernels)
        self._pool = ShardWorkerPool(self.num_workers)
        self._ensure_installed()

    # ------------------------------------------------------- shared segments

    def _patch_bytes(self) -> int:
        n = self.config.mx + 2 * self.config.ng
        return 4 * n * n * 8

    def _ensure_capacity(self, num_patches: int) -> None:
        """Size the ping-pong segments for ``num_patches`` (with headroom)."""
        if num_patches <= self._capacity:
            return
        cap = num_patches + max(num_patches // 4, 8)
        # Old segments stay open (live patch views alias them) and are
        # released in close(); workers drop their mappings on reinstall.
        self._retired.extend(self._segments)
        if self._scratch is not None:
            self._retired.append(self._scratch)
        self._segments = [
            shared_memory.SharedMemory(create=True, size=cap * self._patch_bytes())
            for _ in range(2)
        ]
        self._scratch = shared_memory.SharedMemory(create=True, size=2 * cap * 8)
        self._sx = np.ndarray((cap,), dtype=np.float64, buffer=self._scratch.buf)
        self._sy = np.ndarray(
            (cap,), dtype=np.float64, buffer=self._scratch.buf, offset=cap * 8
        )
        self._capacity = cap

    # ------------------------------------------------------- stack & install

    def stack(self) -> PatchStack:
        """The shared-memory PatchStack, rebuilt when the hierarchy changed.

        Every rebuild flips to the other ping-pong segment: the stack
        constructor reads each patch's current view (rows of the *old*
        segment) while filling the new storage, and in-place rebuilds
        would overwrite rows that later copies still need to read.
        """
        if self._stack is not None and self._stack.covers(self.patches):
            return self._stack
        if self._closed:
            return super().stack()
        cfg = self.config
        with obs.timed("amr_plan", cat="amr"):
            self._ensure_capacity(len(self.patches))
            self._active ^= 1
            self._stack = PatchStack(
                self.forest,
                self.patches,
                cfg.mx,
                cfg.ng,
                cfg.bcs,
                buffer=self._segments[self._active].buf,
            )
        return self._stack

    def _ensure_installed(self) -> PatchStack:
        """Current stack with shard programs compiled and workers bound."""
        stack = self.stack()
        assignment = partition_curve(shard_weights(stack), self.num_workers)
        if self._sharded is None or not self._sharded.covers(stack, assignment):
            with obs.timed("amr_shard_install", cat="amr"):
                self._sharded = build_sharded_exchange(stack, assignment)
                self._install_pool(stack, assignment)
            self._speeds_fresh = False  # stack rows moved; scratch is stale
        return stack

    def _install_pool(self, stack: PatchStack, assignment: np.ndarray) -> None:
        seg = self._segments[self._active]
        payloads = []
        for rank in range(self.num_workers):
            lo, hi = _shard_bounds(assignment, rank)
            payloads.append(
                {
                    "q_name": seg.name,
                    "q_shape": stack.q.shape,
                    "scratch_name": self._scratch.name,
                    "scratch_cap": self._capacity,
                    "program": self._sharded.programs[rank],
                    "lo": lo,
                    "hi": hi,
                    "dx": np.ascontiguousarray(stack.dx[lo:hi]),
                    "stepper": self._stepper,
                }
            )
        self._pool.scatter("install", payloads)

    def _phase(self, cmd: str, payload=None) -> None:
        with obs.timed("amr_parallel_stall", cat="amr"):
            self._pool.broadcast(cmd, payload)

    # ------------------------------------------------------------- stepping

    def compute_dt(self, dt_max: float = np.inf) -> float:
        """Global CFL step: shard-local speed maxima, serial final fold."""
        if self._closed:
            return super().compute_dt(dt_max)
        cfg = self.config
        with obs.timed("amr_dt", cat="amr"):
            stack = self._ensure_installed()
            if not self._speeds_fresh:
                self._phase("speeds")
                self._speeds_fresh = True
            P = len(stack)
            return stack.dt_from_speeds(
                self._sx[:P], self._sy[:P], cfg.cfl, float(dt_max)
            )

    def step(self, dt: float, regridded: bool = False) -> None:
        """Advance by ``dt``: four pool-wide phases, barriers in between."""
        if self._closed:
            super().step(dt, regridded)
            return
        cfg = self.config
        self._ensure_installed()
        with obs.timed("amr_exchange", cat="amr"):
            self._phase("exchange")
        with obs.timed("amr_sweep", cat="amr"):
            self._phase("sweep", (0, dt))
        with obs.timed("amr_exchange", cat="amr"):
            self._phase("exchange")
        with obs.timed("amr_sweep", cat="amr"):
            # The final sweep also writes next step's wave speeds into the
            # shared scratch, saving compute_dt a dedicated pool phase.
            self._phase("sweep", (1, dt, True))
        self._speeds_fresh = True
        self.t += dt
        cells = len(self.patches) * cfg.mx * cfg.mx
        self.stats.record_step(
            StepRecord(
                t=self.t,
                dt=dt,
                num_patches=len(self.patches),
                cells_advanced=cells,
                bytes_allocated=self.total_bytes(),
                regridded=regridded,
            )
        )

    # ------------------------------------------------------------- teardown

    @property
    def sharded(self) -> ShardedExchange | None:
        """The live shard programs (halo accounting for calibration)."""
        return self._sharded

    def drain_observability(self) -> None:
        """Merge worker-side spans/counters home, one lane per shard."""
        if self._pool is not None:
            self._pool.drain_observability()

    def close(self) -> None:
        """Stop the workers and release every shared segment; idempotent.

        The driver stays usable afterwards — the next :meth:`stack` access
        falls back to private (serial batched) storage.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            try:
                self._pool.drain_observability()
            except Exception:  # pragma: no cover - workers already gone
                pass
            self._pool.close()
            self._pool = None
        # Detach every live view from the segments before closing them:
        # SharedMemory.close() refuses while exported buffers exist.
        for p in self.patches.values():
            if p.q.base is not None:
                p.q = np.array(p.q, copy=True)
        self._stack = None
        self._sharded = None
        self._sx = self._sy = None
        for seg in (*self._segments, self._scratch, *self._retired):
            if seg is None:
                continue
            try:
                seg.close()
                seg.unlink()
            except Exception:  # pragma: no cover - double-release safety
                pass
        self._segments = []
        self._scratch = None
        self._retired = []

    def __enter__(self) -> "ParallelAmrDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass
