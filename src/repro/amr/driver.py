"""The AMR simulation driver: regrid / exchange / advance loop.

Mirrors ForestClaw's non-subcycled mode: a single global CFL time step
advances every patch, ghost layers are exchanged between dimensional
sweeps, and the hierarchy is regridded every ``regrid_interval`` steps.
Solution transfer on refinement/coarsening uses the conservative operators
of :mod:`repro.amr.transfer`; the 2:1 constraint is re-established after
every regrid (and every initial-build round) by ripple refinement from a
worklist of the leaves the regrid created
(:func:`repro.mesh.balance.balance_from_seeds`).

Two stepping backends are provided (``AmrConfig.batched``):

- **batched** (default): the hierarchy's state lives in one shape-stacked
  ``(P, 4, n, n)`` array (:class:`repro.amr.batch.PatchStack`), sweeps and
  CFL wave speeds run once over the whole stack through
  :class:`repro.amr.batch.StackStepper`, and ghost exchange executes a
  program compiled at regrid time: the flat-index
  :class:`repro.amr.shard.ShardProgram` run by the compiled kernels of
  :mod:`repro.solver.kernels`, or the numpy
  :class:`~repro.amr.batch.ExchangePlan` when no C compiler is available.
  The physicality / conservation reductions are vectorized.
- **per-patch**: the original patch-by-patch loop, kept as the bit-identical
  reference implementation.

Both backends produce bit-for-bit identical states and statistics; the
phases of either path are timed through :mod:`repro.obs` (``amr_plan``,
``amr_exchange``, ``amr_sweep``, ``amr_dt``, ``amr_regrid``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.amr.batch import PatchStack, StackStepper
from repro.amr.ghost import exchange_ghosts
from repro.amr.patch import Patch
from repro.amr.shard import ShardProgram, build_sharded_exchange
from repro.amr.stats import RunStats, StepRecord
from repro.amr.tagging import tag_for_refinement, tag_stack
from repro.amr.transfer import prolong_child, restrict_patch
from repro.mesh.balance import balance_from_seeds
from repro.mesh.forest import BrickTopology, Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent
from repro.solver.fv import sweep_x, sweep_y
from repro.solver.initial_conditions import ShockBubbleProblem
from repro.solver.state import GAMMA_AIR, check_physical, max_wave_speed


@dataclass(frozen=True, slots=True)
class AmrConfig:
    """Numerical configuration of an AMR run.

    The three grid-shape fields correspond to features of the paper's input
    space: ``mx`` is the box size and ``max_level`` the maximum refinement
    level (Table I); ``min_level`` sets the coarsest allowed mesh.
    ``batched`` selects the shape-stacked stepping backend (bit-identical to
    the per-patch reference, just faster; it runs the compiled kernels
    when a C compiler is available).
    """

    mx: int = 8
    min_level: int = 1
    max_level: int = 3
    ng: int = 2
    cfl: float = 0.4
    riemann: str = "hllc"
    limiter: str = "mc"
    refine_threshold: float = 0.05
    coarsen_threshold: float | None = None
    regrid_interval: int = 4
    gamma: float = GAMMA_AIR
    bcs: tuple = ("outflow", "outflow", "reflect", "reflect")
    batched: bool = True

    def __post_init__(self) -> None:
        if self.min_level < 0 or self.max_level < self.min_level:
            raise ValueError("need 0 <= min_level <= max_level")
        if self.mx % 2:
            raise ValueError("mx must be even (2:1 transfer operators)")
        if self.ng % 2:
            raise ValueError("ng must be even (coarse-fine ghost exchange)")
        if self.regrid_interval < 1:
            raise ValueError("regrid_interval must be >= 1")


class AmrDriver:
    """Adaptive simulation of a :class:`ShockBubbleProblem` on a brick.

    Parameters
    ----------
    problem : ShockBubbleProblem
        Physical setup; its ``width x height`` must be integral so it maps
        onto a brick of unit-square trees.
    config : AmrConfig
    """

    def __init__(self, problem: ShockBubbleProblem, config: AmrConfig) -> None:
        w, h = problem.width, problem.height
        ni, nj = int(round(w)), int(round(h))
        if abs(w - ni) > 1e-12 or abs(h - nj) > 1e-12:
            raise ValueError("domain extents must be integers (brick of unit trees)")
        self.problem = problem
        self.config = config
        self.forest = Forest(BrickTopology(ni, nj), initial_level=config.min_level)
        self.patches: dict[tuple[int, Quadrant], Patch] = {}
        self.t = 0.0
        self.stats = RunStats()
        self._stack: PatchStack | None = None
        # The compiled exchange program of the current stack; None runs
        # the stack's numpy ExchangePlan instead.
        self._program: ShardProgram | None = None
        self._stepper = StackStepper.from_config(config)
        # Leaves created since the forest was last balanced (children of
        # refines, coarsened parents).  Only such leaves can take part in a
        # new 2:1 violation, so they seed the worklist rebalance.
        self._balance_seeds: list[tuple[int, Quadrant]] = []
        self._build_initial_hierarchy()

    # ------------------------------------------------------------------ setup

    def _tree_origin(self, tree: int) -> tuple[float, float]:
        ci, cj = self.forest.topology.tree_coords(tree)
        return float(ci), float(cj)

    def _new_patch(self, tree: int, quad: Quadrant) -> Patch:
        return Patch(tree, quad, self.config.mx, self.config.ng, self._tree_origin(tree))

    def _fill_initial(self, patch: Patch) -> None:
        patch.fill_from(self.problem.evaluate)

    def _build_initial_hierarchy(self) -> None:
        """Iteratively refine from the initial condition, re-evaluating it.

        Standard AMR start-up: build the min-level mesh, then repeat
        (tag -> refine -> balance -> re-fill) until max_level can be
        reached, so the initial shock and bubble interface are resolved at
        the finest level from step one.
        """
        cfg = self.config
        self.patches = {
            (t, q): self._new_patch(t, q) for t, q in self.forest.iter_leaves()
        }
        self._invalidate_stack()
        for p in self.patches.values():
            self._fill_initial(p)
        for _ in range(cfg.max_level - cfg.min_level):
            tagged = [
                key
                for key, p in self.patches.items()
                if p.level < cfg.max_level
                and tag_for_refinement(
                    p.interior, cfg.refine_threshold, cfg.coarsen_threshold
                )
                > 0
            ]
            if not tagged:
                break
            for tree, quad in tagged:
                self._refine_patch(tree, quad, from_initial=True)
            self._rebalance(from_initial=True)
        self._normalize_leaf_order()

    def _normalize_leaf_order(self) -> None:
        """Re-key ``self.patches`` into global (tree-major Morton) order.

        p4est stores leaves along the space-filling curve at all times; we
        restore that invariant after every burst of refine/coarsen calls
        (which append new patches at the dict tail).  Keeping dict order ==
        curve order makes the stacked storage's row order a true Morton
        sequence, and every order-sensitive scalar accumulation
        (``conserved_totals``) runs in one canonical order for the
        per-patch and batched backends alike.
        """
        self.patches = {
            key: self.patches[key] for key in self.forest.iter_leaves()
        }

    # --------------------------------------------------------- stacked storage

    def _invalidate_stack(self) -> None:
        """Drop the stacked storage and exchange plan (hierarchy changed)."""
        self._stack = None

    def stack(self) -> PatchStack:
        """The current :class:`PatchStack`, (re)built if the hierarchy changed.

        A rebuild also compiles the stack's exchange plan into a
        :class:`~repro.amr.shard.ShardProgram` when the compiled kernels
        are available to run it.
        """
        if self._stack is None or not self._stack.covers(self.patches):
            cfg = self.config
            with obs.timed("amr_plan", cat="amr"):
                stack = PatchStack(self.forest, self.patches, cfg.mx, cfg.ng, cfg.bcs)
                self._program = None
                if self._stepper.lib is not None:
                    self._program = build_sharded_exchange(stack)
                self._stack = stack
        return self._stack

    # ------------------------------------------------------------- regridding

    def _refine_patch(self, tree: int, quad: Quadrant, from_initial: bool) -> None:
        parent = self.patches.pop((tree, quad))
        self.forest.trees[tree].refine(quad)
        for child in quadrant_children(quad):
            cp = self._new_patch(tree, child)
            if from_initial:
                self._fill_initial(cp)
            else:
                cp.interior[...] = prolong_child(parent.interior, child.child_id)
            self.patches[(tree, child)] = cp
            self._balance_seeds.append((tree, child))
        self.stats.num_refinements += 1
        self._invalidate_stack()

    def _coarsen_family(self, tree: int, quad: Quadrant) -> None:
        """Coarsen the complete family containing leaf ``quad``."""
        parent_quad = quadrant_parent(quad)
        children = quadrant_children(parent_quad)
        self.forest.trees[tree].coarsen(children[0])
        parent = self._new_patch(tree, parent_quad)
        mx = self.config.mx
        h = mx // 2
        offsets = {0: (0, 0), 1: (h, 0), 2: (0, h), 3: (h, h)}
        for child in children:
            cp = self.patches.pop((tree, child))
            ox, oy = offsets[child.child_id]
            parent.interior[:, ox : ox + h, oy : oy + h] = restrict_patch(cp.interior)
        self.patches[(tree, parent_quad)] = parent
        self._balance_seeds.append((tree, parent_quad))
        self.stats.num_coarsenings += 1
        self._invalidate_stack()

    def _rebalance(self, from_initial: bool = False) -> None:
        """Ripple-refine until 2:1 balanced, transferring the solution.

        A worklist seeded by the leaves created since the forest was last
        balanced; it reaches the same forest as the full scan of
        :func:`repro.mesh.balance.balance_forest`.  Only the leaf set
        matters downstream: each refine's children are filled from the
        refined leaf alone (or from the initial condition), so the order of
        refines cannot change the solution.
        """
        balance_from_seeds(
            self.forest,
            self._balance_seeds,
            lambda tree, quad: self._refine_patch(tree, quad, from_initial),
        )
        self._balance_seeds.clear()

    def regrid(self) -> None:
        """One full regrid pass: tag, refine, coarsen, rebalance."""
        cfg = self.config
        with obs.timed("amr_regrid", cat="amr"):
            if cfg.batched:
                # One vectorized pass over the stacked interiors.  stack.keys
                # preserves the patches-dict iteration order, and the batched
                # indicator is bit-identical to the scalar one, so the regrid
                # decisions below are unchanged.
                stack = self.stack()
                tags = dict(
                    zip(
                        stack.keys,
                        tag_stack(
                            stack.interior, cfg.refine_threshold, cfg.coarsen_threshold
                        ),
                    )
                )
            else:
                tags = {
                    key: tag_for_refinement(
                        p.interior, cfg.refine_threshold, cfg.coarsen_threshold
                    )
                    for key, p in self.patches.items()
                }
            for (tree, quad), tag in tags.items():
                if tag > 0 and quad.level < cfg.max_level and (tree, quad) in self.patches:
                    self._refine_patch(tree, quad, from_initial=False)

            # Coarsen complete families whose members all voted -1 and still exist.
            by_parent: dict[tuple[int, Quadrant], int] = {}
            for (tree, quad), tag in tags.items():
                if quad.level <= cfg.min_level or (tree, quad) not in self.patches:
                    continue
                if tag < 0:
                    pk = (tree, quadrant_parent(quad))
                    by_parent[pk] = by_parent.get(pk, 0) + 1
            for (tree, parent_quad), votes in by_parent.items():
                children = quadrant_children(parent_quad)
                if votes == 4 and all((tree, c) in self.patches for c in children):
                    self._coarsen_family(tree, children[0])

            self._rebalance()
            self._normalize_leaf_order()
        self.stats.num_regrids += 1

    # ---------------------------------------------------------------- stepping

    def _exchange(self) -> None:
        exchange_ghosts(self.forest, self.patches, self.config.bcs)

    def _exchange_stack(self, stack: PatchStack) -> None:
        if self._program is not None:
            self._program.execute(stack.q)
        else:
            stack.exchange()

    def compute_dt(self, dt_max: float = np.inf) -> float:
        """Global CFL step: finest-level constraint dominates."""
        cfg = self.config
        with obs.timed("amr_dt", cat="amr"):
            if cfg.batched:
                stack = self.stack()
                sx = np.empty(len(stack))
                sy = np.empty(len(stack))
                self._stepper.wave_speeds(stack.q, sx, sy)
                return stack.dt_from_speeds(sx, sy, cfg.cfl, float(dt_max))
            dt = float(dt_max)
            for p in self.patches.values():
                smax = max_wave_speed(p.interior, cfg.gamma)
                if smax > 0:
                    dt = min(dt, cfg.cfl * p.dx / smax)
            return dt

    def total_bytes(self) -> int:
        if self.config.batched:
            return self.stack().total_bytes()
        return sum(p.nbytes for p in self.patches.values())

    def step(self, dt: float, regridded: bool = False) -> None:
        """Advance every patch by ``dt`` with Godunov-split sweeps."""
        cfg = self.config
        kw = dict(riemann=cfg.riemann, limiter=cfg.limiter, gamma=cfg.gamma)
        if cfg.batched:
            stack = self.stack()
            dt_dx = dt / stack.dx
            for axis in (0, 1):
                with obs.timed("amr_exchange", cat="amr"):
                    self._exchange_stack(stack)
                with obs.timed("amr_sweep", cat="amr"):
                    self._stepper.sweep(stack.q, dt_dx, axis)
        else:
            with obs.timed("amr_exchange", cat="amr"):
                self._exchange()
            with obs.timed("amr_sweep", cat="amr"):
                for p in self.patches.values():
                    sweep_x(p.q, dt / p.dx, cfg.ng, **kw)
            with obs.timed("amr_exchange", cat="amr"):
                self._exchange()
            with obs.timed("amr_sweep", cat="amr"):
                for p in self.patches.values():
                    sweep_y(p.q, dt / p.dx, cfg.ng, **kw)
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

    def _all_physical(self) -> bool:
        cfg = self.config
        if cfg.batched:
            return self.stack().check_physical(cfg.gamma)
        return all(check_physical(p.interior, cfg.gamma) for p in self.patches.values())

    def run(
        self,
        t_end: float,
        max_steps: int = 10_000,
        callback: Callable[["AmrDriver"], None] | None = None,
    ) -> RunStats:
        """Advance to ``t_end``, regridding every ``regrid_interval`` steps.

        Raises
        ------
        RuntimeError
            If the solution becomes unphysical (NaN / negative pressure) or
            ``max_steps`` is exhausted before ``t_end``.
        """
        cfg = self.config
        steps_since_regrid = 0
        with obs.span(
            "amr_run", cat="amr", t_end=t_end, batched=cfg.batched
        ) as run_span:
            for k in range(max_steps):
                if self.t >= t_end - 1e-14:
                    run_span.annotate(steps=k, num_patches=len(self.patches))
                    return self.stats
                with obs.span("amr_step", cat="amr", step=k):
                    regridded = False
                    if steps_since_regrid >= cfg.regrid_interval:
                        self.regrid()
                        steps_since_regrid = 0
                        regridded = True
                    dt = self.compute_dt(dt_max=t_end - self.t)
                    if not np.isfinite(dt) or dt <= 0:
                        raise RuntimeError(f"invalid time step dt={dt} at t={self.t}")
                    self.step(dt, regridded=regridded)
                    steps_since_regrid += 1
                    if callback is not None:
                        callback(self)
                    if not self._all_physical():
                        raise RuntimeError(f"unphysical state at t={self.t}")
        raise RuntimeError(f"max_steps={max_steps} exhausted at t={self.t} < {t_end}")

    # ---------------------------------------------------------------- output

    def sample_uniform(self, nx: int, ny: int, field: int = 0) -> np.ndarray:
        """Sample one field onto a uniform grid (nearest-cell, for plots).

        Vectorized over patches: the leaves partition the domain into exact
        dyadic boxes, so each patch covers a contiguous run of the sorted
        sample coordinates (found by ``searchsorted``, matching
        :meth:`repro.mesh.forest.Forest.locate`'s half-open convention) and
        fills its block of the output with one fancy-indexed gather.
        """
        w, h = self.forest.domain_extent()
        out = np.empty((nx, ny), dtype=np.float64)
        xs = (np.arange(nx) + 0.5) * (w / nx)
        ys = (np.arange(ny) + 0.5) * (h / ny)
        for p in self.patches.values():
            ext = p.quad.size
            i0, i1 = np.searchsorted(xs, (p.x0, p.x0 + ext))
            j0, j1 = np.searchsorted(ys, (p.y0, p.y0 + ext))
            if i0 == i1 or j0 == j1:
                continue
            ci = np.minimum(
                ((xs[i0:i1] - p.x0) / p.dx).astype(np.int64), p.mx - 1
            )
            cj = np.minimum(
                ((ys[j0:j1] - p.y0) / p.dx).astype(np.int64), p.mx - 1
            )
            out[i0:i1, j0:j1] = p.interior[field][np.ix_(ci, cj)]
        return out

    def conserved_totals(self) -> tuple[float, float]:
        """(total mass, total energy) integrated over the hierarchy."""
        if self.config.batched:
            return self.stack().conserved_totals()
        mass = 0.0
        energy = 0.0
        for p in self.patches.values():
            a = p.cell_area
            mass += float(p.interior[0].sum()) * a
            energy += float(p.interior[3].sum()) * a
        return mass, energy
