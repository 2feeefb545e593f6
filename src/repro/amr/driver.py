"""The AMR simulation driver: regrid / exchange / advance loop.

Mirrors ForestClaw's non-subcycled mode: a single global CFL time step
advances every patch, ghost layers are exchanged between dimensional
sweeps, and the hierarchy is regridded every ``regrid_interval`` steps.
Solution transfer on refinement/coarsening uses the conservative operators
of :mod:`repro.amr.transfer`.  A regrid refines first, and the 2:1
constraint is re-established by ripple refinement from a worklist of the
children those refines created
(:func:`repro.mesh.balance.balance_from_seeds`), as after every
initial-build round.  It then coarsens only families whose coarsening
keeps the forest balanced
(:func:`repro.mesh.balance.coarsening_keeps_balance`), so no family is
coarsened and refined back in one regrid, and a regrid that changes no
leaf keeps the stacked storage and its exchange plan.

Two stepping backends are provided (``AmrConfig.batched``):

- **batched** (default): the hierarchy's state lives in one shape-stacked
  ``(P, 4, n, n)`` array (:class:`repro.amr.batch.PatchStack`), whose
  sweeps, CFL wave speeds and physicality check run once over the whole
  stack, and ghost exchange executes the flat-index
  :class:`repro.amr.batch.ExchangePlan` compiled once per hierarchy
  change.  They run through the compiled kernels of
  :mod:`repro.solver.kernels` when a C compiler is available, the sweep,
  wave speeds and check only for the default scheme (HLLC with MC, decided
  once per stack), and through numpy otherwise.  The exchange before each
  sweep fills only the ghost strips that sweep reads, and the
  conservation reductions are vectorized.
- **per-patch**: the original patch-by-patch loop, kept as the bit-identical
  reference implementation.

Both backends share the initial build, which tags each round's patches
in one vectorized pass and fills each round's new leaves with one
evaluation of the initial condition.  Both produce bit-for-bit identical
states and statistics; the phases of either path are timed through
:mod:`repro.obs` (``amr_init``, ``amr_plan``, ``amr_exchange``,
``amr_sweep``, ``amr_dt``, ``amr_regrid``), and a traced
run's ``amr_run`` span says whether the run stepped through the compiled
kernels (``compiled``) and closes with the run's regrid, refinement and
coarsening counts from :class:`~repro.amr.stats.RunStats`, its patch
sweeps (one patch in one dimensional sweep), how many of them the
compiled sweep skipped as quiescent, and the cells the sweeps updated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.amr.batch import PatchStack
from repro.amr.ghost import exchange_ghosts
from repro.amr.patch import Patch
from repro.amr.stats import RunStats, StepRecord
from repro.amr.tagging import tag_for_refinement, tag_stack
from repro.amr.transfer import prolong_child, restrict_patch
from repro.mesh.balance import balance_from_seeds, coarsening_keeps_balance
from repro.mesh.forest import BrickTopology, Forest
from repro.mesh.quadrant import Quadrant, quadrant_children, quadrant_parent
from repro.solver.fv import _resolve_limiter, _resolve_solver, sweep_x, sweep_y
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
    when a C compiler is available, all but the exchange only for the
    default ``"hllc"`` solver with the ``"mc"`` limiter).

    A value that would silently change a run is rejected: a ``cfl`` that is
    not finite and positive (``min(dt, nan)`` would drop the CFL limit), a
    NaN threshold (no leaf would ever refine), and a solver or limiter name
    that :data:`~repro.solver.riemann.RIEMANN_SOLVERS` or
    :data:`~repro.solver.limiters.LIMITERS` (or ``"none"``) does not hold.
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
        if not (math.isfinite(self.cfl) and self.cfl > 0):
            raise ValueError(f"cfl must be finite and positive, got {self.cfl!r}")
        for threshold in (self.refine_threshold, self.coarsen_threshold):
            if threshold is not None and math.isnan(threshold):
                raise ValueError("refinement thresholds must not be NaN")
        _resolve_solver(self.riemann)
        _resolve_limiter(self.limiter)


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
        #: Patch sweeps run, those the compiled sweep skipped because each
        #: line of their stencil held one state, and the cells the sweeps
        #: updated (observability only: no result depends on them, and the
        #: numpy paths skip none and update every cell).
        self.patch_sweeps = 0
        self.quiescent_sweeps = 0
        self.swept_cells = 0
        self._stack: PatchStack | None = None
        # Children of refines since the forest was last balanced.  Only such
        # leaves can take part in a new 2:1 violation (a coarsening is made
        # only where it keeps the balance), so they seed the worklist
        # rebalance.
        self._balance_seeds: list[tuple[int, Quadrant]] = []
        with obs.timed("amr_init", cat="amr"):
            self._build_initial_hierarchy()

    # ------------------------------------------------------------------ setup

    def _tree_origin(self, tree: int) -> tuple[float, float]:
        ci, cj = self.forest.topology.tree_coords(tree)
        return float(ci), float(cj)

    def _new_patch(self, tree: int, quad: Quadrant) -> Patch:
        return Patch(tree, quad, self.config.mx, self.config.ng, self._tree_origin(tree))

    def _fill_initial(self, patches: list[Patch]) -> None:
        """Evaluate the initial condition on every cell of ``patches`` at once.

        One ``problem.evaluate`` call over the stacked cell centers: each
        patch's centers are those of :meth:`Patch.cell_centers`, computed
        the same way, and ``evaluate`` is elementwise, so every patch gets
        the values its own call would give.
        """
        if not patches:
            return
        c = np.arange(self.config.mx) + 0.5
        dx = np.array([p.dx for p in patches])[:, None]
        x = np.array([p.x0 for p in patches])[:, None] + c * dx
        y = np.array([p.y0 for p in patches])[:, None] + c * dx
        values = self.problem.evaluate(
            *np.broadcast_arrays(x[:, :, None], y[:, None, :])
        )
        for i, p in enumerate(patches):
            p.interior[...] = values[:, i]

    def _build_initial_hierarchy(self) -> None:
        """Iteratively refine from the initial condition, re-evaluating it.

        Standard AMR start-up: build the min-level mesh, then repeat
        (tag -> refine -> balance -> fill) until max_level can be reached,
        so the initial shock and bubble interface are resolved at the
        finest level from step one.  Each round tags its patches in one
        :func:`~repro.amr.tagging.tag_stack` pass and, after its refines
        and rebalance, fills the new leaves in one
        :meth:`_fill_initial`; a patch that the same round refines away is
        never filled.
        """
        cfg = self.config
        self.patches = {
            (t, q): self._new_patch(t, q) for t, q in self.forest.iter_leaves()
        }
        self._invalidate_stack()
        self._fill_initial(list(self.patches.values()))
        for _ in range(cfg.max_level - cfg.min_level):
            refinable = {
                key: p for key, p in self.patches.items() if p.level < cfg.max_level
            }
            if not refinable:
                break
            votes = tag_stack(
                np.stack([p.interior for p in refinable.values()]),
                cfg.refine_threshold,
                cfg.coarsen_threshold,
            )
            tagged = [key for key, vote in zip(refinable, votes) if vote > 0]
            if not tagged:
                break
            before = set(self.patches)
            for tree, quad in tagged:
                self._refine_patch(tree, quad, from_initial=True)
            self._rebalance(from_initial=True)
            self._fill_initial(
                [p for key, p in self.patches.items() if key not in before]
            )
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

        Every refine and coarsen drops the stack (:meth:`_invalidate_stack`),
        so a stack that is kept and holds as many patches as the hierarchy
        is current; this costs O(1) per call, where
        :meth:`PatchStack.covers` would visit every patch.  A rebuild also
        compiles the stack's ghost exchange
        (:class:`~repro.amr.batch.ExchangePlan`).
        """
        if self._stack is None or len(self._stack) != len(self.patches):
            with obs.timed("amr_plan", cat="amr"):
                self._stack = PatchStack(self.forest, self.patches, self.config)
        return self._stack

    # ------------------------------------------------------------- regridding

    def _refine_patch(self, tree: int, quad: Quadrant, from_initial: bool) -> None:
        """Replace a leaf by its four children.

        The children take the prolonged solution, or, ``from_initial``,
        stay empty until the initial build fills them.
        """
        parent = self.patches.pop((tree, quad))
        self.forest.trees[tree].refine(quad)
        for child in quadrant_children(quad):
            cp = self._new_patch(tree, child)
            if not from_initial:
                cp.interior[...] = prolong_child(parent.interior, child.child_id)
            self.patches[(tree, child)] = cp
            self._balance_seeds.append((tree, child))
        self.stats.num_refinements += 1
        self._invalidate_stack()

    def _coarsen_family(self, tree: int, parent_quad: Quadrant) -> None:
        """Replace the complete family of ``parent_quad`` by its parent."""
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

    def _tags(self) -> dict[tuple[int, Quadrant], int]:
        """Every leaf's vote, in patch order: +1 refine, -1 coarsen, 0 keep."""
        cfg = self.config
        if cfg.batched:
            # One vectorized pass over the stacked interiors.  stack.keys
            # preserves the patches-dict iteration order, and the batched
            # indicator is bit-identical to the scalar one, so the regrid
            # decisions are unchanged.
            stack = self.stack()
            votes = tag_stack(
                stack.interior, cfg.refine_threshold, cfg.coarsen_threshold
            )
            return dict(zip(stack.keys, votes))
        return {
            key: tag_for_refinement(
                p.interior, cfg.refine_threshold, cfg.coarsen_threshold
            )
            for key, p in self.patches.items()
        }

    def regrid(self) -> None:
        """One regrid pass: tag, refine, rebalance, then coarsen.

        Refines come first and the worklist rebalance closes their ripple.
        Then each family whose four members voted -1 is coarsened, finest
        level first, where
        :func:`~repro.mesh.balance.coarsening_keeps_balance` holds, so the
        forest stays balanced, nothing is refined back, and the leaf set is
        the one a coarsen-then-rebalance pass reaches (finest first: a
        coarsening can clear a coarser family's check, never a finer
        one's).  A leaf that stays keeps its data bit for bit, and a regrid
        that changes no leaf keeps the stack and its exchange plan.
        """
        cfg = self.config
        with obs.timed("amr_regrid", cat="amr"):
            tags = self._tags()
            for (tree, quad), tag in tags.items():
                if tag > 0 and quad.level < cfg.max_level:
                    self._refine_patch(tree, quad, from_initial=False)
            self._rebalance()

            votes = Counter(
                (tree, quadrant_parent(quad))
                for (tree, quad), tag in tags.items()
                if tag < 0 and quad.level > cfg.min_level
            )
            families = sorted(
                (key for key, n in votes.items() if n == 4),
                key=lambda key: -key[1].level,
            )
            for tree, parent in families:
                if all(
                    (tree, c) in self.patches for c in quadrant_children(parent)
                ) and coarsening_keeps_balance(self.forest, tree, parent):
                    self._coarsen_family(tree, parent)
            self._normalize_leaf_order()
        self.stats.num_regrids += 1

    # ---------------------------------------------------------------- stepping

    def _exchange(self) -> None:
        exchange_ghosts(self.forest, self.patches, self.config.bcs)

    def compute_dt(self, dt_max: float = np.inf) -> float:
        """Global CFL step: finest-level constraint dominates."""
        cfg = self.config
        with obs.timed("amr_dt", cat="amr"):
            if cfg.batched:
                stack = self.stack()
                sx, sy = stack.wave_speeds()
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
                # Each sweep reads only its own direction's ghost strips.
                with obs.timed("amr_exchange", cat="amr"):
                    stack.exchange(axis)
                with obs.timed("amr_sweep", cat="amr"):
                    skipped, cells = stack.sweep(dt_dx, axis)
                self.quiescent_sweeps += skipped
                self.swept_cells += cells
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
            self.swept_cells += 2 * len(self.patches) * cfg.mx * cfg.mx
        self.t += dt
        self.patch_sweeps += 2 * len(self.patches)
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
            return self.stack().check_physical()
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
            # Every stack of the run decides alike; this builds the one the
            # first step would.
            run_span.annotate(compiled=cfg.batched and self.stack().compiled)
            for k in range(max_steps):
                if self.t >= t_end - 1e-14:
                    run_span.annotate(
                        steps=k,
                        num_patches=len(self.patches),
                        regrids=self.stats.num_regrids,
                        refinements=self.stats.num_refinements,
                        coarsenings=self.stats.num_coarsenings,
                        patch_sweeps=self.patch_sweeps,
                        quiescent_sweeps=self.quiescent_sweeps,
                        swept_cells=self.swept_cells,
                    )
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
