"""Analytic work estimation and the work -> wall-clock performance model.

Running the full AMR hierarchy for every one of the paper's 1920 parameter
combinations took 30K core-hours on Edison; reproducing that with the
pure-Python solver is equally impractical.  Instead the default pipeline
estimates the *work profile* of a run analytically — how many patches exist
per level, how many steps the CFL condition forces, how much is regridded —
using the same geometric drivers that control the real hierarchy (bubble
perimeter, shock front, density contrast).  The :class:`PerformanceModel`
then converts a work profile into wall-clock seconds for a given node
count, including strong-scaling rolloff from communication and load
imbalance.  :class:`repro.machine.runner.JobRunner` can alternatively fill
the same :class:`WorkEstimate` from a true :class:`repro.amr.AmrDriver` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi

import numpy as np

from repro.machine.comms import LogPModel
from repro.machine.spec import MachineSpec


@dataclass(frozen=True, slots=True)
class WorkEstimate:
    """Work profile of an AMR run, the input to the machine models.

    Attributes
    ----------
    patches_per_level : tuple of (level, count)
        Patch population of the hierarchy (steady-state representative).
    mx : int
        Cells per patch side.
    ng : int
        Ghost width.
    num_steps : int
        Time steps to reach the final time.
    num_regrids : int
        Regrid passes performed.
    """

    patches_per_level: tuple[tuple[int, int], ...]
    mx: int
    ng: int
    num_steps: int
    num_regrids: int

    @property
    def total_patches(self) -> int:
        return sum(n for _, n in self.patches_per_level)

    @property
    def cells_per_step(self) -> int:
        return self.total_patches * self.mx * self.mx

    @property
    def total_cell_updates(self) -> float:
        return float(self.cells_per_step) * self.num_steps


def complexity_factor(rhoin: float, rho_ambient: float = 1.0) -> float:
    """Flow-complexity multiplier from the bubble density contrast.

    A lighter bubble (smaller ``rhoin``) has a larger acoustic impedance
    mismatch: the transmitted shock accelerates, the interface becomes
    Richtmyer–Meshkov unstable sooner, and the refined wake grows.  The
    multiplier is logarithmic in the contrast and equals 1 for no contrast.
    """
    if rhoin <= 0 or rho_ambient <= 0:
        raise ValueError("densities must be positive")
    contrast = abs(np.log10(rho_ambient / rhoin))
    return float(1.0 + 0.9 * contrast)


def estimate_work(
    mx: int,
    max_level: int,
    r0: float,
    rhoin: float,
    min_level: int = 1,
    t_end: float = 0.75,
    cfl: float = 0.4,
    mach: float = 2.0,
    domain_trees: int = 2,
    regrid_interval: int = 4,
    ng: int = 2,
) -> WorkEstimate:
    """Analytic work profile of a shock–bubble AMR run.

    The refined region tracks the bubble interface (perimeter ``2*pi*r0``),
    the shock front (length = domain height 1), and the wake, whose extent
    grows with the density contrast.  At level ``l`` the tagged band is
    ~2 patches wide, so the patch count scales like ``perimeter * 2**l`` —
    the classic surface-dominated AMR population.  On top of the band, a
    wake *area* term (fraction of the domain refined to the finest level)
    grows with ``r0`` and the contrast, which is what makes deep-refinement
    jobs so much more expensive than their shallow counterparts.
    """
    if max_level < min_level:
        raise ValueError("max_level must be >= min_level")
    if not 0 < r0 < 1:
        raise ValueError("r0 must be in (0, 1)")
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    chi = complexity_factor(rhoin)
    perimeter = 2.0 * pi * r0 + 1.0 + 0.6 * chi  # bubble + shock + wake arms

    levels: list[tuple[int, int]] = []
    # Base level tiles the whole brick.
    base = domain_trees * 4**min_level
    levels.append((min_level, base))
    for lv in range(min_level + 1, max_level + 1):
        band = 2.0 * perimeter * chi * (1 << lv)
        n = int(ceil(band))
        if lv == max_level:
            # Wake area refined to the finest level.
            wake_fraction = min(0.35, 0.12 * chi * (r0 / 0.3))
            n += int(ceil(wake_fraction * domain_trees * 4**lv))
        levels.append((lv, n))

    # CFL steps: dt ~ cfl * h_fine / smax with smax ~ shock speed + sound.
    h_fine = 1.0 / ((1 << max_level) * mx)
    smax = mach + 1.5
    dt = cfl * h_fine / smax
    num_steps = int(ceil(t_end / dt))
    num_regrids = num_steps // regrid_interval
    return WorkEstimate(
        patches_per_level=tuple(levels),
        mx=mx,
        ng=ng,
        num_steps=num_steps,
        num_regrids=num_regrids,
    )


@dataclass(frozen=True, slots=True)
class PerformanceModel:
    """Converts a :class:`WorkEstimate` into wall-clock seconds.

    Attributes
    ----------
    spec : MachineSpec
    seconds_per_cell : float
        Single-core cost of one cell update; defaults to the spec's flop
        estimate.  Real AMR codes land at 0.5–5 microseconds per cell.
    step_overhead_s : float
        Per-step fixed cost per rank (dt allreduce hidden here too).
    startup_s : float
        Job launch + MPI_Init + initial mesh generation.
    regrid_cost_factor : float
        Regrid pass cost relative to one compute step.
    imbalance_base : float
        Residual load imbalance of curve partitioning at large patch counts.
    """

    spec: MachineSpec
    seconds_per_cell: float | None = None
    step_overhead_s: float = 2.0e-3
    startup_s: float = 1.5
    regrid_cost_factor: float = 2.5
    imbalance_base: float = 0.05

    def _sec_per_cell(self) -> float:
        if self.seconds_per_cell is not None:
            return self.seconds_per_cell
        return self.spec.seconds_per_cell()

    def load_imbalance(self, total_patches: int, ranks: int) -> float:
        """Max-over-mean patch load from integral curve partitioning.

        With few patches per rank the ceiling effect dominates:
        ``ceil(n/R) / (n/R)``; with many, a small residual remains.
        """
        if total_patches < 1 or ranks < 1:
            raise ValueError("counts must be positive")
        mean = total_patches / ranks
        ceiling = ceil(mean) / mean
        return float(max(ceiling, 1.0 + self.imbalance_base))

    def wall_time(self, work: WorkEstimate, nodes: int) -> float:
        """Predicted wall-clock seconds on ``nodes`` nodes.

        The per-step time is the max-loaded rank's compute plus ghost
        exchange plus the dt-reduction collective; this is the bulk-
        synchronous bound that AMR codes operate near.
        """
        ranks = self.spec.ranks(nodes)
        total_patches = work.total_patches
        imbalance = self.load_imbalance(total_patches, ranks)
        patches_per_rank = total_patches / ranks * imbalance
        cells_per_rank = patches_per_rank * work.mx * work.mx

        comms = LogPModel(self.spec)
        compute = cells_per_rank * self._sec_per_cell()
        ghost = comms.ghost_exchange_time(patches_per_rank, work.mx, work.ng)
        reduce_t = comms.allreduce_time(8, ranks)
        step_time = compute + ghost + reduce_t + self.step_overhead_s

        regrid_time = work.num_regrids * self.regrid_cost_factor * step_time
        return float(self.startup_s + work.num_steps * step_time + regrid_time)

    def node_hours(self, work: WorkEstimate, nodes: int) -> float:
        """Job cost in node-hours — the paper's cost response."""
        return self.wall_time(work, nodes) * nodes / 3600.0

    def parallel_efficiency(self, work: WorkEstimate, nodes: int) -> float:
        """Speedup over 1 node divided by ``nodes`` (diagnostic)."""
        t1 = self.wall_time(work, 1)
        tn = self.wall_time(work, nodes)
        return float(t1 / (nodes * tn))
