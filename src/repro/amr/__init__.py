"""Patch-based adaptive mesh refinement driver (ForestClaw analogue).

Every leaf quadrant of a :class:`repro.mesh.Forest` carries a ghosted
``mx x mx`` finite-volume patch.  The driver advances all patches with a
global (non-subcycled) CFL time step, exchanges ghost layers across
same-level, coarse–fine, and physical boundaries, and periodically regrids:
tagging patches by an undivided-gradient indicator, refining/coarsening,
re-establishing 2:1 balance, and transferring the solution conservatively.

Stepping is batched by default (``AmrConfig.batched``): the hierarchy's
state is stacked into one ``(P, 4, n, n)`` array, sweeps and reductions run
once over the stack, and ghost exchange executes a program precomputed at
regrid time (:mod:`repro.amr.batch`, :mod:`repro.amr.shard`).  Sweeps, wave
speeds and the exchange run in the compiled C kernels of
:mod:`repro.solver.kernels` when a compiler is available and in numpy
otherwise.  The per-patch loop remains available as the bit-identical
reference implementation.

Public API
----------
- :class:`Patch` — a ghosted block bound to a quadrant.
- :class:`AmrConfig`, :class:`AmrDriver` — simulation configuration/driver.
- :class:`PatchStack`, :class:`ExchangePlan` — stacked storage + compiled
  ghost exchange backing the batched stepping path.
- :class:`RunStats` — work/memory counters consumed by :mod:`repro.machine`.
- tagging, prolongation/restriction and ghost-exchange primitives.
"""

from repro.amr.patch import Patch, patch_cell_centers
from repro.amr.tagging import gradient_indicator, tag_for_refinement
from repro.amr.transfer import prolong_patch, restrict_patch, restrict_area_average
from repro.amr.ghost import exchange_ghosts
from repro.amr.batch import ExchangePlan, PatchStack
from repro.amr.stats import RunStats, StepRecord
from repro.amr.driver import AmrConfig, AmrDriver

__all__ = [
    "Patch",
    "patch_cell_centers",
    "gradient_indicator",
    "tag_for_refinement",
    "prolong_patch",
    "restrict_patch",
    "restrict_area_average",
    "exchange_ghosts",
    "ExchangePlan",
    "PatchStack",
    "RunStats",
    "StepRecord",
    "AmrConfig",
    "AmrDriver",
]
