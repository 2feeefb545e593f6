"""End-to-end execution of one AMR job on the simulated machine.

A :class:`JobConfig` is a point of the paper's 5-dimensional input space:
``(p, mx, maxlevel, r0, rhoin)``.  The :class:`JobRunner` turns it into a
:class:`~repro.machine.accounting.JobRecord` via two interchangeable paths:

- ``mode="surrogate"`` (default): the analytic work profile of
  :func:`repro.machine.perf_model.estimate_work` feeds the performance and
  memory models directly.  This is how the 600-job dataset is generated.
- ``mode="simulate"``: a real (scaled-down) :class:`repro.amr.AmrDriver`
  run produces the work counters, which feed the same machine models.
  Used for validation and the Fig. 1 reproduction.

Both paths add multiplicative log-normal measurement noise, reproducing
the machine variability the paper captured with repeated measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro import obs
from repro.machine.accounting import JobRecord, SlurmAccounting
from repro.machine.memory_model import MemoryModel
from repro.machine.perf_model import PerformanceModel, WorkEstimate, estimate_work
from repro.machine.spec import EDISON, MachineSpec


@dataclass(frozen=True, slots=True)
class JobConfig:
    """One configuration of the paper's 5-D input space (Table I order).

    Attributes
    ----------
    p : int
        Number of nodes (4–32 in the dataset).
    mx : int
        Patch box size (8–32).
    maxlevel : int
        Maximum refinement level (3–6).
    r0 : float
        Bubble size (0.2–0.5).
    rhoin : float
        Bubble density (0.02–0.5).
    """

    p: int
    mx: int
    maxlevel: int
    r0: float
    rhoin: float

    def __post_init__(self) -> None:
        if not self.p >= 1:
            raise ValueError("p must be positive")
        if self.mx < 4 or self.mx % 2:
            raise ValueError("mx must be an even integer >= 4")
        if not self.maxlevel >= 1:
            raise ValueError("maxlevel must be >= 1")
        if not 0 < self.r0 < 1:
            raise ValueError("r0 must be in (0, 1)")
        if not self.rhoin > 0:
            raise ValueError("rhoin must be positive")

    def as_features(self) -> tuple[float, ...]:
        """Feature vector in Table I column order."""
        return (float(self.p), float(self.mx), float(self.maxlevel), self.r0, self.rhoin)


@dataclass(frozen=True, slots=True)
class JobRunner:
    """Executes :class:`JobConfig` instances on a simulated machine.

    Attributes
    ----------
    spec : MachineSpec
    perf : PerformanceModel
    mem : MemoryModel
    accounting : SlurmAccounting
    wall_noise_sigma : float
        Log-normal sigma of wall-clock variability (machine noise).
    rss_noise_sigma : float
        Log-normal sigma of MaxRSS variability.
    t_end : float
        Physical end time of the canonical campaign run; must be positive.
    """

    spec: MachineSpec = EDISON
    perf: PerformanceModel | None = None
    mem: MemoryModel | None = None
    accounting: SlurmAccounting | None = None
    wall_noise_sigma: float = 0.04
    rss_noise_sigma: float = 0.015
    t_end: float = 2.0

    def __post_init__(self) -> None:
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")

    def _accounting(self) -> SlurmAccounting:
        return self.accounting if self.accounting is not None else SlurmAccounting()

    # ------------------------------------------------------------------ paths

    def work_estimate(self, config: JobConfig) -> WorkEstimate:
        """Analytic work profile for ``config`` (surrogate path)."""
        return estimate_work(
            mx=config.mx,
            max_level=config.maxlevel,
            r0=config.r0,
            rhoin=config.rhoin,
            t_end=self.t_end,
        )

    def work_from_simulation(
        self, config: JobConfig, t_end: float | None = None
    ) -> WorkEstimate:
        """Work profile measured from a real AMR run (simulate path).

        The run uses the true solver at the configured resolution; callers
        keep ``t_end`` short and ``maxlevel`` modest, then the machine model
        extrapolates cost as it does for the analytic path.  The run steps
        the shape-stacked AMR backend through the compiled C kernels of
        :mod:`repro.solver.kernels` when a C compiler is available — the
        first simulated job on a machine then pays their one-time build —
        and through numpy otherwise; the records are identical either way.
        """
        from repro.amr import AmrConfig, AmrDriver
        from repro.solver import ShockBubbleProblem

        if t_end is None:
            t_end = self.t_end
        elif not t_end > 0:
            raise ValueError("t_end must be positive")
        problem = ShockBubbleProblem(r0=config.r0, rhoin=config.rhoin)
        amr_cfg = AmrConfig(mx=config.mx, min_level=1, max_level=config.maxlevel)
        driver = AmrDriver(problem, amr_cfg)
        stats = driver.run(t_end=t_end)
        hist = driver.forest.level_histogram()
        return WorkEstimate(
            patches_per_level=tuple(sorted(hist.items())),
            mx=config.mx,
            ng=amr_cfg.ng,
            num_steps=stats.num_steps,
            num_regrids=stats.num_regrids,
        )

    def price(
        self, config: JobConfig, work: WorkEstimate | None = None
    ) -> tuple[float, float, float]:
        """Noise-free ``(wall_s, node_hours, max_rss_MB)`` of ``config``.

        The machine models' prediction for ``work`` (the analytic profile
        of :meth:`work_estimate` when omitted), without measurement noise.
        """
        if work is None:
            work = self.work_estimate(config)
        perf = self.perf
        if perf is None:
            perf = PerformanceModel(self.spec, seconds_per_cell=5.0e-6)
        mem = self.mem if self.mem is not None else MemoryModel(self.spec)
        wall = perf.wall_time(work, config.p)
        # As PerformanceModel.node_hours, without a second wall_time pass.
        return wall, wall * config.p / 3600.0, mem.max_rss_MB(work, config.p)

    # ------------------------------------------------------------------ runs

    def run(
        self,
        config: JobConfig,
        rng: np.random.Generator,
        job_id: int = 0,
        mode: Literal["surrogate", "simulate"] = "surrogate",
        memory_limit_MB: float | None = None,
        apply_accounting_bug: bool = False,
    ) -> JobRecord:
        """Execute one job and return its accounting record.

        Parameters
        ----------
        rng : numpy.random.Generator
            Source of measurement noise (explicit, per the repo's
            determinism policy).
        memory_limit_MB : float, optional
            If given and the job's MaxRSS reaches it, the job is marked
            ``failed`` — modeling the out-of-memory crash whose wasted cost
            the paper's cumulative-regret metric charges.
        apply_accounting_bug : bool
            Pass records through the MaxRSS=0 reporting bug.
        """
        with obs.span(
            "job_run", cat="machine", job_id=job_id, p=config.p, mode=mode
        ) as job_span:
            if mode == "surrogate":
                work = self.work_estimate(config)
            elif mode == "simulate":
                work = self.work_from_simulation(config)
            else:
                raise ValueError(f"unknown mode {mode!r}")

            wall, _, rss = self.price(config, work)
            wall *= float(np.exp(rng.normal(0.0, self.wall_noise_sigma)))
            rss *= float(np.exp(rng.normal(0.0, self.rss_noise_sigma)))

            failed = memory_limit_MB is not None and rss >= memory_limit_MB
            job_span.annotate(
                wall_seconds=round(wall, 6), max_rss_MB=round(rss, 3), failed=failed
            )
            record = JobRecord(
                job_id=job_id,
                features=config.as_features(),
                wall_seconds=wall,
                nodes=config.p,
                max_rss_MB=rss,
                failed=failed,
            )
            if apply_accounting_bug:
                record = self._accounting().finalize(record, rng)
            return record
