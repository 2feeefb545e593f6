"""The fault model: what can go wrong with a job on the simulated machine.

The paper's dataset was shaped by a real machine failure — SLURM reported
``MaxRSS = 0`` for the authors' least expensive jobs, costing them 1K-612
records — and production campaigns on shared machines see more than that
one mode.  This module defines the full menu:

- ``CRASH`` — the job dies partway through (node failure, library abort).
- ``OOM`` — the per-node footprint exceeds node DRAM and the OOM killer
  fires (Edison: 64 GB/node).
- ``TIMEOUT`` — the job hits the queue's wall-clock limit and is killed.
- ``STRAGGLER`` — a slow node stretches the run; the job *completes* but
  costs more (and may subsequently hit the wall-clock limit).
- ``RSS_LOST`` — the accounting bug: the job completes, MaxRSS comes back
  zero.  A generalization of :class:`repro.machine.accounting.SlurmAccounting`
  with an independently configurable threshold and probability.

:class:`FaultInjector` applies a :class:`FaultConfig` to a truthful
:class:`~repro.machine.accounting.JobRecord` and reports what struck as a
structured :class:`FaultEvent`.  Determinism contract: for a given config
the injector consumes a *fixed* number of RNG draws per inspection
(independent of which faults fire), and a disabled config consumes none —
so campaigns with faults switched off are bit-identical to runs that never
imported this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.machine.accounting import JobRecord


class FaultKind(str, Enum):
    """What struck a job attempt (SLURM-state-like vocabulary)."""

    CRASH = "crash"  # NODE_FAIL / generic FAILED
    OOM = "oom"  # OUT_OF_MEMORY
    TIMEOUT = "timeout"  # TIMEOUT
    STRAGGLER = "straggler"  # completed, but slowed
    RSS_LOST = "rss_lost"  # COMPLETED with MaxRSS=0 (accounting bug)


#: SLURM ``State`` string each fault kind maps to on the *final* record.
EXIT_STATES = {
    FaultKind.CRASH: "NODE_FAIL",
    FaultKind.OOM: "OUT_OF_MEMORY",
    FaultKind.TIMEOUT: "TIMEOUT",
    FaultKind.STRAGGLER: "COMPLETED",
    FaultKind.RSS_LOST: "COMPLETED",
}


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Per-campaign fault probabilities and limits.

    All faults default off; :meth:`enabled` is False for the default
    instance, and every consumer skips the fault layer entirely (zero RNG
    draws) in that case.

    Attributes
    ----------
    crash_probability : float
        Per-attempt probability of a mid-run crash.
    crash_wall_fraction : float
        Fraction of the would-be wall time elapsed (and charged) when a
        crash strikes.
    oom_memory_limit_MB : float, optional
        Per-process MaxRSS at which the OOM killer fires; None disables.
        Set from :attr:`repro.machine.spec.MachineSpec.mem_per_node_GB`
        divided by ranks-per-node for an Edison-faithful limit, or lower
        to exercise the resubmission path.
    timeout_wall_seconds : float, optional
        Queue wall-clock limit; jobs reaching it are killed (and charged
        the full limit).  None disables.
    straggler_probability : float
        Per-attempt probability of landing on a slow node.
    straggler_slowdown : float
        Wall-clock multiplier a straggler suffers (> 1).
    rss_lost_wall_threshold_s : float
        Jobs shorter than this are eligible for the MaxRSS=0 bug
        (the paper's threshold: 139 s; 0 disables).
    rss_lost_probability : float
        Probability an eligible job loses its MaxRSS.
    """

    crash_probability: float = 0.0
    crash_wall_fraction: float = 0.5
    oom_memory_limit_MB: float | None = None
    timeout_wall_seconds: float | None = None
    straggler_probability: float = 0.0
    straggler_slowdown: float = 4.0
    rss_lost_wall_threshold_s: float = 0.0
    rss_lost_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_probability", "straggler_probability", "rss_lost_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.crash_wall_fraction <= 1.0:
            raise ValueError("crash_wall_fraction must be in (0, 1]")
        if self.oom_memory_limit_MB is not None and not self.oom_memory_limit_MB > 0:
            raise ValueError("oom_memory_limit_MB must be positive")
        if self.timeout_wall_seconds is not None and not self.timeout_wall_seconds > 0:
            raise ValueError("timeout_wall_seconds must be positive")
        if not self.straggler_slowdown > 1.0:
            raise ValueError("straggler_slowdown must exceed 1")
        if not self.rss_lost_wall_threshold_s >= 0:
            raise ValueError("rss_lost_wall_threshold_s must be non-negative")

    @property
    def enabled(self) -> bool:
        """True when at least one fault can fire."""
        return (
            self.crash_probability > 0.0
            or self.oom_memory_limit_MB is not None
            or self.timeout_wall_seconds is not None
            or self.straggler_probability > 0.0
            or (self.rss_lost_probability > 0.0 and self.rss_lost_wall_threshold_s > 0.0)
        )

    @classmethod
    def disabled(cls) -> "FaultConfig":
        """The explicit no-faults config (bit-identical execution)."""
        return cls()

    @classmethod
    def paper_bug_only(cls) -> "FaultConfig":
        """Only the accounting bug the authors actually hit (Sec. V-A)."""
        return cls(rss_lost_wall_threshold_s=139.0, rss_lost_probability=0.55)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One structured row of the fault stream.

    Emitted by :class:`FaultInjector` (machine-level faults, ``job_id`` is
    the scheduler id and ``attempt`` the resubmission count) and by the AL
    loop (acquisition-level faults, ``job_id`` is the dataset row and
    ``attempt`` the AL iteration).

    Attributes
    ----------
    job_id : int
    attempt : int
        0-based attempt (or AL iteration) the fault struck.
    kind : FaultKind
    lost_wall_seconds : float
        Wall-clock the attempt burned before dying (0 for RSS_LOST —
        the job completed, only the measurement was lost).
    nodes : int
        Allocation width, for charging the waste in node-hours.
    backoff_seconds : float
        Queue delay the retry policy imposed after this fault.
    detail : str
        Free-form context ("resubmitted at p=16", "slowdown x4.0", ...).
    """

    job_id: int
    attempt: int
    kind: FaultKind
    lost_wall_seconds: float = 0.0
    nodes: int = 1
    backoff_seconds: float = 0.0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class Inspection:
    """Outcome of passing one attempt through the injector.

    ``record`` is the attempt as the accounting stream will see it (wall
    capped at a timeout, RSS zeroed by the bug, ``failed``/``exit_state``
    set for fatal faults).  ``fault`` is None for a clean completion.
    ``fatal`` distinguishes faults that killed the job (retry candidates)
    from degradations the job survived (straggler slowdown, lost RSS).
    """

    record: JobRecord
    fault: FaultKind | None = None
    fatal: bool = False


class FaultInjector:
    """Applies a :class:`FaultConfig` to truthful job measurements.

    Evaluation order mirrors how the real failure modes preempt each
    other: a crash kills the job before memory or the wall clock matter;
    the OOM killer fires before the queue limit can; a straggler only
    matters for a job that survived everything else, and can push it over
    the timeout; the accounting bug strikes only completed jobs.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    def inspect(self, record: JobRecord, rng: np.random.Generator) -> Inspection:
        """Decide this attempt's fate; fixed RNG consumption (3 draws)."""
        cfg = self.config
        if not cfg.enabled:
            return Inspection(record=record)
        # Fixed draw count regardless of which fault fires, so one fault's
        # probability never perturbs the stream the next job sees.
        u_crash, u_straggle, u_rss = rng.random(3)

        if u_crash < cfg.crash_probability:
            wasted = record.wall_seconds * cfg.crash_wall_fraction
            return Inspection(
                record=record.evolve(
                    wall_seconds=wasted, failed=True, exit_state="NODE_FAIL"
                ),
                fault=FaultKind.CRASH,
                fatal=True,
            )

        if (
            cfg.oom_memory_limit_MB is not None
            and record.max_rss_MB >= cfg.oom_memory_limit_MB
        ):
            # The kill happens as the footprint peaks, near the end of the
            # regrid that overflowed: charge the full wall.
            return Inspection(
                record=record.evolve(failed=True, exit_state="OUT_OF_MEMORY"),
                fault=FaultKind.OOM,
                fatal=True,
            )

        wall = record.wall_seconds
        straggled = u_straggle < cfg.straggler_probability
        if straggled:
            wall *= cfg.straggler_slowdown

        if cfg.timeout_wall_seconds is not None and wall >= cfg.timeout_wall_seconds:
            return Inspection(
                record=record.evolve(
                    wall_seconds=cfg.timeout_wall_seconds,
                    failed=True,
                    exit_state="TIMEOUT",
                ),
                fault=FaultKind.TIMEOUT,
                fatal=True,
            )

        if straggled:
            record = record.evolve(wall_seconds=wall)

        if (
            record.wall_seconds < cfg.rss_lost_wall_threshold_s
            and u_rss < cfg.rss_lost_probability
        ):
            return Inspection(
                record=record.evolve(max_rss_MB=0.0),
                fault=FaultKind.RSS_LOST,
                fatal=False,
            )

        if straggled:
            return Inspection(record=record, fault=FaultKind.STRAGGLER, fatal=False)
        return Inspection(record=record)
