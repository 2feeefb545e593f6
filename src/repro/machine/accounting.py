"""SLURM-like job accounting records.

The paper's dataset is the output of ``sacct``: per-job elapsed time, node
count, and MaxRSS.  This module reproduces that record format — including
the reporting bug the authors hit, where MaxRSS came back as zero for some
of the *least expensive* jobs (their longest zero-MaxRSS job ran 139 s),
forcing them to drop 1K-612 jobs from the original collection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One accounting row, as the analysis pipeline consumes it.

    Attributes
    ----------
    job_id : int
        Scheduler job id.
    features : tuple of float
        The 5 input features ``(p, mx, maxlevel, r0, rhoin)``.
    wall_seconds : float
        Elapsed time.
    nodes : int
        Nodes allocated.
    max_rss_MB : float
        Peak per-task resident set; 0.0 when the reporting bug struck.
    failed : bool
        Whether the job crashed (e.g. exceeded a memory limit).
    exit_state : str
        SLURM-like ``State`` string ("COMPLETED", "NODE_FAIL",
        "OUT_OF_MEMORY", "TIMEOUT"); empty means "derive from ``failed``"
        (see :attr:`state`), keeping pre-fault-layer constructors valid.
    """

    job_id: int
    features: tuple[float, ...]
    wall_seconds: float
    nodes: int
    max_rss_MB: float
    failed: bool = False
    exit_state: str = ""

    @property
    def state(self) -> str:
        """The sacct ``State`` column (derived when not set explicitly)."""
        if self.exit_state:
            return self.exit_state
        return "FAILED" if self.failed else "COMPLETED"

    def evolve(self, **changes) -> "JobRecord":
        """A copy with fields replaced (the fault layer's update idiom)."""
        return replace(self, **changes)

    @property
    def cost_node_hours(self) -> float:
        """The paper's cost response: wall-clock time x nodes."""
        return self.wall_seconds * self.nodes / 3600.0

    @property
    def rss_reported(self) -> bool:
        """False when MaxRSS was lost to the accounting bug."""
        return self.max_rss_MB > 0.0


@dataclass(frozen=True, slots=True)
class SlurmAccounting:
    """Post-processing of raw job measurements into accounting rows.

    Attributes
    ----------
    rss_bug_wall_threshold_s : float
        Jobs shorter than this are *eligible* for the MaxRSS=0 bug — the
        paper observed the bug only among its least expensive jobs (longest
        affected: 139 s).
    rss_bug_probability : float
        Probability an eligible job's MaxRSS is reported as zero.
    """

    rss_bug_wall_threshold_s: float = 139.0
    rss_bug_probability: float = 0.55

    def finalize(self, record: JobRecord, rng: np.random.Generator) -> JobRecord:
        """Apply reporting artifacts to a truthful measurement."""
        if (
            record.wall_seconds < self.rss_bug_wall_threshold_s
            and rng.random() < self.rss_bug_probability
        ):
            return replace(record, max_rss_MB=0.0)
        return record


@dataclass(slots=True)
class CampaignLedger:
    """Node-hour accounting for one long-running AL campaign.

    The campaign service prices everything in the paper's currency —
    node-hours, the same unit :attr:`JobRecord.cost_node_hours` reports —
    and schedules campaigns by what is *left* of their allocation.  Three
    buckets:

    - ``committed_node_hours`` — selections the campaign actually kept
      (the sum of the trajectory's per-sample costs, including crashed
      acquisitions, which burn their allocation either way);
    - ``wasted_node_hours`` — slices discarded by the fault layer (worker
      crash, OOM, timeout) and re-run from the last checkpoint: real
      machine time that produced no committed state, exactly the quantity
      :class:`~repro.faults.resilient.ResilientRun` charges at job level;
    - ``queue_wait_seconds`` — backoff the retry policy imposed (delay,
      not machine time; kept separate from the node-hour buckets).

    Remaining budget = ``budget - committed - wasted``; a campaign whose
    remaining budget reaches zero is finalized with
    :attr:`~repro.core.trajectory.StopReason.BUDGET_EXHAUSTED`.
    """

    budget_node_hours: float = float("inf")
    committed_node_hours: float = 0.0
    wasted_node_hours: float = 0.0
    queue_wait_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.budget_node_hours > 0:
            raise ValueError("budget_node_hours must be positive")

    @property
    def remaining_node_hours(self) -> float:
        """What is left of the allocation (scheduling priority key)."""
        return self.budget_node_hours - self.committed_node_hours - self.wasted_node_hours

    @property
    def exhausted(self) -> bool:
        return self.remaining_node_hours <= 0.0

    def charge(self, node_hours: float) -> None:
        """Commit node-hours the campaign keeps (selected samples)."""
        if node_hours < 0:
            raise ValueError("cannot charge negative node-hours")
        self.committed_node_hours += node_hours

    def waste(self, node_hours: float) -> None:
        """Charge node-hours a discarded (re-run) slice burned."""
        if node_hours < 0:
            raise ValueError("cannot waste negative node-hours")
        self.wasted_node_hours += node_hours

    def wait(self, seconds: float) -> None:
        """Account retry backoff (queue-side delay, not machine time)."""
        self.queue_wait_seconds += seconds


def filter_usable(records: list[JobRecord]) -> list[JobRecord]:
    """Drop rows unusable for memory modeling, as the authors did.

    Removes failed jobs and rows that lost MaxRSS to the reporting bug.
    """
    return [r for r in records if not r.failed and r.rss_reported]
