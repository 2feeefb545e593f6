"""Campaign generation: from the 1920-point grid to the 600-job dataset.

The authors pre-selected their jobs "to limit the total cost by more
sparsely sampling the expensive parameter regimes" and "made sure that the
simulations we selected were guaranteed to complete".  The campaign
generator reproduces that policy:

1. Estimate every combination's cost with the machine model (noise-free).
2. Drop combinations whose predicted wall time exceeds a queue-limit cap.
3. Sample 525 unique combinations without replacement, with probability
   proportional to ``cost ** -sparsity`` (expensive regimes sampled
   sparsely).
4. Re-run 75 of them (some twice, some three times) to capture machine
   variability — matching the paper's 525 unique + 75 repeat layout.
5. Execute each job on the simulated machine and keep the accounting rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.data.space import TABLE1_SPACE, ParameterSpace
from repro.faults import FaultConfig, FaultEvent, ResilientJobRunner, RetryPolicy
from repro.machine.accounting import JobRecord
from repro.machine.runner import JobConfig, JobRunner


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of the dataset-generation policy.

    Attributes
    ----------
    num_unique : int
        Unique configurations to run (paper: 525).
    num_repeats : int
        Additional repeat measurements (paper: 75, as 2nd/3rd runs).
    sparsity : float
        Exponent of the inverse-cost sampling weight; 0 = uniform, larger
        values thin the expensive regimes more aggressively.
    wall_cap_seconds : float
        Queue-limit proxy: combinations predicted to exceed this wall time
        are excluded up front (paper max observed: 4262.73 s).
    triple_fraction : float
        Fraction of repeats that are *third* measurements of a config that
        already has two (the paper's "2nd and in some cases 3rd").
    """

    num_unique: int = 525
    num_repeats: int = 75
    sparsity: float = 0.1
    wall_cap_seconds: float = 4500.0
    triple_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.num_unique < 1 or self.num_repeats < 0:
            raise ValueError("counts must be positive")
        if self.sparsity < 0:
            raise ValueError("sparsity must be non-negative")
        if not 0 <= self.triple_fraction <= 1:
            raise ValueError("triple_fraction must be in [0, 1]")


@dataclass
class CampaignResult:
    """Everything the campaign produced.

    ``records`` holds every *final* accounting row, including jobs that
    exhausted their retries (``failed=True``) or lost MaxRSS to the
    accounting bug; ``dataset`` is built from the usable subset only.
    ``fault_events`` is empty unless the campaign ran under a fault
    config; ``wasted_core_hours`` charges the discarded attempts.
    """

    records: list[JobRecord]
    dataset: Dataset
    space: ParameterSpace
    excluded_combinations: int
    total_core_hours: float = field(default=0.0)
    fault_events: list[FaultEvent] = field(default_factory=list)
    failed_jobs: int = 0
    censored_jobs: int = 0
    wasted_core_hours: float = 0.0

    @property
    def num_usable(self) -> int:
        return len(self.dataset)


def _predicted_costs(
    runner: JobRunner, grid: list[JobConfig]
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free (wall_seconds, node_hours) predictions for every combo."""
    walls = np.empty(len(grid))
    costs = np.empty(len(grid))
    for i, cfg in enumerate(grid):
        walls[i], costs[i], _ = runner.price(cfg)
    return walls, costs


@dataclass
class RawCollection:
    """Outcome of the paper's *raw* data-collection phase.

    The authors ran "over 1K computational jobs" on Edison and discovered,
    in post-processing, that SLURM reported ``MaxRSS = 0`` for all but 612
    of them — a bug that only struck the least expensive jobs (the longest
    affected ran 139 s).  This structure captures that phase before the
    600-job selection.
    """

    all_records: list[JobRecord]
    usable_records: list[JobRecord]

    @property
    def num_lost(self) -> int:
        return len(self.all_records) - len(self.usable_records)

    def longest_affected_wall(self) -> float:
        """Wall time of the longest job that lost its MaxRSS (paper: 139 s)."""
        lost = [r.wall_seconds for r in self.all_records if not r.rss_reported]
        return max(lost) if lost else 0.0


def collect_raw_campaign(
    rng: np.random.Generator,
    n_jobs: int = 1000,
    space: ParameterSpace = TABLE1_SPACE,
    runner: JobRunner | None = None,
    wall_cap_seconds: float = 4500.0,
) -> RawCollection:
    """Simulate the paper's raw collection: ~1K jobs through buggy sacct.

    Jobs are drawn uniformly from the wall-capped grid (with replacement,
    repeats included) and passed through the MaxRSS reporting bug; rows
    that lost their memory measurement are filtered as the authors did.
    """
    if runner is None:
        runner = JobRunner()
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    grid = space.grid()
    walls, _ = _predicted_costs(runner, grid)
    eligible = np.flatnonzero(walls <= wall_cap_seconds)
    picks = rng.choice(eligible, size=n_jobs, replace=True)
    records = [
        runner.run(grid[int(gi)], rng, job_id=j, apply_accounting_bug=True)
        for j, gi in enumerate(picks)
    ]
    from repro.machine.accounting import filter_usable

    return RawCollection(all_records=records, usable_records=filter_usable(records))


def run_campaign(
    rng: np.random.Generator,
    space: ParameterSpace = TABLE1_SPACE,
    config: CampaignConfig = CampaignConfig(),
    runner: JobRunner | None = None,
    faults: FaultConfig | None = None,
    retry: RetryPolicy | None = None,
) -> CampaignResult:
    """Generate the paper-style 600-job dataset.

    Parameters
    ----------
    rng : numpy.random.Generator
        Drives both the selection and the per-job measurement noise.
    faults : FaultConfig, optional
        Fault-injection layer for the simulated machine.  ``None`` (or a
        disabled config) takes the plain execution path, bit-identical to
        a fault-free build; an enabled config routes every job through
        :class:`~repro.faults.ResilientJobRunner` and reports retries,
        failures, and censored rows on the result.
    retry : RetryPolicy, optional
        Response policy when a fault strikes (default
        :class:`~repro.faults.RetryPolicy`); ignored without ``faults``.

    Returns
    -------
    CampaignResult
        With ``dataset`` ready for the AL simulator (Table I bounds applied
        for unit-cube scaling).  Under faults, the dataset holds only the
        usable rows (completed, MaxRSS reported) — the authors' own
        post-processing — while ``records`` keeps every final row.
    """
    if runner is None:
        runner = JobRunner()
    grid = space.grid()
    walls, costs = _predicted_costs(runner, grid)

    eligible = np.flatnonzero(walls <= config.wall_cap_seconds)
    if eligible.size < config.num_unique:
        raise ValueError(
            f"only {eligible.size} combinations under the wall cap; "
            f"cannot select {config.num_unique}"
        )
    weights = costs[eligible] ** (-config.sparsity)
    weights = weights / weights.sum()
    chosen = rng.choice(eligible, size=config.num_unique, replace=False, p=weights)

    # Repeats: pick configs to measure again, cheapest-leaning (uniform over
    # the selected set is close to the paper's unexplained policy; a mild
    # inverse-cost tilt keeps repeat spending negligible).
    rep_weights = costs[chosen] ** (-config.sparsity)
    rep_weights = rep_weights / rep_weights.sum()
    n_triple = int(round(config.num_repeats * config.triple_fraction / 2.0))
    n_double = config.num_repeats - 2 * n_triple
    doubles = rng.choice(chosen, size=n_double, replace=False, p=rep_weights)
    remaining = np.setdiff1d(chosen, doubles)
    rw = costs[remaining] ** (-config.sparsity)
    triples = rng.choice(remaining, size=n_triple, replace=False, p=rw / rw.sum())

    job_plan: list[int] = list(chosen) + list(doubles) + list(np.repeat(triples, 2))
    records: list[JobRecord] = []
    if faults is None or not faults.enabled:
        # Plain path — kept separate so fault-free campaigns stay
        # bit-identical (zero extra RNG draws) to pre-fault-layer builds.
        for job_id, gi in enumerate(job_plan):
            records.append(runner.run(grid[gi], rng, job_id=job_id))
        dataset = Dataset.from_records(records, bounds=space.bounds())
        core_hours = sum(r.cost_node_hours for r in records) * runner.spec.cores_per_node
        return CampaignResult(
            records=records,
            dataset=dataset,
            space=space,
            excluded_combinations=len(grid) - int(eligible.size),
            total_core_hours=core_hours,
        )

    resilient = ResilientJobRunner(runner=runner, faults=faults, retry=retry)
    events: list[FaultEvent] = []
    wasted = 0.0
    for job_id, gi in enumerate(job_plan):
        run = resilient.run(grid[gi], rng, job_id=job_id)
        records.append(run.record)
        events.extend(run.events)
        wasted += run.wasted_node_hours

    from repro.machine.accounting import filter_usable

    usable = filter_usable(records)
    if not usable:
        raise RuntimeError(
            "fault injection destroyed every record; relax the fault config"
        )
    dataset = Dataset.from_records(usable, bounds=space.bounds())
    spent = sum(r.cost_node_hours for r in records) + wasted
    return CampaignResult(
        records=records,
        dataset=dataset,
        space=space,
        excluded_combinations=len(grid) - int(eligible.size),
        total_core_hours=spent * runner.spec.cores_per_node,
        fault_events=events,
        failed_jobs=sum(1 for r in records if r.failed),
        censored_jobs=sum(1 for r in records if not r.failed and not r.rss_reported),
        wasted_core_hours=wasted * runner.spec.cores_per_node,
    )
