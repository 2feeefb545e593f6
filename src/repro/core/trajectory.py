"""Trajectory records: everything one AL run produces.

A :class:`Trajectory` captures the per-iteration state Algorithm 1 emits —
which sample was selected, its actual cost and memory, the test-set RMSE of
both models, and the running cumulative cost/regret — plus why and when the
run stopped.  Batch analysis (:mod:`repro.core.batch`,
:mod:`repro.analysis`) aggregates many trajectories.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.faults.model import FaultEvent


class StopReason(str, Enum):
    """Why an AL run ended."""

    EXHAUSTED = "exhausted"  # every Active sample was selected
    MEMORY_CONSTRAINED = "memory_constrained"  # RGMA: no satisfying candidate
    MAX_ITERATIONS = "max_iterations"  # caller-imposed iteration budget
    STOPPING_RULE = "stopping_rule"  # a StoppingRule fired
    BUDGET_EXHAUSTED = "budget_exhausted"  # campaign ledger ran out of node-hours


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State after one AL iteration.

    Attributes
    ----------
    iteration : int
        0-based AL iteration.
    dataset_index : int
        Row of the selected sample in the full dataset.
    cost : float
        Actual cost (node-hours) of the selected sample.
    mem : float
        Actual MaxRSS (MB) of the selected sample.
    rmse_cost, rmse_mem : float
        Non-log test RMSE of the cost / memory model after retraining.
    cumulative_cost : float
        Sum of selected costs so far.
    cumulative_regret : float
        Sum of individual regrets so far (0 unless a memory limit is set).
    rmse_cost_weighted : float
        Cost-weighted test RMSE (Eq. (12) with rho = diag(test costs)):
        the scale-dependent error metric Sec. V-D argues for.  NaN when
        weighting is disabled.
    failed : bool
        The acquisition crashed — its cost is charged but the observation
        was lost (handled per the learner's ``on_failure`` policy).
    censored : bool
        The acquisition completed but lost its MaxRSS (the accounting
        bug); only the cost response was usable.
    fidelity : int
        Fidelity level the sample was observed at (0 = coarsest rung of
        the :mod:`repro.data.fidelity` ladder); ``-1`` for records from
        single-fidelity runs predating the axis.
    """

    iteration: int
    dataset_index: int
    cost: float
    mem: float
    rmse_cost: float
    rmse_mem: float
    cumulative_cost: float
    cumulative_regret: float
    rmse_cost_weighted: float = float("nan")
    failed: bool = False
    censored: bool = False
    fidelity: int = -1

    def __reduce__(self):
        # A tuple of the fields, restored through __init__: checkpoints
        # carry every record, and the slotted dataclass's own state hooks
        # call fields() once per record each way.
        return IterationRecord, _record_fields(self)


_record_fields = operator.attrgetter(*IterationRecord.__slots__)


@dataclass(frozen=True)
class Trajectory:
    """One complete AL run.

    Attributes
    ----------
    policy_name : str
    n_init : int
        Size of the Initial partition the models were pre-fit on.
    records : tuple of IterationRecord
    stop_reason : StopReason
    initial_rmse_cost, initial_rmse_mem : float
        Test RMSE after the pre-AL fit (iteration "-1" baseline).
    fault_events : tuple of FaultEvent
        Acquisition-level faults struck during the run (empty without an
        enabled fault model).
    config : dict, optional
        JSON-able :meth:`~repro.core.config.ALConfig.describe` of the
        learner configuration that produced this run — trajectories (and
        the traces exported from them) are self-describing.
    """

    policy_name: str
    n_init: int
    records: tuple[IterationRecord, ...]
    stop_reason: StopReason
    initial_rmse_cost: float
    initial_rmse_mem: float
    fault_events: tuple[FaultEvent, ...] = field(default=())
    config: dict | None = field(default=None)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_failed_acquisitions(self) -> int:
        """Acquisitions that crashed (cost spent, observation lost)."""
        return sum(1 for r in self.records if r.failed)

    @property
    def num_censored_acquisitions(self) -> int:
        """Acquisitions that completed but lost their MaxRSS."""
        return sum(1 for r in self.records if r.censored)

    # Convenience column extractors -------------------------------------------------

    def _col(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.records], dtype=np.float64)

    @property
    def costs(self) -> np.ndarray:
        return self._col("cost")

    @property
    def mems(self) -> np.ndarray:
        return self._col("mem")

    @property
    def rmse_cost(self) -> np.ndarray:
        return self._col("rmse_cost")

    @property
    def rmse_mem(self) -> np.ndarray:
        return self._col("rmse_mem")

    @property
    def rmse_cost_weighted(self) -> np.ndarray:
        return self._col("rmse_cost_weighted")

    @property
    def cumulative_cost(self) -> np.ndarray:
        return self._col("cumulative_cost")

    @property
    def cumulative_regret(self) -> np.ndarray:
        return self._col("cumulative_regret")

    @property
    def selected_indices(self) -> np.ndarray:
        return np.array([r.dataset_index for r in self.records], dtype=np.int64)

    @property
    def final_rmse_cost(self) -> float:
        return self.records[-1].rmse_cost if self.records else self.initial_rmse_cost

    @property
    def final_rmse_mem(self) -> float:
        return self.records[-1].rmse_mem if self.records else self.initial_rmse_mem

    @property
    def total_cost(self) -> float:
        return float(self.records[-1].cumulative_cost) if self.records else 0.0

    @property
    def total_regret(self) -> float:
        return float(self.records[-1].cumulative_regret) if self.records else 0.0
