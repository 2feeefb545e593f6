"""Simulated supercomputer: an Edison-like machine with SLURM accounting.

The paper measured its 600-job dataset on NERSC Edison (Cray XC30,
two-socket 12-core Ivy Bridge nodes, Aries dragonfly interconnect) under
SLURM.  This subpackage reproduces that pipeline synthetically:

- :class:`MachineSpec` — node/interconnect parameters (Edison defaults).
- :class:`LogPModel` — latency/bandwidth communication cost model.
- :class:`PerformanceModel` — maps AMR work counters (or the analytic
  work estimate) to wall-clock time, including strong-scaling rolloff.
- :class:`MemoryModel` — maps patch allocation to per-process MaxRSS.
- :class:`JobRecord`, :class:`SlurmAccounting` — sacct-like records,
  including the paper's "MaxRSS reported as zero for short jobs" bug.
- :class:`JobRunner` — executes a 5-feature configuration end to end,
  either analytically (fast surrogate) or by running the real
  :class:`repro.amr.AmrDriver`.
"""

from repro.machine.spec import MachineSpec, EDISON
from repro.machine.comms import LogPModel
from repro.machine.perf_model import PerformanceModel, WorkEstimate, estimate_work
from repro.machine.memory_model import MemoryModel
from repro.machine.accounting import JobRecord, SlurmAccounting
from repro.machine.runner import JobConfig, JobRunner

__all__ = [
    "MachineSpec",
    "EDISON",
    "LogPModel",
    "PerformanceModel",
    "WorkEstimate",
    "estimate_work",
    "MemoryModel",
    "JobRecord",
    "SlurmAccounting",
    "JobConfig",
    "JobRunner",
]
