"""LogP-style communication cost model.

Ghost exchange dominates the communication of a patch-based AMR step: each
rank sends one edge strip per patch face whose neighbor lives on another
rank.  The model charges ``latency + bytes / bandwidth`` per message and a
logarithmic tree cost for the collective that reduces the global CFL dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.machine.spec import MachineSpec


@dataclass(frozen=True, slots=True)
class LogPModel:
    """Latency/bandwidth messaging costs for a :class:`MachineSpec`."""

    spec: MachineSpec

    def message_time(self, nbytes: int) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.spec.network_latency_s + nbytes / self.spec.network_bandwidth_Bps

    def allreduce_time(self, nbytes: int, ranks: int) -> float:
        """Binary-tree allreduce estimate over ``ranks`` ranks."""
        if ranks < 1:
            raise ValueError("ranks must be positive")
        rounds = max(1, ceil(log2(max(ranks, 2))))
        return 2.0 * rounds * self.message_time(nbytes)

    def ghost_exchange_time(
        self,
        patches_per_rank: float,
        mx: int,
        ng: int,
        fields: int = 4,
        remote_fraction: float = 0.35,
    ) -> float:
        """Per-step ghost-exchange time for one rank.

        Parameters
        ----------
        patches_per_rank : float
            Average patches owned by a rank (fractional values represent
            load imbalance-adjusted averages).
        mx, ng : int
            Patch interior size and ghost width; a face strip carries
            ``fields * ng * mx`` doubles.
        remote_fraction : float
            Fraction of the 4 faces per patch whose neighbor is off-rank.
            Morton partitioning keeps subdomains compact, so this is well
            below 1; 0.35 matches the surface-to-volume ratio of curve
            segments at the paper's scales.
        """
        if patches_per_rank < 0:
            raise ValueError("patches_per_rank must be non-negative")
        strip_bytes = fields * ng * mx * 8
        messages = 4.0 * patches_per_rank * remote_fraction
        return messages * self.message_time(strip_bytes)
