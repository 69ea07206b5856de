"""Performance counters and result containers for cluster simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ActivityCounters:
    """Aggregate activity of one finished cluster run.

    This is the serializable core the power model and the scaleout imbalance
    model need once the full per-core :class:`ClusterResult` detail has been
    dropped — results shipped back from sweep worker processes or reloaded
    from the on-disk result store carry these counters instead of the
    in-memory cluster object.
    """

    int_retired: int
    fp_issued: int
    fp_compute: int
    flops: int
    tcdm_requests: int
    tcdm_conflicts: int
    dma_bytes: int
    core_cycles: Tuple[int, ...]

    @property
    def num_cores(self) -> int:
        """Number of worker cores that contributed to the counters."""
        return len(self.core_cycles)


@dataclass
class CoreStats:
    """Per-core performance counters extracted after a simulation."""

    hart_id: int
    cycles: int
    int_retired: int
    fp_issued: int
    fp_compute: int
    flops: int
    stalls: Dict[str, int] = field(default_factory=dict)
    fpu_stalls: Dict[str, int] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        """Total retired instructions (integer side plus FPU issues)."""
        return self.int_retired + self.fp_issued

    @property
    def ipc(self) -> float:
        """Per-core instructions per cycle (integer + FPU issues)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def fpu_util(self) -> float:
        """Fraction of cycles the FPU issued a useful compute instruction."""
        if self.cycles == 0:
            return 0.0
        return self.fp_compute / self.cycles


@dataclass
class ClusterResult:
    """Aggregate result of one cluster simulation."""

    cycles: int
    cores: List[CoreStats]
    tcdm_requests: int = 0
    tcdm_conflicts: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    dma_bytes: int = 0
    dma_busy_cycles: int = 0

    # -- aggregates -------------------------------------------------------------

    @property
    def total_flops(self) -> int:
        """Total FLOPs executed by all cores."""
        return sum(core.flops for core in self.cores)

    @property
    def total_instructions(self) -> int:
        """Total retired instructions across all cores."""
        return sum(core.instructions for core in self.cores)

    @property
    def mean_fpu_util(self) -> float:
        """Mean per-core FPU utilization over the full run."""
        if not self.cores:
            return 0.0
        # np.mean, not sum(): NumPy adds the 8 cores' values pairwise, and
        # a plain sum can differ in the last bit.
        import numpy as np

        return float(np.mean([core.fpu_util for core in self.cores]))

    @property
    def mean_ipc(self) -> float:
        """Mean per-core IPC over the full run."""
        if not self.cores:
            return 0.0
        import numpy as np

        return float(np.mean([core.ipc for core in self.cores]))

    @property
    def flops_per_cycle(self) -> float:
        """Cluster-level achieved FLOPs per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.total_flops / self.cycles

    @property
    def tcdm_conflict_rate(self) -> float:
        """Fraction of TCDM requests denied due to bank conflicts."""
        if self.tcdm_requests == 0:
            return 0.0
        return self.tcdm_conflicts / self.tcdm_requests

    @property
    def runtime_imbalance(self) -> float:
        """Relative spread of per-core completion times (max/mean - 1)."""
        if not self.cores:
            return 0.0
        import numpy as np

        per_core = [core.cycles for core in self.cores]
        mean = float(np.mean(per_core))
        if mean == 0:
            return 0.0
        return max(per_core) / mean - 1.0

    @property
    def core_cycle_distribution(self) -> List[int]:
        """Per-core completion cycles, used by the scaleout imbalance model."""
        return [core.cycles for core in self.cores]

    def activity(self) -> ActivityCounters:
        """Summarize the run into serializable aggregate activity counters."""
        return ActivityCounters(
            int_retired=sum(core.int_retired for core in self.cores),
            fp_issued=sum(core.fp_issued for core in self.cores),
            fp_compute=sum(core.fp_compute for core in self.cores),
            flops=self.total_flops,
            tcdm_requests=self.tcdm_requests,
            tcdm_conflicts=self.tcdm_conflicts,
            dma_bytes=self.dma_bytes,
            core_cycles=tuple(core.cycles for core in self.cores),
        )

    @property
    def dma_utilization(self) -> float:
        """Achieved fraction of the DMA engine's peak bandwidth while busy."""
        if self.dma_busy_cycles == 0:
            return 0.0
        return self.dma_bytes / (self.dma_busy_cycles * 64.0)

    def as_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics into a dictionary (for reports)."""
        return {
            "cycles": self.cycles,
            "total_flops": self.total_flops,
            "mean_fpu_util": self.mean_fpu_util,
            "mean_ipc": self.mean_ipc,
            "flops_per_cycle": self.flops_per_cycle,
            "tcdm_conflict_rate": self.tcdm_conflict_rate,
            "runtime_imbalance": self.runtime_imbalance,
        }
