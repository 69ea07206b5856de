"""Performance counters and result containers for cluster simulations.

Each simulated core's counters are declared once, here: :class:`FpuStats`
and :class:`CoreStallCounters`.  The native engine's ``NatCore`` record
(``native/engine.c``) carries fields of the same names, so packing and
unpacking a record and :meth:`CoreStats.collect` loop over the declared
names for both engines: a new counter is one slot or field here and one
field in ``NatCore``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Tuple


class FpuStats:
    """Issue and stall counters of one FPU sequencer.

    Every slot but ``flops`` is a cycle class: each cycle on which a live
    core's FPU issue slot runs charges exactly one of the three issue
    classes (compute: ``fadd``/``fmul``/FMA/...; memory: ``fld``/``fsd``;
    move: ``fsgnj*``/``fmv``/``fabs``/``fcvt``), one of the four stall
    classes, or ``idle_empty``.  The classes of a finished core sum to its
    ``CoreStats.cycles`` plus one: the FPU slot also runs on the finish
    cycle, ahead of the integer slot that marks the core finished, while
    ``cycles`` is ``finish_cycle - start``.
    """

    __slots__ = ("issued_compute", "issued_mem", "issued_move", "flops",
                 "stall_ssr_read", "stall_ssr_write", "stall_raw",
                 "stall_mem", "idle_empty")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def issued_total(self) -> int:
        """Total FP instructions issued."""
        return self.issued_compute + self.issued_mem + self.issued_move


@dataclass
class CoreStallCounters:
    """Breakdown of integer-pipeline stall cycles by cause."""

    offload_full: int = 0
    ssr_launch: int = 0
    barrier: int = 0
    icache: int = 0
    branch: int = 0
    lsu_conflict: int = 0
    div: int = 0

    def total(self) -> int:
        """Total stall cycles attributed to the integer pipeline."""
        return sum(_stall_values(self))

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return dict(zip(STALL_COUNTERS, _stall_values(self)))


#: Every counter of one core, by name: ``NatCore`` has a field of each name.
FPU_COUNTERS = FpuStats.__slots__
STALL_COUNTERS = tuple(f.name for f in fields(CoreStallCounters))

_stall_values = attrgetter(*STALL_COUNTERS)
_FPU_STALLS = tuple(name for name in FPU_COUNTERS
                    if name.startswith("stall_"))
_fpu_stall_values = attrgetter(*_FPU_STALLS)
#: ``CoreStats.fpu_stalls`` keys: the stall classes without their prefix.
_FPU_STALL_KEYS = tuple(name[len("stall_"):] for name in _FPU_STALLS)


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

    @classmethod
    def collect(cls, hart_id: int, cycles: int, int_retired: int, fpu,
                stalls) -> "CoreStats":
        """One core's statistics from its counters: ``fpu`` reads like
        :class:`FpuStats` and ``stalls`` like :class:`CoreStallCounters`
        (a Python core's own, or one native ``NatCore`` record for both)."""
        compute = fpu.issued_compute
        # Positional: one run builds a record per core on its timed path.
        return cls(hart_id, cycles, int_retired,
                   compute + fpu.issued_mem + fpu.issued_move, compute,
                   fpu.flops, dict(zip(STALL_COUNTERS, _stall_values(stalls))),
                   dict(zip(_FPU_STALL_KEYS, _fpu_stall_values(fpu))))

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
