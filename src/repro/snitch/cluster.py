"""The eight-core Snitch cluster: cores, TCDM, instruction cache and DMA.

Fast path / slow path
---------------------

The simulation loop in :meth:`SnitchCluster.run` is still a faithful
cycle-by-cycle model — every live component is stepped once per cycle in a
fixed rotation so TCDM bank arbitration stays bit-identical to the original
tick-everything interpreter — but it is *quiescence-aware*:

* cores that have finished are skipped outright instead of being ticked into
  an early return every cycle;
* when every live core is stalled (icache miss / divider / branch penalty)
  with an idle FPU and no stream able to make a TCDM request, the cluster
  clock fast-forwards to the earliest wake-up cycle, charging the skipped
  cycles to the same per-component idle/busy counters one-by-one ticking
  would have charged;
* the DMA engine is only ticked while it has queued or in-flight work, and
  its busy countdown participates in the fast-forward.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.isa.program import Program
from repro.snitch import native as _native
from repro.snitch.core import SnitchCore
from repro.snitch.dma import DmaEngine
from repro.snitch.fpu import FrepBlock
from repro.snitch.icache import InstructionCache
from repro.snitch.main_memory import MainMemory
from repro.snitch.params import TimingParams
from repro.snitch.ssr import SsrUnit  # noqa: F401  (re-exported convenience)
from repro.snitch.tcdm import TCDM, TcdmAllocator
from repro.snitch.trace import ClusterResult, CoreStats


class ClusterError(RuntimeError):
    """Raised when a simulation cannot complete (e.g. cycle limit exceeded)."""


class SnitchCluster:
    """Top-level simulation harness for one Snitch compute cluster.

    Typical usage::

        cluster = SnitchCluster()
        addr = cluster.alloc_f64(1024)
        cluster.tcdm.write_f64_array(addr, data)
        cluster.load_programs([program0, program1, ...])
        result = cluster.run()
    """

    def __init__(self, params: Optional[TimingParams] = None) -> None:
        self.params = params or TimingParams()
        self.tcdm = TCDM(base=self.params.tcdm_base, size=self.params.tcdm_size,
                         num_banks=self.params.tcdm_banks,
                         bank_width=self.params.tcdm_bank_width)
        self.main_memory = MainMemory(base=self.params.main_memory_base,
                                      size=self.params.main_memory_size)
        self.icache = InstructionCache(self.params)
        self.dma = DmaEngine([self.tcdm, self.main_memory], self.params)
        self.allocator = TcdmAllocator(self.tcdm)
        self._main_alloc_next = self.main_memory.base
        self._programs: List[Program] = []
        #: Built on first access of :attr:`cores`.
        self._cores: Optional[List[SnitchCore]] = None
        #: Core state a native run left in the engine's records while the
        #: cores were never built; :attr:`cores` builds them from it.
        self._native_records = None
        #: Which engine carried the last :meth:`run`: ``"native"`` or
        #: ``"python"`` (``None`` before the first run).
        self.engine: Optional[str] = None
        self.cycle = 0

    # -- memory management -------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate ``nbytes`` of TCDM and return the base address."""
        return self.allocator.alloc(nbytes, align=align)

    def alloc_f64(self, count: int, align: int = 8) -> int:
        """Allocate space for ``count`` doubles in TCDM."""
        return self.allocator.alloc_f64(count, align=align)

    def alloc_main(self, nbytes: int, align: int = 64) -> int:
        """Allocate ``nbytes`` of main memory (bump allocator)."""
        addr = (self._main_alloc_next + align - 1) // align * align
        if addr + nbytes > self.main_memory.base + self.main_memory.size:
            raise MemoryError("main memory exhausted")
        self._main_alloc_next = addr + nbytes
        return addr

    def write_grid(self, addr: int, grid: np.ndarray) -> None:
        """Write a (flattened) NumPy grid of doubles into TCDM."""
        self.tcdm.write_f64_array(addr, np.asarray(grid, dtype=np.float64).ravel())

    def read_grid(self, addr: int, shape: Sequence[int]) -> np.ndarray:
        """Read a NumPy grid of doubles of the given ``shape`` from TCDM."""
        count = int(np.prod(shape))
        return self.tcdm.read_f64_array(addr, count).reshape(tuple(shape))

    # -- program loading / execution -------------------------------------------------

    def load_programs(self, programs: Sequence[Program]) -> None:
        """Give each core one program (up to the cluster's core count)."""
        if len(programs) > self.params.num_cores:
            raise ClusterError(
                f"{len(programs)} programs for a {self.params.num_cores}-core cluster"
            )
        self._programs = list(programs)
        self._cores = None
        self._native_records = None

    @property
    def cores(self) -> List[SnitchCore]:
        """One core per loaded program, built on first access.

        A native run on a cluster whose cores were never built keeps their
        state in the engine's records; the first access then builds the
        cores from those, in the state the Python engine would have left.
        """
        cores = self._cores
        if cores is None:
            cores = self._cores = [
                SnitchCore(hart_id, program, self.tcdm, self.icache, self.params)
                for hart_id, program in enumerate(self._programs)
            ]
            records, self._native_records = self._native_records, None
            if records is not None:
                _native.unpack_cores(records, cores)
        return cores

    def run(self, max_cycles: int = 5_000_000, wait_for_dma: bool = True) -> ClusterResult:
        """Run until every core (and optionally the DMA engine) has finished."""
        if not self._programs:
            raise ClusterError("no programs loaded")
        # Symmetry-folded native engine: bit-identical to the loop below
        # (tests/test_native_engine.py), used whenever this configuration is
        # eligible; returns None to fall back to the Python engine.  It
        # marks the runs it carries in ``engine``.
        self.engine = "python"
        final_cycle = _native.execute(self, max_cycles, wait_for_dma)
        if final_cycle is not None:
            start_cycle = self.cycle
            self.tcdm.cycles += final_cycle - start_cycle
            self.cycle = final_cycle
            return self._collect_result(start_cycle)
        cores = self.cores
        num_cores = len(cores)
        dma = self.dma
        tcdm = self.tcdm
        busy_banks = tcdm._busy_banks
        icache = self.icache
        lines = icache._lines
        lines_move_to_end = lines.move_to_end
        line_insts = self.params.icache_line_insts
        line_cap = self.params.icache_lines
        miss_penalty = self.params.icache_miss_penalty
        # When the resident lines plus every line these programs could touch
        # cannot reach capacity, no eviction can ever occur and the LRU
        # recency order is unobservable — hits then skip the reorder.  (A
        # later over-capacity run on a reused cluster would start from an
        # unordered recency list; no workload does that.)
        lru_needed = (len(lines) + sum((core._plen + line_insts - 1) // line_insts
                                       for core in cores)) > line_cap
        # One record per core with every hot attribute pre-resolved; the loop
        # below steps each core's FPU issue, integer issue and SSR movers,
        # in that order.  The per-rotation record orders are prebuilt so the
        # cycle loop needs no index arithmetic.
        records = [(core, core.fpu, core.fpu.stats, core.ssr, core.ssr.movers,
                    core._handlers, core.stalls) for core in cores]
        rotations = [tuple(records[r:] + records[:r]) for r in range(num_cores)]
        cycle = self.cycle
        start_cycle = cycle
        # First cycle past the budget: a fast-forward never jumps beyond it,
        # so an over-budget run stops there exactly like the native engine.
        budget_end = start_cycle + max_cycles + 1
        num_live = sum(1 for core in cores if not core.finished)
        while True:
            if cycle - start_cycle > max_cycles:
                # Settle deferred statistics so a caller diagnosing the
                # deadlock sees consistent TCDM counters.
                tcdm.cycles += cycle - self.cycle
                self.cycle = cycle
                for core in cores:
                    core.fpu.flush_tcdm_stats()
                    core.ssr.flush_tcdm_stats()
                raise ClusterError(
                    f"simulation exceeded {max_cycles} cycles; "
                    "the program is probably deadlocked"
                )
            if num_live == 0 and (not wait_for_dma
                                  or (dma._remaining_cycles == 0 and not dma._queue)):
                break
            if num_live:
                # Cheap pre-check: a quiescent cluster needs every live FPU
                # idle, so probe the full condition only when the first live
                # core's FPU has nothing in flight.
                for record in records:
                    if not record[0].finished:
                        first_fpu = record[1]
                        break
                if first_fpu._current is None and not first_fpu._queue:
                    wake = self._quiescent_until(cycle)
                    if wake is not None and wake - cycle >= 2:
                        cycle = self._fast_forward(cycle,
                                                   min(wake, budget_end))
                        if cycle == budget_end:
                            continue  # the budget check above raises
            busy_banks.clear()
            for record in rotations[cycle % num_cores]:
                core, fpu, fpu_stats, ssr, movers, handlers, stalls = record
                if core.finished:
                    continue
                # FPU sequencer issue slot.
                current = fpu._current
                if current is None:
                    fpu_queue = fpu._queue
                    if not fpu_queue:
                        fpu_stats.idle_empty += 1
                    else:
                        current = fpu._current = fpu_queue.popleft()
                        fpu._block_inst_idx = 0
                        fpu._block_rep_idx = 0
                if current is not None:
                    if current.__class__ is FrepBlock:
                        idx = fpu._block_inst_idx
                        plan = current._plan
                        if plan[idx](cycle, None):
                            idx += 1
                            if idx >= current._plan_len:
                                fpu._block_inst_idx = 0
                                rep = fpu._block_rep_idx + 1
                                fpu._block_rep_idx = rep
                                if rep >= current.reps:
                                    fpu._current = None
                            else:
                                fpu._block_inst_idx = idx
                    elif current[2](cycle, current[1]):
                        fpu._current = None
                # Integer pipeline issue slot.
                pc = core.pc
                if pc >= core._plen:
                    if (fpu._current is None and not fpu._queue
                            and ssr.all_writes_drained()):
                        core.finished = True
                        core.finish_cycle = cycle
                        num_live -= 1
                        # fall through: movers still tick on the finish cycle
                elif cycle >= core._stall_until:
                    if core._resident[pc]:
                        # Line guaranteed in-cache (no-eviction mode memo).
                        icache.hits += 1
                        handler = handlers[pc]
                        if handler is None:
                            handler = core._build_handler(pc)
                        handler(cycle)
                    else:
                        line = core._line_base + pc // line_insts
                        if line in lines:
                            if lru_needed:
                                lines_move_to_end(line)
                            else:
                                core._resident[pc] = True
                            icache.hits += 1
                            handler = handlers[pc]
                            if handler is None:
                                handler = core._build_handler(pc)
                            handler(cycle)
                        else:
                            icache.misses += 1
                            lines[line] = True
                            if len(lines) > line_cap:
                                lines.popitem(last=False)
                            stalls.icache += miss_penalty
                            core._stall_until = cycle + miss_penalty
                # SSR data movers.
                if ssr._any_active:
                    ticked = False
                    for mover in movers:
                        if mover._active:
                            mover.tick()
                            ticked = True
                    if not ticked:
                        ssr._any_active = False
            if dma._remaining_cycles or dma._queue:
                dma.tick(cycle)
            cycle += 1
        # One arbitration cycle per simulated cycle (including fast-forwarded
        # ones), settled wholesale instead of per iteration.
        tcdm.cycles += cycle - self.cycle
        self.cycle = cycle
        return self._collect_result(start_cycle)

    # -- quiescence-aware scheduling ------------------------------------------------

    def _quiescent_until(self, cycle: int) -> Optional[int]:
        """Earliest cycle at which any live component can act again.

        Returns ``None`` unless *every* live core is stalled in its integer
        pipeline with an idle FPU and no data mover able to issue a TCDM
        request, and the DMA engine is either idle or draining a known busy
        countdown.  Under those conditions nothing observable can happen
        before the returned cycle, so the clock may jump there.
        """
        wake = None
        for core in self._cores:
            if core.finished:
                continue
            fpu = core.fpu
            if fpu._current is not None or fpu._queue:
                return None
            if core.pc >= core._plen:
                return None  # about to finish: finish_cycle must be exact
            stall_until = core._stall_until
            if stall_until <= cycle + 1:
                return None
            for mover in core.ssr.movers:
                if mover._active and (mover.cfg.write
                                      or len(mover._fifo) < mover._fifo_depth):
                    return None
            if wake is None or stall_until < wake:
                wake = stall_until
        dma = self.dma
        remaining = dma._remaining_cycles
        if dma._queue and remaining == 0:
            return None  # a queued transfer would start next tick
        if remaining:
            dma_wake = cycle + remaining
            if wake is None or dma_wake < wake:
                wake = dma_wake
        return wake

    def _fast_forward(self, cycle: int, wake: int) -> int:
        """Jump the clock to ``wake``, charging per-cycle idle/busy counters.

        ``tcdm.cycles`` needs no adjustment here: the caller settles it from
        the total cycle advance when the run loop exits.
        """
        skipped = wake - cycle
        for core in self._cores:
            if not core.finished:
                core.fpu.stats.idle_empty += skipped
        dma = self.dma
        if dma._remaining_cycles:
            burned = min(skipped, dma._remaining_cycles)
            dma._remaining_cycles -= burned
            dma.busy_cycles += burned
        return wake

    def _collect_result(self, start_cycle: int) -> ClusterResult:
        if self._cores is None:
            # A native run on cores that were never built: the statistics
            # are still in the engine's records.
            return self._result(start_cycle, _native.core_stats(
                self._native_records, start_cycle, self.cycle))
        core_stats = []
        for core in self._cores:
            # Settle the deferred granted-request counts into the TCDM totals
            # before the result reads them (see the ssr/fpu module docstrings).
            core.fpu.flush_tcdm_stats()
            core.ssr.flush_tcdm_stats()
            finish = core.finish_cycle if core.finish_cycle is not None else self.cycle
            core_stats.append(CoreStats.collect(
                core.hart_id, finish - start_cycle, core.int_retired,
                core.fpu.stats, core.stalls))
        return self._result(start_cycle, core_stats)

    def _result(self, start_cycle: int, core_stats: List[CoreStats]) -> ClusterResult:
        return ClusterResult(
            cycles=self.cycle - start_cycle,
            cores=core_stats,
            tcdm_requests=self.tcdm.total_requests,
            tcdm_conflicts=self.tcdm.conflicts,
            icache_hits=self.icache.hits,
            icache_misses=self.icache.misses,
            dma_bytes=self.dma.bytes_moved,
            dma_busy_cycles=self.dma.busy_cycles,
        )
