"""FPU sequencer: offloaded floating-point execution with FREP support.

Snitch couples a minimal integer core to a double-precision FPU through an
offload queue; the FREP hardware loop additionally lets the FPU sequencer
repeat a short buffer of FP instructions without occupying integer issue
slots, which is what enables the pseudo-dual-issue behaviour the paper relies
on for near-ideal FPU utilization.

The sequencer model here issues at most one FP instruction per cycle, in
order, and stalls on:

* empty SSR read FIFOs (operand not yet streamed from TCDM),
* full SSR write FIFOs,
* RAW hazards on the FP register file (pipelined FPU with a fixed latency),
* TCDM bank conflicts for ``fld``/``fsd``.

Functional execution happens at issue time; the latency scoreboard only
affects *when* dependent instructions may issue, keeping functional and
timing behaviour cleanly separated.

Fast path / slow path
---------------------

Each :class:`Instruction` is compiled **once** into an *issue closure* that
performs the readiness checks (RAW scoreboard, stream FIFO levels, TCDM bank
for memory ops) and the functional execution for exactly that instruction,
with operand registers, latencies and accessors pre-bound.  The closures are
cached per sequencer; an FREP block carries the closure plan for its whole
body, so the steady state — where the same few instructions retire thousands
of times — runs without any per-issue decoding.  The FPU issue slot of
:meth:`repro.snitch.cluster.SnitchCluster.run` is then queue bookkeeping
plus one closure call, charging exactly the same stall and issue counters
as the original if/elif-chained interpreter.

One ordering note: the original scanned sources left to right, attributing a
stall to the RAW scoreboard the moment it found a busy register-file source
and only then checking stream-FIFO levels.  Since a single tick increments
exactly one stall counter, checking *all* scoreboard sources before the FIFO
levels is attribution-equivalent (raw wins over ssr_read, which wins over
ssr_write), which is what the closures do.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.isa.instruction import Instruction
from repro.isa.registers import FpRegisterFile
from repro.snitch.params import TimingParams
from repro.snitch.ssr import SsrUnit
from repro.snitch.tcdm import TCDM
from repro.snitch.trace import FpuStats


class FpuError(RuntimeError):
    """Raised on invalid FPU sequencer usage (e.g. memory ops inside FREP)."""


@dataclass
class FrepBlock:
    """A hardware-loop block: ``reps`` repetitions of a short FP sequence."""

    instructions: List[Instruction]
    reps: int

    def __post_init__(self) -> None:
        for inst in self.instructions:
            if inst.mnemonic in ("fld", "fsd"):
                raise FpuError(
                    "FP memory instructions are not allowed inside FREP blocks"
                )
        if self.reps < 1:
            raise FpuError(f"FREP repetition count must be >= 1, got {self.reps}")


#: Queue entries: an (instruction, dispatch address, issue closure) triple or
#: a whole FREP block.
_QueueItem = Union[Tuple[Instruction, Optional[int], Callable], FrepBlock]


_unpack_f64 = struct.Struct("<d").unpack_from
_pack_f64 = struct.Struct("<d").pack_into

_ARITH2_FN = {
    "fadd.d": lambda a, b: a + b,
    "fsub.d": lambda a, b: a - b,
    "fmul.d": lambda a, b: a * b,
    "fdiv.d": lambda a, b: a / b,
    "fmin.d": lambda a, b: min(a, b),
    "fmax.d": lambda a, b: max(a, b),
    "fsgnj.d": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "fsgnjn.d": lambda a, b: abs(a) if b < 0 else -abs(a),
    "fsgnjx.d": lambda a, b: a if b >= 0 else -a,
}

_FMA3_FN = {
    "fmadd.d": lambda a, b, c: a * b + c,
    "fmsub.d": lambda a, b, c: a * b - c,
    "fnmadd.d": lambda a, b, c: -(a * b) - c,
    "fnmsub.d": lambda a, b, c: -(a * b) + c,
}

_MOVE1_FN = {
    "fmv.d": lambda a: a,
    "fabs.d": lambda a: abs(a),
}


class FpuSequencer:
    """In-order, single-issue FPU with offload queue and FREP repetition."""

    def __init__(self, fp_regs: FpRegisterFile, ssr: SsrUnit, tcdm: TCDM,
                 params: Optional[TimingParams] = None) -> None:
        self.fp_regs = fp_regs
        self.ssr = ssr
        self.tcdm = tcdm
        self.params = params or TimingParams()
        self._queue: Deque[_QueueItem] = deque()
        self._current: Optional[_QueueItem] = None
        self._block_inst_idx = 0
        self._block_rep_idx = 0
        self._scoreboard: List[int] = [0] * 32  # per-FP-reg busy-until cycle
        #: The three stream FIFOs, pre-resolved (the deques are never replaced).
        self._fifos = tuple(m._fifo for m in ssr.movers)
        #: Issue-closure cache, keyed by id(inst); instructions live as long
        #: as the program they belong to, which outlives the sequencer.
        self._dcache: Dict[int, Callable] = {}
        #: Granted fld/fsd requests already settled into the TCDM counters.
        self._flushed_mem = 0
        self.stats = FpuStats()

    def flush_tcdm_stats(self) -> None:
        """Settle granted fld/fsd requests into the shared TCDM counters.

        Every issued memory instruction corresponds to exactly one granted
        TCDM request (denials are charged eagerly), so the owed grant count
        is simply ``issued_mem``.
        """
        delta = self.stats.issued_mem - self._flushed_mem
        if delta:
            tcdm = self.tcdm
            tcdm.total_requests += delta
            tcdm.granted_requests += delta
            self._flushed_mem = self.stats.issued_mem

    # -- integer-core facing interface ---------------------------------------

    def can_offload(self) -> bool:
        """Whether the offload queue can accept another item this cycle."""
        return len(self._queue) < self.params.offload_queue_depth

    def offload(self, inst: Instruction, address: Optional[int] = None) -> None:
        """Dispatch a single FP instruction (with a precomputed address if any)."""
        if not self.can_offload():
            raise FpuError("offload queue overflow")
        issue = self._dcache.get(id(inst))
        if issue is None:
            issue = self._decode(inst)
        self._queue.append((inst, address, issue))

    def offload_frep(self, block: FrepBlock) -> None:
        """Dispatch an FREP block to the sequencer."""
        if not self.can_offload():
            raise FpuError("offload queue overflow")
        if len(block.instructions) > self.params.frep_max_insts:
            raise FpuError(
                f"FREP block of {len(block.instructions)} instructions exceeds "
                f"the {self.params.frep_max_insts}-entry repetition buffer"
            )
        dcache = self._dcache
        block._plan = [dcache.get(id(inst)) or self._decode(inst)
                       for inst in block.instructions]
        block._plan_len = len(block._plan)
        self._queue.append(block)

    def busy(self) -> bool:
        """Whether any offloaded work is still pending."""
        return self._current is not None or bool(self._queue)

    # -- instruction compilation -----------------------------------------------

    def _decode(self, inst: Instruction) -> Callable:
        """Compile ``inst`` into its cached ``issue(cycle, address)`` closure.

        The closure returns ``True`` when the instruction issued this cycle
        and ``False`` after charging exactly one stall counter.
        """
        m = inst.mnemonic
        fmt = inst.fmt
        srcs: List[int] = []
        if "frs1" in fmt and inst.rs1 is not None:
            srcs.append(inst.rs1)
        if "frs2" in fmt and inst.rs2 is not None:
            srcs.append(inst.rs2)
        if "frs3" in fmt and inst.rs3 is not None:
            srcs.append(inst.rs3)
        dest = inst.rd if "frd" in fmt else None
        params = self.params
        if m in _FMA3_FN:
            issue = self._compile_fma3(srcs, dest, params.fpu_latency,
                                       _FMA3_FN[m], inst.flops)
        elif m in _ARITH2_FN:
            latency = params.fpu_latency + (8 if m == "fdiv.d" else 0)
            issue = self._compile_arith2(srcs, dest, latency, _ARITH2_FN[m],
                                         inst.flops, inst.is_fp_compute)
        elif m in _MOVE1_FN:
            issue = self._compile_move1(srcs, dest, _MOVE1_FN[m])
        elif m == "fcvt.d.w":
            issue = self._compile_cvt(dest, params.fpu_latency)
        elif m == "fld":
            issue = self._compile_load(dest, params.fpu_load_latency)
        elif m == "fsd":
            issue = self._compile_store(srcs)
        else:
            raise FpuError(f"unsupported FP mnemonic {m!r}")
        self._dcache[id(inst)] = issue
        return issue

    def _compile_writeback(self, dest: int, latency: int):
        """Destination writer: stream push when mapped for writing, else
        register write plus scoreboard entry (matching the original
        ``_write_dest``)."""
        ssr = self.ssr
        regs = self.fp_regs._regs
        scoreboard = self._scoreboard
        mover = ssr.movers[dest] if dest < len(ssr.movers) else None

        if mover is None:
            def write(result, cycle):
                regs[dest] = result
                scoreboard[dest] = cycle + latency
        else:
            cfg = mover.cfg
            fifo = mover._fifo

            def write(result, cycle):
                if ssr.enabled and cfg.write:
                    fifo.append(result)
                    mover._active = True
                    ssr._any_active = True
                else:
                    regs[dest] = result
                    scoreboard[dest] = cycle + latency
        return write

    def _ready_guard(self, srcs: List[int], dest: Optional[int]):
        """Readiness closure: charges one stall counter or returns True."""
        ssr = self.ssr
        fifos = self._fifos
        movers = ssr.movers
        scoreboard = self._scoreboard
        stats = self.stats
        num_streams = len(ssr.movers)
        needs = [(reg, srcs.count(reg))
                 for reg in sorted(set(srcs)) if reg < num_streams]
        sbregs = tuple(reg for reg in srcs if reg >= 3)
        dest_mover = (movers[dest]
                      if dest is not None and dest < len(movers) else None)

        def ready(cycle):
            if ssr.enabled:
                for reg in sbregs:
                    if scoreboard[reg] > cycle:
                        stats.stall_raw += 1
                        return False
                for reg, count in needs:
                    if len(fifos[reg]) < count:
                        stats.stall_ssr_read += 1
                        return False
                if dest_mover is not None and dest_mover.cfg.write \
                        and len(dest_mover._fifo) >= dest_mover._fifo_depth:
                    stats.stall_ssr_write += 1
                    return False
            else:
                for reg in srcs:
                    if scoreboard[reg] > cycle:
                        stats.stall_raw += 1
                        return False
            return True
        return ready

    def _compile_fma3(self, srcs, dest, latency, fn, flops):
        ssr = self.ssr
        fifos = self._fifos
        regs = self.fp_regs._regs
        scoreboard = self._scoreboard
        stats = self.stats
        r1, r2, r3 = srcs
        num_streams = len(ssr.movers)
        needs = [(reg, srcs.count(reg))
                 for reg in sorted(set(srcs)) if reg < num_streams]
        sbregs = tuple(reg for reg in srcs if reg >= 3)
        movers = ssr.movers
        dest_mover = movers[dest] if dest < len(movers) else None
        dest_cfg = dest_mover.cfg if dest_mover is not None else None
        dest_fifo = dest_mover._fifo if dest_mover is not None else None
        dest_depth = dest_mover._fifo_depth if dest_mover is not None else 0

        def issue(cycle, address):
            if ssr.enabled:
                for reg in sbregs:
                    if scoreboard[reg] > cycle:
                        stats.stall_raw += 1
                        return False
                for reg, count in needs:
                    if len(fifos[reg]) < count:
                        stats.stall_ssr_read += 1
                        return False
                if dest_mover is not None and dest_cfg.write:
                    if len(dest_fifo) >= dest_depth:
                        stats.stall_ssr_write += 1
                        return False
                    a = fifos[r1].popleft() if r1 < num_streams else regs[r1]
                    b = fifos[r2].popleft() if r2 < num_streams else regs[r2]
                    c = fifos[r3].popleft() if r3 < num_streams else regs[r3]
                    stats.issued_compute += 1
                    stats.flops += flops
                    dest_fifo.append(fn(a, b, c))
                    dest_mover._active = True
                    ssr._any_active = True
                    return True
                a = fifos[r1].popleft() if r1 < num_streams else regs[r1]
                b = fifos[r2].popleft() if r2 < num_streams else regs[r2]
                c = fifos[r3].popleft() if r3 < num_streams else regs[r3]
            else:
                if (scoreboard[r1] > cycle or scoreboard[r2] > cycle
                        or scoreboard[r3] > cycle):
                    stats.stall_raw += 1
                    return False
                a = regs[r1]
                b = regs[r2]
                c = regs[r3]
            stats.issued_compute += 1
            stats.flops += flops
            regs[dest] = fn(a, b, c)
            scoreboard[dest] = cycle + latency
            return True
        return issue

    def _compile_arith2(self, srcs, dest, latency, fn, flops, is_fpc):
        ssr = self.ssr
        fifos = self._fifos
        regs = self.fp_regs._regs
        scoreboard = self._scoreboard
        stats = self.stats
        r1, r2 = srcs
        num_streams = len(ssr.movers)
        needs = [(reg, srcs.count(reg))
                 for reg in sorted(set(srcs)) if reg < num_streams]
        sbregs = tuple(reg for reg in srcs if reg >= 3)
        movers = ssr.movers
        dest_mover = movers[dest] if dest < len(movers) else None
        dest_cfg = dest_mover.cfg if dest_mover is not None else None
        dest_fifo = dest_mover._fifo if dest_mover is not None else None
        dest_depth = dest_mover._fifo_depth if dest_mover is not None else 0

        def issue(cycle, address):
            if ssr.enabled:
                for reg in sbregs:
                    if scoreboard[reg] > cycle:
                        stats.stall_raw += 1
                        return False
                for reg, count in needs:
                    if len(fifos[reg]) < count:
                        stats.stall_ssr_read += 1
                        return False
                if dest_mover is not None and dest_cfg.write:
                    if len(dest_fifo) >= dest_depth:
                        stats.stall_ssr_write += 1
                        return False
                    a = fifos[r1].popleft() if r1 < num_streams else regs[r1]
                    b = fifos[r2].popleft() if r2 < num_streams else regs[r2]
                    if is_fpc:
                        stats.issued_compute += 1
                        stats.flops += flops
                    else:
                        stats.issued_move += 1
                    dest_fifo.append(fn(a, b))
                    dest_mover._active = True
                    ssr._any_active = True
                    return True
                a = fifos[r1].popleft() if r1 < num_streams else regs[r1]
                b = fifos[r2].popleft() if r2 < num_streams else regs[r2]
            else:
                if scoreboard[r1] > cycle or scoreboard[r2] > cycle:
                    stats.stall_raw += 1
                    return False
                a = regs[r1]
                b = regs[r2]
            if is_fpc:  # the fsgnj* moves share the two-operand form
                stats.issued_compute += 1
                stats.flops += flops
            else:
                stats.issued_move += 1
            regs[dest] = fn(a, b)
            scoreboard[dest] = cycle + latency
            return True
        return issue

    def _compile_move1(self, srcs, dest, fn):
        ssr = self.ssr
        fifos = self._fifos
        regs = self.fp_regs._regs
        stats = self.stats
        r1 = srcs[0]
        ready = self._ready_guard(srcs, dest)
        write = self._compile_writeback(dest, 1)

        def issue(cycle, address):
            if not ready(cycle):
                return False
            a = (fifos[r1].popleft()
                 if ssr.enabled and r1 < num_streams else regs[r1])
            stats.issued_move += 1
            write(fn(a), cycle)
            return True
        return issue

    def _compile_cvt(self, dest, latency):
        stats = self.stats
        ready = self._ready_guard([], dest)
        write = self._compile_writeback(dest, latency)

        def issue(cycle, address):
            if not ready(cycle):
                return False
            stats.issued_move += 1
            # The integer source value is captured at dispatch time and passed
            # through `address` to avoid a reverse dependency on the live
            # integer register file.
            write(float(address or 0), cycle)
            return True
        return issue

    def _compile_load(self, dest, latency):
        ssr = self.ssr
        regs = self.fp_regs._regs
        scoreboard = self._scoreboard
        tcdm = self.tcdm
        stats = self.stats
        busy_banks = tcdm._busy_banks
        bank_width = tcdm.bank_width
        num_banks = tcdm.num_banks
        data = tcdm._data
        base = tcdm.base
        limit = tcdm.size - 8
        movers = ssr.movers
        dest_mover = movers[dest] if dest < len(movers) else None
        dest_cfg = dest_mover.cfg if dest_mover is not None else None
        dest_fifo = dest_mover._fifo if dest_mover is not None else None
        dest_depth = dest_mover._fifo_depth if dest_mover is not None else 0

        def issue(cycle, address):
            stream_dest = (dest_mover is not None and ssr.enabled
                           and dest_cfg.write)
            if stream_dest and len(dest_fifo) >= dest_depth:
                stats.stall_ssr_write += 1
                return False
            bank = (address // bank_width) % num_banks
            if bank in busy_banks:
                tcdm.total_requests += 1
                tcdm.conflicts += 1
                stats.stall_mem += 1
                return False
            busy_banks.add(bank)
            stats.issued_mem += 1  # grant settled via flush_tcdm_stats()
            offset = address - base
            if 0 <= offset <= limit:
                value = _unpack_f64(data, offset)[0]
            else:
                value = tcdm.read_f64(address)  # raises the usual range error
            if stream_dest:
                dest_fifo.append(value)
                dest_mover._active = True
                ssr._any_active = True
            else:
                regs[dest] = value
                scoreboard[dest] = cycle + latency
            return True
        return issue

    def _compile_store(self, srcs):
        ssr = self.ssr
        fifos = self._fifos
        regs = self.fp_regs._regs
        scoreboard = self._scoreboard
        tcdm = self.tcdm
        stats = self.stats
        busy_banks = tcdm._busy_banks
        bank_width = tcdm.bank_width
        num_banks = tcdm.num_banks
        data = tcdm._data
        base = tcdm.base
        limit = tcdm.size - 8
        r2 = srcs[0]
        r2_streamable = r2 < len(ssr.movers)

        def issue(cycle, address):
            enabled = ssr.enabled
            if enabled and r2_streamable:
                if not fifos[r2]:
                    stats.stall_ssr_read += 1
                    return False
            elif scoreboard[r2] > cycle:
                stats.stall_raw += 1
                return False
            bank = (address // bank_width) % num_banks
            if bank in busy_banks:
                tcdm.total_requests += 1
                tcdm.conflicts += 1
                stats.stall_mem += 1
                return False
            busy_banks.add(bank)
            stats.issued_mem += 1  # grant settled via flush_tcdm_stats()
            if enabled and r2_streamable:
                value = fifos[r2].popleft()
            else:
                value = regs[r2]
            offset = address - base
            if 0 <= offset <= limit:
                _pack_f64(data, offset, value)
            else:
                tcdm.write_f64(address, value)  # raises the usual range error
            return True
        return issue

    # -- introspection -----------------------------------------------------------

    def _peek_instruction(self) -> Tuple[Instruction, Optional[int]]:
        """Return the instruction (and address) the sequencer would issue next."""
        if self._current.__class__ is FrepBlock:
            return self._current.instructions[self._block_inst_idx], None
        return self._current[0], self._current[1]

    @property
    def scoreboard(self) -> Dict[int, int]:
        """Expose the latency scoreboard (read-only use in tests)."""
        return {reg: until for reg, until in enumerate(self._scoreboard) if until}
