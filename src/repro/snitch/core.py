"""Snitch core model: a single-issue, in-order integer pipeline with FP offload.

The integer pipeline fetches and executes at most one instruction per cycle.
Floating-point instructions consume an integer issue slot for dispatch (the
key inefficiency of the baseline codes) and are executed by the
:class:`repro.snitch.fpu.FpuSequencer`; FREP blocks are handed to the
sequencer wholesale, freeing subsequent integer issue slots and producing the
pseudo-dual-issue behaviour exploited by the SARIS variants.

Fast path / slow path
---------------------

Instead of re-decoding the mnemonic through a long if/elif chain on every
issue, each program location is compiled **once**, on first execution, into a
small closure specialized for its instruction (operands pre-extracted,
register/memory accessors pre-bound).  The cycle loop of
:meth:`repro.snitch.cluster.SnitchCluster.run` then reduces each core's
integer issue slot to the stall/icache bookkeeping plus one closure call,
while executing exactly the same architectural and timing semantics as the
original interpreter loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import FpRegisterFile, IntRegisterFile
from repro.snitch.fpu import FpuError, FpuSequencer, FrepBlock
from repro.snitch.icache import InstructionCache
from repro.snitch.params import TimingParams
from repro.snitch.ssr import SsrUnit
from repro.snitch.tcdm import TCDM
from repro.snitch.trace import CoreStallCounters


class SimulationError(RuntimeError):
    """Raised when a program performs an unsupported or inconsistent action."""


_U32 = (1 << 32) - 1


def _to_unsigned(value: int) -> int:
    return value & _U32


class SnitchCore:
    """One cluster core: integer pipeline, FPU sequencer and SSR streamers."""

    def __init__(self, hart_id: int, program: Program, tcdm: TCDM,
                 icache: InstructionCache,
                 params: Optional[TimingParams] = None) -> None:
        self.hart_id = hart_id
        self.program = program
        self.tcdm = tcdm
        self.icache = icache
        self.params = params or TimingParams()
        self.int_regs = IntRegisterFile()
        self.fp_regs = FpRegisterFile()
        self.ssr = SsrUnit(tcdm, self.params)
        self.fpu = FpuSequencer(self.fp_regs, self.ssr, tcdm, self.params)
        self.pc = 0
        self.finished = False
        self.finish_cycle: Optional[int] = None
        self.int_retired = 0
        self.stalls = CoreStallCounters()
        self._stall_until = 0
        self._plen = len(program)
        #: Packed icache-key base for this hart (see InstructionCache.lookup).
        self._line_base = hart_id * InstructionCache._HART_SHIFT
        #: Per-pc compiled instruction handlers, built lazily on first issue.
        self._handlers: List[Optional[Callable[[int], None]]] = [None] * self._plen
        #: Per-pc "icache line known resident" memo, used by the engine only
        #: while no eviction is possible (lines never leave the cache then).
        self._resident: List[bool] = [False] * self._plen

    # -- public helpers ---------------------------------------------------------

    def set_reg(self, name_or_idx, value: int) -> None:
        """Set an integer register before simulation (used by tests)."""
        from repro.isa.registers import parse_int_reg

        idx = parse_int_reg(name_or_idx) if isinstance(name_or_idx, str) else name_or_idx
        self.int_regs.write(idx, value)

    # -- instruction compilation ---------------------------------------------------

    def _build_handler(self, pc: int) -> Callable[[int], None]:
        """Compile the instruction at ``pc`` into a specialized closure.

        The closure executes one issue attempt: it either retires the
        instruction (advancing ``self.pc``) or charges the appropriate stall
        counter and leaves the architectural state untouched, exactly like the
        original per-mnemonic interpreter.
        """
        core = self
        inst = self.program[pc]
        m = inst.mnemonic
        regs = self.int_regs._regs  # direct read view; writes go through write()
        wreg = self.int_regs.write
        stalls = self.stalls
        tcdm = self.tcdm
        pc1 = pc + 1
        rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
        imm = inst.imm if inst.imm is not None else 0

        if inst.is_fp:
            handler = self._build_fp_dispatch(inst, pc)
        elif m == "frep.o":
            handler = self._build_frep_dispatch(inst, pc)
        elif m.startswith("ssr."):
            handler = self._build_ssr_handler(inst, pc)
        elif inst.is_branch:
            handler = self._build_branch_handler(inst, pc)
        elif m in ("j", "jal", "jalr"):
            handler = self._build_jump_handler(inst, pc)
        elif m in ("lw", "lh", "lhu", "lb", "lbu", "sw", "sh", "sb"):
            is_store = m in ("sw", "sh", "sb")

            def handler(cycle, _m=m, _store=is_store):
                addr = (regs[rs1] + imm) & _U32
                if not tcdm.request(addr, write=_store):
                    stalls.lsu_conflict += 1
                    return
                if _m == "lw":
                    wreg(rd, tcdm.read_i32(addr))
                elif _m == "lh":
                    wreg(rd, tcdm.read_i16(addr))
                elif _m == "lhu":
                    wreg(rd, tcdm.read_u16(addr))
                elif _m == "lb":
                    raw = tcdm.read_u8(addr)
                    wreg(rd, raw - 256 if raw >= 128 else raw)
                elif _m == "lbu":
                    wreg(rd, tcdm.read_u8(addr))
                elif _m == "sw":
                    tcdm.write_u32(addr, regs[rs2] & _U32)
                elif _m == "sh":
                    tcdm.write_u16(addr, regs[rs2] & 0xFFFF)
                else:  # sb
                    tcdm.write_u8(addr, regs[rs2] & 0xFF)
                core.int_retired += 1
                core.pc = pc1
        elif m == "csrr":
            csr = inst.csr

            def handler(cycle):
                if csr == "mhartid":
                    wreg(rd, core.hart_id)
                elif csr == "mcycle":
                    wreg(rd, cycle)
                else:  # minstret
                    wreg(rd, core.int_retired + core.fpu.stats.issued_total)
                core.int_retired += 1
                core.pc = pc1
        elif m in ("div", "divu", "rem", "remu"):
            handler = self._build_div_handler(inst, pc)
        else:
            handler = self._build_alu_handler(inst, pc)
        self._handlers[pc] = handler
        return handler

    #: Value computation per ALU mnemonic, applied before the 32-bit wrap.
    _ALU_RR = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "sll": lambda a, b: a << (b & 31),
        "srl": lambda a, b: (a & _U32) >> (b & 31),
        "sra": lambda a, b: a >> (b & 31),
        "slt": lambda a, b: int(a < b),
        "sltu": lambda a, b: int((a & _U32) < (b & _U32)),
        "mul": lambda a, b: a * b,
        "mulh": lambda a, b: (a * b) >> 32,
    }
    _ALU_RI = {
        "addi": lambda a, imm: a + imm,
        "andi": lambda a, imm: a & imm,
        "ori": lambda a, imm: a | imm,
        "xori": lambda a, imm: a ^ imm,
        "slli": lambda a, imm: a << (imm & 31),
        "srli": lambda a, imm: (a & _U32) >> (imm & 31),
        "srai": lambda a, imm: a >> (imm & 31),
        "slti": lambda a, imm: int(a < imm),
        "sltiu": lambda a, imm: int((a & _U32) < (imm & _U32)),
    }

    def _build_alu_handler(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        pc1 = pc + 1
        rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
        imm = inst.imm if inst.imm is not None else 0
        rr = self._ALU_RR.get(m)
        ri = self._ALU_RI.get(m)

        # One tiny closure per instruction with the register-file write (32-bit
        # wrap, x0 discard) inlined; x0 destinations compile to a pure retire.
        if rd == 0 or m == "nop":
            if m not in self._ALU_RR and m not in self._ALU_RI and \
                    m not in ("lui", "auipc", "li", "mv", "nop"):
                raise SimulationError(f"unsupported integer instruction {m!r}")

            def handler(cycle):
                core.int_retired += 1
                core.pc = pc1
        elif rr is not None:
            def handler(cycle):
                value = rr(regs[rs1], regs[rs2]) & _U32
                regs[rd] = value - 0x1_0000_0000 if value >= 0x8000_0000 else value
                core.int_retired += 1
                core.pc = pc1
        elif ri is not None:
            def handler(cycle):
                value = ri(regs[rs1], imm) & _U32
                regs[rd] = value - 0x1_0000_0000 if value >= 0x8000_0000 else value
                core.int_retired += 1
                core.pc = pc1
        elif m in ("lui", "li"):
            raw = (imm << 12) if m == "lui" else imm
            raw &= _U32
            value = raw - 0x1_0000_0000 if raw >= 0x8000_0000 else raw

            def handler(cycle):
                regs[rd] = value
                core.int_retired += 1
                core.pc = pc1
        elif m == "auipc":
            base = imm << 12

            def handler(cycle):
                value = (base + core.pc) & _U32
                regs[rd] = value - 0x1_0000_0000 if value >= 0x8000_0000 else value
                core.int_retired += 1
                core.pc = pc1
        elif m == "mv":
            def handler(cycle):
                regs[rd] = regs[rs1]
                core.int_retired += 1
                core.pc = pc1
        else:  # pragma: no cover - mnemonic table is static
            raise SimulationError(f"unsupported integer instruction {m!r}")
        return handler

    def _build_div_handler(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        """Division / remainder with RISC-V semantics.

        Signed ``div``/``rem`` truncate toward zero and the quotient is
        computed with exact integer arithmetic (the original model divided
        through a 64-bit float, which silently loses precision for large
        32-bit operands).  Division by zero yields all-ones / the dividend as
        the ISA specifies.
        """
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        wreg = self.int_regs.write
        stalls = self.stalls
        pc1 = pc + 1
        rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2
        latency = self.params.div_latency
        is_div = m.startswith("div")
        is_unsigned = m.endswith("u")

        def handler(cycle):
            stalls.div += latency
            core._stall_until = cycle + 1 + latency
            a = regs[rs1]
            b = regs[rs2]
            if b == 0:
                result = -1 if is_div else a
            elif is_unsigned:
                ua = a & _U32
                ub = b & _U32
                quotient = ua // ub
                result = quotient if is_div else ua - quotient * ub
            else:
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                result = quotient if is_div else a - quotient * b
            wreg(rd, result)
            core.int_retired += 1
            core.pc = pc1

        return handler

    def _build_branch_handler(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        stalls = self.stalls
        pc1 = pc + 1
        rs1, rs2 = inst.rs1, inst.rs2
        target = inst.target_idx
        penalty = self.params.branch_taken_penalty

        # One closure per comparison kind with the compare inlined.
        if m == "beq":
            def handler(cycle):
                core.int_retired += 1
                if regs[rs1] == regs[rs2]:
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1
        elif m == "bne":
            def handler(cycle):
                core.int_retired += 1
                if regs[rs1] != regs[rs2]:
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1
        elif m == "blt":
            def handler(cycle):
                core.int_retired += 1
                if regs[rs1] < regs[rs2]:
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1
        elif m == "bge":
            def handler(cycle):
                core.int_retired += 1
                if regs[rs1] >= regs[rs2]:
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1
        elif m == "bltu":
            def handler(cycle):
                core.int_retired += 1
                if (regs[rs1] & _U32) < (regs[rs2] & _U32):
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1
        else:  # bgeu
            def handler(cycle):
                core.int_retired += 1
                if (regs[rs1] & _U32) >= (regs[rs2] & _U32):
                    core.pc = target
                    if penalty:
                        stalls.branch += penalty
                        core._stall_until = cycle + 1 + penalty
                else:
                    core.pc = pc1

        return handler

    def _build_jump_handler(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        wreg = self.int_regs.write
        stalls = self.stalls
        pc1 = pc + 1
        rd, rs1 = inst.rd, inst.rs1
        imm = inst.imm if inst.imm is not None else 0
        target = inst.target_idx
        penalty = self.params.branch_taken_penalty

        def handler(cycle):
            core.int_retired += 1
            if m == "j":
                core.pc = target
            elif m == "jal":
                if rd is not None:
                    wreg(rd, pc1)
                core.pc = target
            else:  # jalr — mask to the 32-bit space like every other address
                if rd is not None:
                    wreg(rd, pc1)
                core.pc = (regs[rs1] + imm) & _U32
            if penalty:
                stalls.branch += penalty
                core._stall_until = cycle + 1 + penalty

        return handler

    def _build_fp_dispatch(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        stalls = self.stalls
        fpu = self.fpu
        queue = fpu._queue
        depth = self.params.offload_queue_depth
        pc1 = pc + 1
        rs1 = inst.rs1
        imm = inst.imm if inst.imm is not None else 0
        is_mem = m in ("fld", "fsd")
        is_cvt = m == "fcvt.d.w"
        decoded = fpu._dcache.get(id(inst))
        if decoded is None:
            decoded = fpu._decode(inst)

        if is_mem:
            def handler(cycle):
                if len(queue) >= depth:
                    stalls.offload_full += 1
                    return
                queue.append((inst, (regs[rs1] + imm) & _U32, decoded))
                core.pc = pc1
        elif is_cvt:
            def handler(cycle):
                if len(queue) >= depth:
                    stalls.offload_full += 1
                    return
                queue.append((inst, regs[rs1], decoded))
                core.pc = pc1
        else:
            # Address-free dispatch: the queue entry is invariant, so one
            # preallocated tuple serves every dispatch of this instruction.
            entry = (inst, None, decoded)

            def handler(cycle):
                if len(queue) >= depth:
                    stalls.offload_full += 1
                    return
                queue.append(entry)
                core.pc = pc1

        return handler

    def _build_frep_dispatch(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        fpu = self.fpu
        stalls = self.stalls
        count = inst.imm
        rs1 = inst.rs1
        regs = self.int_regs._regs
        body = self.program.instructions[pc + 1:pc + 1 + count]
        if len(body) != count:
            raise SimulationError(
                f"hart {self.hart_id}: FREP block at pc {pc} runs past the "
                "end of the program"
            )
        for fp_inst in body:
            if not fp_inst.is_fp:
                raise SimulationError(
                    f"hart {self.hart_id}: non-FP instruction "
                    f"{fp_inst.mnemonic!r} inside FREP block at pc {pc}"
                )
        pc_after = pc + 1 + count
        depth = self.params.offload_queue_depth

        def handler(cycle):
            if len(fpu._queue) >= depth:
                stalls.offload_full += 1
                return
            reps = regs[rs1]
            if reps <= 0:
                core.pc = pc_after
                core.int_retired += 1
                return
            try:
                fpu.offload_frep(FrepBlock(instructions=body, reps=reps))
            except FpuError as exc:
                raise SimulationError(str(exc)) from exc
            core.int_retired += 1
            core.pc = pc_after

        return handler

    def _build_ssr_handler(self, inst: Instruction, pc: int) -> Callable[[int], None]:
        core = self
        m = inst.mnemonic
        regs = self.int_regs._regs
        stalls = self.stalls
        ssr = self.ssr
        pc1 = pc + 1
        rs1, rs2 = inst.rs1, inst.rs2
        imm2 = inst.imm2

        def retire():
            core.int_retired += 1
            core.pc = pc1

        if m == "ssr.enable":
            def handler(cycle):
                ssr.enabled = True
                retire()
        elif m == "ssr.disable":
            def handler(cycle):
                ssr.enabled = False
                retire()
        elif m in ("ssr.cfg.repeat", "ssr.commit"):
            def handler(cycle):
                retire()
        elif m == "ssr.barrier":
            fpu = self.fpu

            def handler(cycle):
                if fpu._current is not None or fpu._queue or not ssr.all_writes_drained():
                    stalls.barrier += 1
                    return
                retire()
        else:
            mover = ssr.mover(inst.imm)
            if m == "ssr.cfg.idx":
                def handler(cycle):
                    mover.cfg_indirect(regs[rs1], regs[rs2])
                    retire()
            elif m == "ssr.cfg.idxsize":
                def handler(cycle):
                    mover.cfg_idx_size(imm2)
                    retire()
            elif m == "ssr.cfg.dims":
                def handler(cycle):
                    mover.cfg_dims(imm2)
                    retire()
            elif m == "ssr.cfg.bound":
                def handler(cycle):
                    mover.cfg_bound(imm2, regs[rs1])
                    retire()
            elif m == "ssr.cfg.stride":
                def handler(cycle):
                    mover.cfg_stride(imm2, regs[rs1])
                    retire()
            elif m == "ssr.cfg.base":
                def handler(cycle):
                    mover.cfg_base(regs[rs1] & _U32)
                    retire()
            elif m == "ssr.cfg.write":
                def handler(cycle):
                    mover.cfg_write(bool(imm2))
                    retire()
            elif m == "ssr.launch":
                def handler(cycle):
                    # Inline busy() for the retry spin: an indirect read
                    # stream is in flight while it has unfetched or
                    # unconsumed elements.
                    if (mover._remaining > 0 or mover._affine_remaining > 0
                            or mover._fifo):
                        stalls.ssr_launch += 1
                        return
                    if not mover.launch(regs[rs1] & _U32):
                        stalls.ssr_launch += 1
                        return
                    retire()
            elif m == "ssr.start":
                def handler(cycle):
                    if not mover.start_affine():
                        stalls.ssr_launch += 1
                        return
                    retire()
            else:  # pragma: no cover - mnemonic table is static
                raise SimulationError(f"unsupported SSR instruction {m!r}")
        return handler
