"""Optimized RV32G baseline code generator.

The baseline variants mirror what a good compiler produces for the plain
RV32G architecture without stream registers: explicit ``fld``/``fsd``
instructions with immediate offsets from per-plane pointer registers, loop
unrolling, latency-aware instruction scheduling (reassociation) and resident
coefficients when the register file allows it.  Every instruction — including
every load, store and address update — occupies an integer issue slot, which
is precisely the overhead SARIS removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.isa.registers import fp_reg_name
from repro.core.codegen_common import (
    AsmBuilder,
    CodegenError,
    GeneratedProgram,
    IntRegAllocator,
    ProgramTemplate,
    Same,
    Slot,
    assemble_template,
    check_imm12,
    grid_imm_offset,
    loop_strides,
    plane_key,
    planned,
    position_values,
    start_pointer_address,
)
from repro.core.layout import TileLayout
from repro.core.lowering import (
    AbstractOp,
    CoeffOperand,
    GridOperand,
    LoweredBlock,
    VReg,
    lower_block,
)
from repro.core.parallel import CoreGeometry, CoreShape
from repro.core.regalloc import linear_scan
from repro.core.schedule import ScheduledBlock, schedule_block
from repro.core.stencil import StencilKernel

#: Number of physical FP registers.
_NUM_FP_REGS = 32


@dataclass
class _BaseConfig:
    """One candidate baseline configuration (unroll factor x residency)."""

    unroll: int
    resident: bool
    scheduled: ScheduledBlock = None
    assignment: Dict[VReg, int] = field(default_factory=dict)
    resident_regs: Dict[str, int] = field(default_factory=dict)
    const_values: Dict[str, float] = field(default_factory=dict)
    est_cycles_per_point: float = 0.0
    flops_per_block: int = 0


def _materialize_loads(block: LoweredBlock, resident: set) -> List[AbstractOp]:
    """Insert explicit load ops for grid operands and non-resident coefficients."""
    next_vreg = 0
    for op in block.ops:
        if op.dest is not None:
            next_vreg = max(next_vreg, op.dest.id + 1)
    new_ops: List[AbstractOp] = []
    for op in block.ops:
        new_srcs = []
        for src in op.srcs:
            needs_load = isinstance(src, GridOperand) or (
                isinstance(src, CoeffOperand) and src.name not in resident)
            if needs_load:
                dest = VReg(next_vreg)
                next_vreg += 1
                new_ops.append(AbstractOp(mnemonic="load", dest=dest, srcs=[src],
                                          point=op.point))
                new_srcs.append(dest)
            else:
                new_srcs.append(src)
        new_ops.append(AbstractOp(mnemonic=op.mnemonic, dest=op.dest,
                                  srcs=new_srcs, point=op.point))
    return new_ops


def _coeff_names_used(block: LoweredBlock) -> List[str]:
    names: List[str] = []
    for op in block.ops:
        for _idx, operand in op.coeff_operands():
            if operand.name not in names:
                names.append(operand.name)
    return names


def _try_config(kernel: StencilKernel, unroll: int, resident: bool,
                reassoc_width: int, pointer_count: int) -> Optional[_BaseConfig]:
    block = planned(lower_block, kernel, unroll, reassoc_width)
    coeff_names = _coeff_names_used(block)
    # Internal constants introduced by lowering are always kept resident;
    # named kernel coefficients are resident only in the "resident" policy.
    resident_names = [n for n in coeff_names if n.startswith("__")]
    if resident:
        resident_names = list(coeff_names)
    if len(resident_names) > _NUM_FP_REGS - 4:
        return None
    ops = _materialize_loads(block, set(resident_names))
    scheduled = schedule_block(ops)
    resident_regs = {name: _NUM_FP_REGS - 1 - i
                     for i, name in enumerate(resident_names)}
    pool = list(range(0, _NUM_FP_REGS - len(resident_names)))
    allocation = linear_scan(scheduled.ops, pool)
    if not allocation.success:
        return None
    # Integer-side overhead per block: one address update per pointer register
    # plus the loop branch; every instruction costs one issue slot.
    int_overhead = pointer_count + 2
    est = (len(scheduled.ops) + int_overhead) / unroll
    est = max(est, scheduled.makespan / unroll)
    return _BaseConfig(
        unroll=unroll,
        resident=resident,
        scheduled=scheduled,
        assignment=allocation.assignment,
        resident_regs=resident_regs,
        const_values=block.const_values,
        est_cycles_per_point=est,
        flops_per_block=block.flops(),
    )


def _pointer_keys(kernel: StencilKernel, layout: TileLayout,
                  scheduled: ScheduledBlock) -> List[Tuple[str, int]]:
    keys: List[Tuple[str, int]] = [(kernel.base_array, 0)]
    for op in scheduled.ops:
        for _idx, operand in op.grid_operands():
            key = plane_key(layout, operand)
            if key not in keys:
                keys.append(key)
    return keys


def generate_base_program(kernel: StencilKernel, layout: TileLayout,
                          geometry: CoreGeometry, max_unroll: int = 4,
                          reassoc_width: int = 3) -> GeneratedProgram:
    """Generate the optimized RV32G baseline program for one core.

    The unroll factor (up to ``max_unroll``, a divisor of the core's per-row
    point count) and the coefficient residency policy are chosen by estimated
    cycles per point among the configurations that pass register allocation —
    reproducing the register-pressure limits the paper describes for
    coefficient-heavy codes.  Cores of one shape share a program template;
    this core fills its start pointers and row bound.
    """
    template, keys = planned(_shape_template, kernel, Same(layout),
                             geometry.shape, max_unroll, reassoc_width)
    values = position_values(kernel, layout, geometry)
    for array, dz in keys:
        values[f"ptr_{array}_{dz}"] = start_pointer_address(layout, geometry,
                                                            array, dz)
    return template.instantiate(values)


def _shape_template(kernel: StencilKernel, layout: Same, shape: CoreShape,
                    max_unroll: int, reassoc_width: int
                    ) -> Tuple[ProgramTemplate, List[Tuple[str, int]]]:
    """Pick one core shape's configuration and emit its program template."""
    layout = layout.value
    # Pointer registers needed: one per (array, z-plane) pair plus the output.
    probe = planned(lower_block, kernel, 1, reassoc_width)
    probe_keys = set()
    for op in probe.ops:
        for _idx, operand in op.grid_operands():
            probe_keys.add(plane_key(layout, operand))
    pointer_count = len(probe_keys | {(kernel.base_array, 0)}) + 1

    best: Optional[_BaseConfig] = None
    for unroll in shape.block_candidates(max_unroll):
        for resident in (True, False):
            config = planned(_try_config, kernel, unroll, resident,
                             reassoc_width, pointer_count)
            if config is None:
                continue
            if best is None or config.est_cycles_per_point < best.est_cycles_per_point:
                best = config
    if best is None:
        raise CodegenError(
            f"{kernel.name}: no baseline configuration passes register allocation"
        )
    keys = _pointer_keys(kernel, layout, best.scheduled)
    with obs.phase("codegen.emit"):
        template = _emit(kernel, layout, shape, best, keys)
    return template, keys


def _emit(kernel: StencilKernel, layout: TileLayout, shape: CoreShape,
          cfg: _BaseConfig, keys: List[Tuple[str, int]]) -> ProgramTemplate:
    builder = AsmBuilder()
    regs = IntRegAllocator()
    row_step, plane_step = loop_strides(layout, shape.y_interleave)
    x_advance = cfg.unroll * shape.x_interleave * 8
    x_span = shape.x_count * shape.x_interleave * 8
    row_adjust = row_step - x_span
    plane_adjust = plane_step - shape.y_count * row_step

    builder.comment(f"baseline {kernel.name} core {Slot('core')} "
                    f"(unroll={cfg.unroll}, resident={cfg.resident})")
    pointer_regs: Dict[Tuple[str, int], str] = {}
    for array, dz in keys:
        reg = regs.get(f"ptr_{array}_{dz}")
        pointer_regs[(array, dz)] = reg
        builder.li(reg, Slot(f"ptr_{array}_{dz}"),
                   comment=f"{array} plane {dz:+d}")
    out_ptr = regs.get("out_ptr")
    builder.li(out_ptr, Slot("out_ptr"), comment="output")
    base_ptr = pointer_regs[(kernel.base_array, 0)]
    x_bound = regs.get("x_bound")
    builder.li(x_bound, Slot("x_bound"), comment="row bound")

    needs_coeff_ptr = bool(cfg.resident_regs) or any(
        op.is_load and isinstance(op.srcs[0], CoeffOperand)
        for op in cfg.scheduled.ops)
    coeff_ptr = None
    if needs_coeff_ptr:
        coeff_ptr = regs.get("coeff_ptr")
        builder.li(coeff_ptr, layout.coeff_table, comment="coefficient table")
    for name, reg in cfg.resident_regs.items():
        imm = layout.coeff_index(name) * 8
        builder.inst(f"fld {fp_reg_name(reg)}, {imm}({coeff_ptr})",
                     comment=f"coefficient {name}")

    all_pointers = list(pointer_regs.values()) + [out_ptr]

    y_ctr = regs.get("y_ctr")
    z_ctr = regs.get("z_ctr") if kernel.dims == 3 else None
    if z_ctr:
        builder.li(z_ctr, shape.z_count)
        builder.label("zloop")
    builder.li(y_ctr, shape.y_count)
    builder.label("yloop")
    builder.label("xloop")
    _emit_block(builder, layout, shape, cfg, pointer_regs, out_ptr,
                coeff_ptr)
    for reg in all_pointers:
        builder.add_imm(reg, x_advance)
    builder.inst(f"bne {base_ptr}, {x_bound}, xloop")
    # Row epilogue.
    for reg in all_pointers:
        builder.add_imm(reg, row_adjust)
    builder.add_imm(x_bound, row_step)
    builder.inst(f"addi {y_ctr}, {y_ctr}, -1")
    builder.inst(f"bne {y_ctr}, zero, yloop")
    if z_ctr:
        for reg in all_pointers + [x_bound]:
            builder.add_imm(reg, plane_adjust)
        builder.inst(f"addi {z_ctr}, {z_ctr}, -1")
        builder.inst(f"bne {z_ctr}, zero, zloop")
    info = {
        "variant": "base",
        "kernel": kernel.name,
        "core_id": Slot("core"),
        "unroll": cfg.unroll,
        "resident_coeffs": cfg.resident,
        "est_cycles_per_point": cfg.est_cycles_per_point,
        "const_values": dict(cfg.const_values),
        "points": shape.total_points,
        "flops": shape.total_points * kernel.flops_per_point,
    }
    return assemble_template(
        builder, f"{kernel.name}_base_core{Slot('core')}", info)


def _emit_block(builder: AsmBuilder, layout: TileLayout,
                shape: CoreShape, cfg: _BaseConfig,
                pointer_regs: Dict[Tuple[str, int], str], out_ptr: str,
                coeff_ptr: Optional[str]) -> None:
    def fp_of(operand) -> str:
        if isinstance(operand, VReg):
            return fp_reg_name(cfg.assignment[operand])
        if isinstance(operand, CoeffOperand):
            return fp_reg_name(cfg.resident_regs[operand.name])
        raise CodegenError(f"unexpected operand {operand!r} in baseline emission")

    for op in cfg.scheduled.ops:
        if op.is_load:
            src = op.srcs[0]
            dest = fp_reg_name(cfg.assignment[op.dest])
            if isinstance(src, GridOperand):
                ptr = pointer_regs[plane_key(layout, src)]
                imm = check_imm12(grid_imm_offset(layout, src,
                                                  shape.x_interleave),
                                  f"load of {src.array}{src.offset}")
                builder.inst(f"fld {dest}, {imm}({ptr})")
            else:
                imm = check_imm12(layout.coeff_index(src.name) * 8,
                                  f"coefficient {src.name}")
                builder.inst(f"fld {dest}, {imm}({coeff_ptr})")
        elif op.is_store:
            value = fp_of(op.srcs[0])
            imm = check_imm12(op.point * shape.x_interleave * 8,
                              "output store")
            builder.inst(f"fsd {value}, {imm}({out_ptr})")
        else:
            operands = ", ".join(fp_of(src) for src in op.srcs)
            dest = fp_reg_name(cfg.assignment[op.dest])
            builder.inst(f"{op.mnemonic} {dest}, {operands}")
