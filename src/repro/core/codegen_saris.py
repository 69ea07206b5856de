"""SARIS code generator: stencils on stream registers with FREP.

The generated point loop follows Listing 1d of the paper: the integer core
only launches the indirect streams for the next block of points, updates the
block pointer and branches, while every grid operand is read from SR0/SR1 and
the per-point computation executes on the FPU — inside an FREP hardware loop
whenever the block repeats an identical floating-point body.

Step 3 of the SARIS method is implemented as a policy: when the kernel's
coefficients fit in the register file, the affine SR2 carries the output
store stream; otherwise SR2 streams the coefficients (in point-loop schedule
order, from a table laid out by this generator) and outputs are written with
plain ``fsd`` instructions.
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
    loop_strides,
    planned,
    position_values,
)
from repro.core.layout import TileLayout
from repro.core.lowering import (
    AbstractOp,
    CoeffOperand,
    GridOperand,
    VReg,
    lower_block,
)
from repro.core.parallel import CoreGeometry, CoreShape, choose_block
from repro.core.regalloc import linear_scan
from repro.core.saris import (
    SR0,
    SR1,
    SR2,
    SarisMapping,
    index_width_bytes,
    map_streams,
    resolve_index_entries,
)
from repro.core.schedule import ScheduledBlock, schedule_block
from repro.core.stencil import StencilKernel

_NUM_FP_REGS = 32
#: ft0/ft1/ft2 are stream-mapped while SSRs are enabled.
_STREAM_REGS = (0, 1, 2)


@dataclass
class _SarisConfig:
    """A fully resolved SARIS configuration for one core."""

    body_unroll: int
    frep_reps: int
    scheduled: ScheduledBlock = None
    mapping: SarisMapping = None
    assignment: Dict[VReg, int] = field(default_factory=dict)
    resident_regs: Dict[str, int] = field(default_factory=dict)
    const_values: Dict[str, float] = field(default_factory=dict)
    stream_dests: Dict[int, bool] = field(default_factory=dict)

    @property
    def block_points(self) -> int:
        """Points covered by one stream launch (body unroll x FREP repetitions)."""
        return self.body_unroll * self.frep_reps


def _coeff_names_used(ops: List[AbstractOp]) -> List[str]:
    names: List[str] = []
    for op in ops:
        for _idx, operand in op.coeff_operands():
            if operand.name not in names:
                names.append(operand.name)
    return names


def _store_producer_edges(ops: List[AbstractOp]) -> List[Tuple[int, int]]:
    """Ordering edges keeping the ops that feed consecutive stores in point order."""
    defs = {op.dest: idx for idx, op in enumerate(ops) if op.dest is not None}
    producers = [defs[op.srcs[0]] for op in ops
                 if op.is_store and isinstance(op.srcs[0], VReg)]
    return [(producers[i], producers[i + 1]) for i in range(len(producers) - 1)]


def _try_config(kernel: StencilKernel, body_unroll: int, frep_reps: int,
                reassoc_width: int, coeff_reg_budget: int, store_streamed: bool,
                force_store_streamed: Optional[bool]) -> Optional[_SarisConfig]:
    block = planned(lower_block, kernel, body_unroll, reassoc_width)
    extra_deps = _store_producer_edges(block.ops) if store_streamed else None
    scheduled = schedule_block(block.ops, extra_deps=extra_deps)
    coeff_names = _coeff_names_used(scheduled.ops)
    mapping = map_streams(scheduled.ops, num_coeffs=kernel.coeffs_per_point,
                          coeff_reg_budget=coeff_reg_budget,
                          force_store_streamed=force_store_streamed
                          if force_store_streamed is not None else store_streamed)
    resident_names = list(mapping.resident_coeffs)
    if not mapping.store_streamed:
        # Internal constants stay resident even when coefficients are streamed.
        resident_names = [n for n in coeff_names if n.startswith("__")]
    resident_regs = {name: _NUM_FP_REGS - 1 - i
                     for i, name in enumerate(resident_names)}
    if len(resident_names) > _NUM_FP_REGS - 8:
        return None
    pool = [r for r in range(_NUM_FP_REGS - len(resident_names))
            if r not in _STREAM_REGS]
    allocation = linear_scan(scheduled.ops, pool)
    if not allocation.success:
        return None
    return _SarisConfig(
        body_unroll=body_unroll,
        frep_reps=frep_reps,
        scheduled=scheduled,
        mapping=mapping,
        assignment=allocation.assignment,
        resident_regs=resident_regs,
        const_values=block.const_values,
    )


def generate_saris_program(kernel: StencilKernel, layout: TileLayout,
                           geometry: CoreGeometry, allocator,
                           max_block: int = 16, max_body_unroll: int = 4,
                           coeff_reg_budget: int = 14, use_frep: bool = True,
                           frep_limit: int = 32, reassoc_width: int = 3,
                           force_store_streamed: Optional[bool] = None) -> GeneratedProgram:
    """Generate the SARIS-accelerated program for one core.

    ``allocator`` provides TCDM space for the index arrays and (when
    coefficients are streamed) the schedule-ordered coefficient table; the
    contents are returned in :attr:`GeneratedProgram.data` for the runner to
    write before simulation.

    The block size per stream launch and the FREP repetition count are chosen
    so that (a) the block evenly divides the core's per-row point count,
    (b) the floating-point body fits the FREP repetition buffer
    (``frep_limit`` instructions) and (c) register allocation succeeds.
    Cores of one shape share a program template; this core allocates its
    own index arrays and fills their addresses, its start pointers and its
    row bound.
    """
    template, arrays = planned(
        _shape_template, kernel, Same(layout), geometry.shape, max_block,
        max_body_unroll, coeff_reg_budget, use_frep, frep_limit,
        reassoc_width, force_store_streamed)
    values = position_values(kernel, layout, geometry)
    data: List[Tuple[int, np.ndarray]] = []
    for slot, array in arrays:
        addr = allocator.alloc(max(array.size, 1) * array.itemsize, align=8)
        values[slot] = addr
        data.append((addr, array))
    return template.instantiate(values, data)


def _shape_template(kernel: StencilKernel, layout: Same, shape: CoreShape,
                    max_block: int, max_body_unroll: int,
                    coeff_reg_budget: int, use_frep: bool, frep_limit: int,
                    reassoc_width: int, force_store_streamed: Optional[bool]
                    ) -> Tuple[ProgramTemplate,
                               List[Tuple[str, np.ndarray]]]:
    """Pick one core shape's configuration and emit its program template.

    Also returns the shape's TCDM arrays, each under the slot that takes
    its address.
    """
    layout = layout.value
    num_coeffs = kernel.coeffs_per_point
    store_streamed = (num_coeffs <= coeff_reg_budget
                      if force_store_streamed is None else force_store_streamed)

    candidates: List[Tuple[int, int]] = []  # (body_unroll, frep_reps)
    if store_streamed and use_frep:
        block_points = choose_block(shape.x_count, max_block)
        # Largest body unroll whose FP body fits the FREP buffer; the rest of
        # the block is covered by hardware-loop repetitions.
        for unroll in sorted(
                {d for d in range(1, max_body_unroll + 1) if block_points % d == 0},
                reverse=True):
            body_len = len(planned(lower_block, kernel, unroll,
                                   reassoc_width).compute_ops)
            if body_len <= frep_limit:
                candidates.append((unroll, block_points // unroll))
        if not candidates:
            # Body too large for the FREP buffer even for a single point:
            # fall back to plain offloading with a small unrolled block.
            candidates.append((choose_block(shape.x_count, max_body_unroll), 1))
    else:
        for unroll in shape.block_candidates(max_body_unroll):
            candidates.append((unroll, 1))
    config: Optional[_SarisConfig] = None
    for body_unroll, frep_reps in candidates:
        config = planned(_try_config, kernel, body_unroll, frep_reps,
                         reassoc_width, coeff_reg_budget, store_streamed,
                         force_store_streamed)
        if config is not None:
            break
    if config is None:
        raise CodegenError(
            f"{kernel.name}: no SARIS configuration passes register allocation"
        )
    streams = _prepare_streams(kernel, layout, shape, config)
    with obs.phase("codegen.emit"):
        template = _emit(kernel, layout, shape, config, streams)
    return template, streams["arrays"]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _prepare_streams(kernel: StencilKernel, layout: TileLayout,
                     shape: CoreShape, cfg: _SarisConfig) -> Dict[str, object]:
    """Resolve the index arrays and the streamed coefficient table.

    Their contents are equal for every core of the shape; each core
    allocates its own copies in TCDM, in the order of ``arrays``.  The
    arrays are read-only, so the cores' data share them.
    """
    entries = {}
    for dm in (SR0, SR1):
        entries[dm] = resolve_index_entries(
            cfg.mapping.sr_sequences[dm], layout, kernel.base_array,
            x_interleave=shape.x_interleave, block_reps=cfg.frep_reps,
            block_points=cfg.body_unroll)
    width = max(index_width_bytes(entries[SR0]), index_width_bytes(entries[SR1]))
    dtype = np.int16 if width == 2 else np.int32
    arrays = [(f"idx_{dm}", np.asarray(entries[dm], dtype=dtype))
              for dm in (SR0, SR1)]
    coeff_stream_len = 0
    if not cfg.mapping.store_streamed:
        values = []
        lookup = dict(layout.coeff_values)
        lookup.update(cfg.const_values)
        for name in cfg.mapping.coeff_sequence:
            if name not in lookup:
                raise CodegenError(f"missing value for streamed coefficient {name!r}")
            values.append(lookup[name])
        coeff_stream_len = len(values)
        arrays.append(("coeff_stream", np.asarray(values, dtype=np.float64)))
    for _slot, array in arrays:
        array.flags.writeable = False
    return {
        "entries": entries,
        "width": width,
        "arrays": arrays,
        "coeff_stream_len": coeff_stream_len,
    }


def _emit(kernel: StencilKernel, layout: TileLayout, shape: CoreShape,
          cfg: _SarisConfig, streams: Dict[str, object]) -> ProgramTemplate:
    builder = AsmBuilder()
    regs = IntRegAllocator()
    row_step, plane_step = loop_strides(layout, shape.y_interleave)
    block_points = cfg.block_points
    x_advance = block_points * shape.x_interleave * 8
    x_span = shape.x_count * shape.x_interleave * 8
    row_adjust = row_step - x_span
    plane_adjust = plane_step - shape.y_count * row_step
    blocks_per_row = shape.x_count // block_points
    total_blocks = blocks_per_row * shape.y_count * shape.z_count
    store_streamed = cfg.mapping.store_streamed

    builder.comment(
        f"saris {kernel.name} core {Slot('core')} "
        f"(body_unroll={cfg.body_unroll}, frep={cfg.frep_reps}, "
        f"store_streamed={store_streamed})"
    )
    base_ptr = regs.get("base_ptr")
    builder.li(base_ptr, Slot("base_ptr"),
               comment="indirection base / loop pointer")
    x_bound = regs.get("x_bound")
    builder.li(x_bound, Slot("x_bound"), comment="row bound")
    out_ptr = None
    if not store_streamed:
        out_ptr = regs.get("out_ptr")
        builder.li(out_ptr, Slot("out_ptr"),
                   comment="output pointer (plain fsd stores)")
    scratch_a = regs.get("scratch_a")
    scratch_b = regs.get("scratch_b")

    # Resident coefficients are loaded before the streams are enabled.
    if cfg.resident_regs:
        builder.li(scratch_a, layout.coeff_table, comment="coefficient table")
        lookup_order = layout.coeff_order
        for name, reg in cfg.resident_regs.items():
            if name not in lookup_order:
                raise CodegenError(f"coefficient {name!r} missing from layout table")
            imm = check_imm12(layout.coeff_index(name) * 8, f"coefficient {name}")
            builder.inst(f"fld {fp_reg_name(reg)}, {imm}({scratch_a})",
                         comment=f"coefficient {name}")

    # Indirect stream configuration (SR0 / SR1).
    for dm in (SR0, SR1):
        builder.inst(f"ssr.cfg.idxsize {dm}, {streams['width']}")
        builder.li(scratch_a, Slot(f"idx_{dm}"),
                   comment=f"SR{dm} index array")
        builder.li(scratch_b, len(streams["entries"][dm]))
        builder.inst(f"ssr.cfg.idx {dm}, {scratch_a}, {scratch_b}")

    # Affine stream configuration (SR2): output stores or coefficient reads.
    if store_streamed:
        builder.inst(f"ssr.cfg.write {SR2}, 1")
        dims = 3 if kernel.dims == 3 else 2
        builder.inst(f"ssr.cfg.dims {SR2}, {dims}")
        bounds = [shape.x_count, shape.y_count]
        strides = [shape.x_interleave * 8,
                   shape.y_interleave * layout.row_elems * 8]
        if kernel.dims == 3:
            bounds.append(shape.z_count)
            strides.append(layout.plane_elems * 8)
        for dim, (bound, stride) in enumerate(zip(bounds, strides)):
            builder.li(scratch_a, bound)
            builder.inst(f"ssr.cfg.bound {SR2}, {dim}, {scratch_a}")
            builder.li(scratch_a, stride)
            builder.inst(f"ssr.cfg.stride {SR2}, {dim}, {scratch_a}")
        builder.li(scratch_a, Slot("out_ptr"))
        builder.inst(f"ssr.cfg.base {SR2}, {scratch_a}")
        builder.inst(f"ssr.start {SR2}")
    elif streams["coeff_stream_len"]:
        builder.inst(f"ssr.cfg.write {SR2}, 0")
        builder.inst(f"ssr.cfg.dims {SR2}, 2")
        builder.li(scratch_a, streams["coeff_stream_len"])
        builder.inst(f"ssr.cfg.bound {SR2}, 0, {scratch_a}")
        builder.li(scratch_a, 8)
        builder.inst(f"ssr.cfg.stride {SR2}, 0, {scratch_a}")
        builder.li(scratch_a, total_blocks)
        builder.inst(f"ssr.cfg.bound {SR2}, 1, {scratch_a}")
        builder.li(scratch_a, 0)
        builder.inst(f"ssr.cfg.stride {SR2}, 1, {scratch_a}")
        builder.li(scratch_a, Slot("coeff_stream"))
        builder.inst(f"ssr.cfg.base {SR2}, {scratch_a}")
        builder.inst(f"ssr.start {SR2}")

    frep_reg = None
    if cfg.frep_reps > 1:
        frep_reg = regs.get("frep_reps")
        builder.li(frep_reg, cfg.frep_reps)
    builder.inst("ssr.enable")

    y_ctr = regs.get("y_ctr")
    z_ctr = regs.get("z_ctr") if kernel.dims == 3 else None
    if z_ctr:
        builder.li(z_ctr, shape.z_count)
        builder.label("zloop")
    builder.li(y_ctr, shape.y_count)
    builder.label("yloop")
    builder.label("xloop")
    # Stream launch for the next block (the three-instruction SRIR sequence).
    builder.inst(f"ssr.launch {SR0}, {base_ptr}")
    builder.inst(f"ssr.launch {SR1}, {base_ptr}")
    builder.inst("ssr.commit")
    body = _render_body(kernel, cfg, shape, out_ptr)
    if frep_reg is not None:
        builder.inst(f"frep.o {frep_reg}, {len(body)}")
    for line in body:
        builder.inst(line)
    builder.add_imm(base_ptr, x_advance)
    if out_ptr is not None:
        builder.add_imm(out_ptr, x_advance)
    builder.inst(f"bne {base_ptr}, {x_bound}, xloop")
    # Row epilogue.
    builder.add_imm(base_ptr, row_adjust)
    if out_ptr is not None:
        builder.add_imm(out_ptr, row_adjust)
    builder.add_imm(x_bound, row_step)
    builder.inst(f"addi {y_ctr}, {y_ctr}, -1")
    builder.inst(f"bne {y_ctr}, zero, yloop")
    if z_ctr:
        for reg in [base_ptr, x_bound] + ([out_ptr] if out_ptr else []):
            builder.add_imm(reg, plane_adjust)
        builder.inst(f"addi {z_ctr}, {z_ctr}, -1")
        builder.inst(f"bne {z_ctr}, zero, zloop")
    builder.inst("ssr.barrier")
    builder.inst("ssr.disable")
    info = {
        "variant": "saris",
        "kernel": kernel.name,
        "core_id": Slot("core"),
        "body_unroll": cfg.body_unroll,
        "frep_reps": cfg.frep_reps,
        "block_points": block_points,
        "store_streamed": store_streamed,
        "stream_lengths": cfg.mapping.stream_lengths,
        "stream_balance": cfg.mapping.balance,
        "index_width": streams["width"],
        "const_values": dict(cfg.const_values),
        "points": shape.total_points,
        "flops": shape.total_points * kernel.flops_per_point,
    }
    return assemble_template(
        builder, f"{kernel.name}_saris_core{Slot('core')}", info)


def _render_body(kernel: StencilKernel, cfg: _SarisConfig,
                 shape: CoreShape,
                 out_ptr: Optional[str]) -> List[str]:
    """Render the floating-point body of one block (the FREP-able region)."""
    mapping = cfg.mapping
    store_streamed = mapping.store_streamed
    # Virtual registers that feed a streamed store are written straight to ft2.
    stream_dest_vregs = set()
    if store_streamed:
        for op in cfg.scheduled.ops:
            if op.is_store:
                value = op.srcs[0]
                if isinstance(value, VReg):
                    stream_dest_vregs.add(value)

    lines: List[str] = []
    for op_index, op in enumerate(cfg.scheduled.ops):
        if op.is_store:
            if store_streamed:
                continue  # the producing operation writes to the stream directly
            value = op.srcs[0]
            reg = fp_reg_name(cfg.assignment[value])
            imm = check_imm12(op.point * shape.x_interleave * 8,
                              "output store")
            lines.append(f"fsd {reg}, {imm}({out_ptr})")
            continue
        if op.is_load:
            raise CodegenError("SARIS blocks must not contain explicit loads")
        operands = []
        for src_index, src in enumerate(op.srcs):
            if isinstance(src, GridOperand):
                dm = mapping.assigned_dm(op_index, src_index)
                operands.append(fp_reg_name(dm))
            elif isinstance(src, CoeffOperand):
                if src.name in cfg.resident_regs:
                    operands.append(fp_reg_name(cfg.resident_regs[src.name]))
                else:
                    operands.append(fp_reg_name(SR2))
            else:
                operands.append(fp_reg_name(cfg.assignment[src]))
        if op.dest in stream_dest_vregs:
            dest = fp_reg_name(SR2)
        else:
            dest = fp_reg_name(cfg.assignment[op.dest])
        lines.append(f"{op.mnemonic} {dest}, {', '.join(operands)}")
    return lines
