"""Shared infrastructure for the baseline and SARIS code generators."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.assembler import assemble_lines
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import fp_reg_name
from repro.core.kernels import kernel_fingerprint
from repro.core.layout import TileLayout
from repro.core.lowering import AbstractOp, CoeffOperand, GridOperand, VReg
from repro.core.parallel import CoreGeometry, X_INTERLEAVE, Y_INTERLEAVE


class CodegenError(RuntimeError):
    """Raised when a kernel cannot be compiled for the requested configuration."""


#: Integer registers handed out to code-generator roles, in allocation order.
INT_REG_POOL = (
    "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "s0", "s1",
)

#: Largest / smallest 12-bit signed immediate.
IMM12_MAX = 2047
IMM12_MIN = -2048


class IntRegAllocator:
    """Hands out integer registers to named roles (pointers, counters, ...)."""

    def __init__(self, pool: Sequence[str] = INT_REG_POOL) -> None:
        self._pool = list(pool)
        self._next = 0
        self._roles: Dict[str, str] = {}

    def get(self, role: str) -> str:
        """Return the register for ``role``, allocating one on first use."""
        if role not in self._roles:
            if self._next >= len(self._pool):
                raise CodegenError(
                    f"out of integer registers while allocating role {role!r}"
                )
            self._roles[role] = self._pool[self._next]
            self._next += 1
        return self._roles[role]

    def has(self, role: str) -> bool:
        """Whether a register was already allocated for ``role``."""
        return role in self._roles

    @property
    def roles(self) -> Dict[str, str]:
        """Mapping of role names to register names allocated so far."""
        return dict(self._roles)


#: Delimits a slot's name in template text; never part of assembly source.
_SLOT_MARK = "\x00"


class Slot:
    """A per-core value that a program template leaves open.

    It renders as a marked name, so it can stand in template text (a
    comment, say) and as the immediate of :meth:`AsmBuilder.li`; each core
    fills it in :meth:`ProgramTemplate.instantiate`.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return f"{_SLOT_MARK}{self.name}{_SLOT_MARK}"


class AsmBuilder:
    """Accumulates assembly source text with small convenience emitters."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: (instruction index, line index, slot name) of each slotted ``li``.
        self.slots: List[Tuple[int, int, str]] = []
        self._insts = 0

    def label(self, name: str) -> None:
        """Emit a label definition."""
        self.lines.append(f"{name}:")

    def inst(self, text: str, comment: str = "") -> None:
        """Emit one instruction (optionally with a trailing comment)."""
        if comment:
            self.lines.append(f"    {text}  # {comment}")
        else:
            self.lines.append(f"    {text}")
        self._insts += 1

    def comment(self, text: str) -> None:
        """Emit a standalone comment line."""
        self.lines.append(f"    # {text}")

    def li(self, reg: str, value, comment: str = "") -> None:
        """Load an immediate, or a :class:`Slot` each core fills, into a register."""
        if isinstance(value, Slot):
            self.slots.append((self._insts, len(self.lines), value.name))
        self.inst(f"li {reg}, {value}", comment)

    def add_imm(self, reg: str, value: int, comment: str = "") -> None:
        """Add a (possibly >12-bit) immediate to a register in place."""
        remaining = value
        if remaining == 0:
            return
        while remaining != 0:
            step = max(IMM12_MIN, min(IMM12_MAX, remaining))
            self.inst(f"addi {reg}, {reg}, {step}", comment)
            comment = ""
            remaining -= step

    def source(self) -> str:
        """Return the accumulated assembly source."""
        return "\n".join(self.lines) + "\n"


def _fill(parts: List[str], values: Dict[str, object]) -> str:
    """Join text split at its slots (literal, slot name, literal, ...)."""
    filled = list(parts)
    filled[1::2] = [str(values[slot]) for slot in parts[1::2]]
    return "".join(filled)


@dataclass
class ProgramTemplate:
    """One core shape's program, assembled once, with per-core slots.

    Every core of the shape gets the template's instructions, except the
    slotted ``li`` instructions, which it gets with its own immediates.
    Sharing is safe because nothing mutates an instruction after its
    :class:`Program` resolved the branch targets, and those are equal for
    every core of the shape: the Python engine caches decoded
    instructions per core and the native engine per program.
    """

    #: The program with every slot assembled as 0.
    program: Program
    #: Source text and program name, split at their slots.
    source: List[str]
    name: List[str]
    #: (instruction index, slot name) of each slotted ``li``.
    slots: List[Tuple[int, str]]
    #: The cores' ``info``; a :class:`Slot` value is filled per core.
    info: Dict[str, object]

    def instantiate(self, values: Dict[str, object],
                    data: Optional[List[Tuple[int, np.ndarray]]] = None
                    ) -> "GeneratedProgram":
        """One core's program, its slots filled from ``values``."""
        instructions = list(self.program.instructions)
        for index, slot in self.slots:
            instructions[index] = Instruction(
                **{**vars(instructions[index]), "imm": values[slot]})
        info = {}
        for key, value in self.info.items():
            if isinstance(value, Slot):
                value = values[value.name]
            elif isinstance(value, (dict, list)):
                value = type(value)(value)  # each core owns its containers
            info[key] = value
        program = Program(instructions, dict(self.program.labels),
                          _fill(self.name, values))
        return GeneratedProgram(program=program,
                                source=_fill(self.source, values),
                                data=data or [], info=info)


@dataclass
class GeneratedProgram:
    """A generated per-core program plus the static data it relies on."""

    program: Program
    source: str
    #: (address, values) pairs the runner must write into TCDM before running.
    data: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    #: free-form metadata: unroll factor, FREP repetitions, stream mapping, ...
    info: Dict[str, object] = field(default_factory=dict)


def grid_imm_offset(layout: TileLayout, operand: GridOperand,
                    x_interleave: int = X_INTERLEAVE) -> int:
    """Byte offset of a grid operand from its plane/row pointer (baseline codegen)."""
    offset = list(operand.offset)
    offset[-1] += operand.point * x_interleave
    if layout.dims == 3:
        within = offset[1] * layout.row_elems + offset[2]
    else:
        within = offset[0] * layout.row_elems + offset[1]
    return within * 8


def check_imm12(value: int, what: str) -> int:
    """Validate that an immediate fits the 12-bit signed load/store offset field."""
    if not IMM12_MIN <= value <= IMM12_MAX:
        raise CodegenError(
            f"{what}: immediate offset {value} does not fit a 12-bit field; "
            "use a smaller tile or radius"
        )
    return value


def plane_key(layout: TileLayout, operand: GridOperand) -> Tuple[str, int]:
    """The (array, z-offset) pointer an operand is addressed from."""
    dz = operand.offset[0] if layout.dims == 3 else 0
    return (operand.array, dz)


def start_pointer_address(layout: TileLayout, geometry: CoreGeometry,
                          array: str, dz: int = 0) -> int:
    """Address of the core's first point, shifted ``dz`` planes, in ``array``."""
    coords = list(geometry.start_coords)
    if layout.dims == 3:
        coords[0] += dz
    return layout.address(array, coords)


def position_values(kernel, layout: TileLayout,
                    geometry: CoreGeometry) -> Dict[str, object]:
    """The slot values both templates take from a core's position: its id,
    its first point in the base and output arrays, and its row bound."""
    base = start_pointer_address(layout, geometry, kernel.base_array)
    return {
        "core": geometry.core_id,
        "base_ptr": base,
        "out_ptr": start_pointer_address(layout, geometry, kernel.output),
        "x_bound": base + geometry.x_count * geometry.x_interleave * 8,
    }


def loop_strides(layout: TileLayout,
                 y_interleave: int = Y_INTERLEAVE) -> Tuple[int, int]:
    """(row advance, plane advance) in bytes for the y/z loop bookkeeping."""
    row_bytes = layout.row_elems * 8
    plane_bytes = layout.plane_elems * 8
    return y_interleave * row_bytes, plane_bytes


#: (plans, parsed lines) memos of the active :func:`planning_scope`.
_SCOPE: ContextVar[Optional[Tuple[dict, dict]]] = ContextVar(
    "repro_planning_scope", default=None)


@contextmanager
def planning_scope() -> Iterator[None]:
    """Share planning among the per-core backend calls of one program set.

    The cores of a cluster run one SPMD program, each on its own slice of
    the tile, so their backends lower, schedule and allocate the same
    blocks, and cores of one :class:`~repro.core.parallel.CoreShape` run
    the same instructions.  Inside the scope, :func:`planned` computes each
    distinct (planner, kernel, arguments) key once, the built-in backends
    emit one :class:`ProgramTemplate` per core shape, and
    :func:`assemble_template` parses each distinct line once.  Nothing
    outlives the outermost scope; a nested scope joins it.
    """
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set(({}, {}))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def planned(planner: Callable, kernel, *args):
    """``planner(kernel, *args)``, computed once per key in a planning scope.

    ``planner`` must be pure in its arguments and the kernel's content, and
    its callers must not mutate the result.  Outside a scope this is a plain
    call.
    """
    scope = _SCOPE.get()
    if scope is None:
        return planner(kernel, *args)
    plans = scope[0]
    key = (planner, kernel_fingerprint(kernel), args)
    if key not in plans:
        plans[key] = planner(kernel, *args)
    return plans[key]


class Same:
    """A :func:`planned` argument that matches only the very same object.

    For an unhashable input that every core of a program set shares, such
    as its :class:`TileLayout`.  The key holds the object, so no other
    object can take its ``id`` while the key lives.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __hash__(self) -> int:
        return id(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Same) and other.value is self.value


def assemble_template(builder: AsmBuilder, name: str,
                      info: Dict[str, object]) -> ProgramTemplate:
    """Assemble the accumulated lines, each slot as 0, into a template
    whose programs are called ``name`` and carry ``info`` (both may hold
    slots)."""
    lines = list(builder.lines)
    for _index, line, slot in builder.slots:
        lines[line] = lines[line].replace(str(Slot(slot)), "0")
    scope = _SCOPE.get()
    program = assemble_lines(lines, name="template",
                             parsed=None if scope is None else scope[1])
    if len(program) != builder._insts:
        raise CodegenError("a template line is not one instruction")
    return ProgramTemplate(
        program=program,
        source=builder.source().split(_SLOT_MARK),
        name=name.split(_SLOT_MARK),
        slots=[(index, slot) for index, _line, slot in builder.slots],
        info=info)
