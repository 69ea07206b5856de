"""Shared infrastructure for the baseline and SARIS code generators."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.assembler import assemble_lines
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


class AsmBuilder:
    """Accumulates assembly source text with small convenience emitters."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def label(self, name: str) -> None:
        """Emit a label definition."""
        self.lines.append(f"{name}:")

    def inst(self, text: str, comment: str = "") -> None:
        """Emit one instruction (optionally with a trailing comment)."""
        if comment:
            self.lines.append(f"    {text}  # {comment}")
        else:
            self.lines.append(f"    {text}")

    def comment(self, text: str) -> None:
        """Emit a standalone comment line."""
        self.lines.append(f"    # {text}")

    def li(self, reg: str, value: int, comment: str = "") -> None:
        """Load an immediate into a register."""
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
    blocks and assemble mostly the same lines.  Inside the scope,
    :func:`planned` computes each distinct (planner, kernel, arguments) key
    once and :func:`assemble_generated` parses each distinct line once.
    Emission stays per core, and every program gets fresh instructions.
    Nothing outlives the outermost scope; a nested scope joins it.
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


def assemble_generated(builder: AsmBuilder, name: str) -> Program:
    """Assemble the accumulated lines, attaching the program name."""
    scope = _SCOPE.get()
    return assemble_lines(builder.lines, name=name,
                          parsed=None if scope is None else scope[1])
