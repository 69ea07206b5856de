"""Textual assembler for the simulator's RISC-V dialect.

The assembler accepts the syntax produced by the code generators and by
hand-written test programs::

    # comments with '#' or '//'
    setup:
        li      t0, 0x10000000
        addi    t1, t0, 8
        fld     ft3, -8(t0)
    loop:
        fmadd.d ft4, ft3, fa0, ft4
        addi    t0, t0, 8
        bne     t0, t1, loop

Labels are resolved to instruction indices by :class:`repro.isa.program.Program`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.instruction import MNEMONIC_FORMATS, Instruction
from repro.isa.program import Program
from repro.isa.registers import RegisterError, parse_fp_reg, parse_int_reg


class AssemblerError(ValueError):
    """Raised when a line of assembly cannot be parsed."""


#: A leading ``label:``, optionally followed by more of the line.
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_MEM_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\(([^)]+)\)$")
_SUPPORTED_CSRS = frozenset({"mhartid", "mcycle", "minstret"})


def _parse_imm(token: str) -> int:
    """Parse a decimal or hexadecimal (possibly negative) immediate."""
    text = token.strip()
    try:
        return int(text, 0)
    except ValueError as exc:
        raise AssemblerError(f"invalid immediate {token!r}") from exc


def _split_operands(text: str) -> List[str]:
    if not text.strip():
        return []
    return [part.strip() for part in text.split(",")]


def parse_instruction(line: str) -> Instruction:
    """Parse a single instruction (no label, comment already stripped)."""
    stripped = line.strip()
    if not stripped:
        raise AssemblerError("empty instruction line")
    pieces = stripped.split(None, 1)
    mnemonic = pieces[0].lower()
    operand_text = pieces[1] if len(pieces) > 1 else ""
    if mnemonic not in MNEMONIC_FORMATS:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r} in line {line!r}")
    fmt = MNEMONIC_FORMATS[mnemonic]
    operands = _split_operands(operand_text)
    if len(operands) != len(fmt):
        raise AssemblerError(
            f"{mnemonic!r} expects {len(fmt)} operands, got {len(operands)} "
            f"in line {line!r}"
        )
    fields: Dict[str, object] = {}
    try:
        for kind, token in zip(fmt, operands):
            if kind == "rd":
                fields["rd"] = parse_int_reg(token)
            elif kind == "rs1":
                fields["rs1"] = parse_int_reg(token)
            elif kind == "rs2":
                fields["rs2"] = parse_int_reg(token)
            elif kind == "frd":
                fields["rd"] = parse_fp_reg(token)
            elif kind == "frs1":
                fields["rs1"] = parse_fp_reg(token)
            elif kind == "frs2":
                fields["rs2"] = parse_fp_reg(token)
            elif kind == "frs3":
                fields["rs3"] = parse_fp_reg(token)
            elif kind == "imm":
                fields["imm"] = _parse_imm(token)
            elif kind == "imm2":
                fields["imm2"] = _parse_imm(token)
            elif kind == "mem":
                match = _MEM_RE.match(token.replace(" ", ""))
                if not match:
                    raise AssemblerError(f"invalid memory operand {token!r}")
                fields["imm"] = _parse_imm(match.group(1))
                fields["rs1"] = parse_int_reg(match.group(2))
            elif kind == "label":
                fields["target"] = token
            elif kind == "csr":
                csr = token.lower()
                if csr not in _SUPPORTED_CSRS:
                    raise AssemblerError(f"unsupported CSR {token!r}")
                fields["csr"] = csr
            else:  # pragma: no cover - format table is static
                raise AssertionError(f"unhandled operand kind {kind!r}")
    except RegisterError as exc:
        raise AssemblerError(f"{exc} in line {line!r}") from exc
    return Instruction(mnemonic=mnemonic, **fields)


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def assemble_lines(lines: Iterable[str], name: str = "program",
                   parsed: Optional[Dict[str, Instruction]] = None) -> Program:
    """Assemble an iterable of source lines into a :class:`Program`.

    ``parsed`` memoizes instruction text across calls: each distinct line is
    parsed once, and every program still gets its own instruction copies.
    """
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = _strip_comment(raw)
        if not text:
            continue
        # A line may contain `label:` alone or `label: instruction`.
        while ":" in text:
            match = _LABEL_RE.match(text)
            if not match:
                break
            label, rest = match.group(1), match.group(2)
            if label in labels:
                raise AssemblerError(f"duplicate label {label!r} at line {lineno}")
            labels[label] = len(instructions)
            text = rest.strip()
        if not text:
            continue
        try:
            if parsed is None:
                instructions.append(parse_instruction(text))
            else:
                template = parsed.get(text)
                if template is None:
                    template = parsed[text] = parse_instruction(text)
                instructions.append(Instruction(**vars(template)))
        except AssemblerError as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from exc
    return Program(instructions=instructions, labels=labels, name=name)


def assemble(source: str, name: str = "program") -> Program:
    """Assemble a multi-line source string into a :class:`Program`."""
    return assemble_lines(source.splitlines(), name=name)
