"""Expression IR for stencil point updates.

A stencil kernel's point update is a scalar expression over

* :class:`GridRef` — a load of a grid array at a fixed offset from the
  current point,
* :class:`Coeff` — a named constant coefficient,
* :class:`Const` — a literal constant, and
* :class:`BinOp` — ``+``, ``-`` or ``*`` of two sub-expressions.

Keeping the update as an explicit expression tree lets both code generators
work from exactly the same definition, makes FLOP/load/coefficient counting
(Table 1) trivial, and gives the NumPy reference evaluator an independent
execution path for correctness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union


class Expr:
    """Base class for stencil expressions."""

    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", _wrap(other), self)


ExprLike = Union[Expr, float, int]


def _wrap(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


@dataclass(frozen=True)
class GridRef(Expr):
    """A load of ``array`` at ``offset`` (relative grid coordinates) from the point."""

    array: str
    offset: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", tuple(int(o) for o in self.offset))


@dataclass(frozen=True)
class Coeff(Expr):
    """A named constant coefficient of the stencil."""

    name: str


@dataclass(frozen=True)
class Const(Expr):
    """A literal floating-point constant."""

    value: float


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation over two sub-expressions (``+``, ``-`` or ``*``)."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*"):
            raise ValueError(f"unsupported operator {self.op!r}")


def add(*terms: ExprLike) -> Expr:
    """Left-associated sum of one or more expressions."""
    if not terms:
        raise ValueError("add() needs at least one term")
    result = _wrap(terms[0])
    for term in terms[1:]:
        result = BinOp("+", result, _wrap(term))
    return result


def sub(lhs: ExprLike, rhs: ExprLike) -> Expr:
    """Difference of two expressions."""
    return BinOp("-", _wrap(lhs), _wrap(rhs))


def mul(lhs: ExprLike, rhs: ExprLike) -> Expr:
    """Product of two expressions."""
    return BinOp("*", _wrap(lhs), _wrap(rhs))


# ---------------------------------------------------------------------------
# Tree walks
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the expression tree (pre-order).

    Iterative: a recursive generator re-yields each node through every
    enclosing level, which is quadratic on the long sum chains of stencils.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.append(node.rhs)
            stack.append(node.lhs)


def grid_refs(expr: Expr) -> List[GridRef]:
    """All grid loads in the expression, in evaluation (left-to-right) order."""
    return [node for node in walk(expr) if isinstance(node, GridRef)]


def coeff_names(expr: Expr) -> List[str]:
    """Distinct coefficient names, in first-use order."""
    names: List[str] = []
    for node in walk(expr):
        if isinstance(node, Coeff) and node.name not in names:
            names.append(node.name)
    return names


def coeff_uses(expr: Expr) -> List[str]:
    """Every coefficient use in the expression, in evaluation order."""
    return [node.name for node in walk(expr) if isinstance(node, Coeff)]


def count_flops(expr: Expr) -> int:
    """Number of floating-point operations in the expression (one per BinOp).

    This matches the per-grid-point FLOP accounting of Table 1; fused
    multiply-add instructions emitted by the code generators count as two.
    """
    return sum(1 for node in walk(expr) if isinstance(node, BinOp))


def count_loads(expr: Expr) -> int:
    """Number of grid loads per point update."""
    return len(grid_refs(expr))


def arrays_read(expr: Expr) -> List[str]:
    """Distinct arrays read by the expression, in first-use order."""
    seen: List[str] = []
    for ref in grid_refs(expr):
        if ref.array not in seen:
            seen.append(ref.array)
    return seen


def max_offset_radius(expr: Expr) -> int:
    """Largest absolute offset component used by any grid load."""
    radius = 0
    for ref in grid_refs(expr):
        for component in ref.offset:
            radius = max(radius, abs(component))
    return radius


def substitute_coeffs(expr: Expr, values: Dict[str, float]) -> Expr:
    """Return a copy of the expression with coefficients replaced by constants."""
    if isinstance(expr, Coeff):
        if expr.name not in values:
            raise KeyError(f"missing value for coefficient {expr.name!r}")
        return Const(float(values[expr.name]))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute_coeffs(expr.lhs, values),
                     substitute_coeffs(expr.rhs, values))
    return expr
