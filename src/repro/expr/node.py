"""Symbolic expression AST.

Expressions are immutable DAG nodes with operator overloading, so the
closed-loop vector fields, neural-network outputs, and barrier templates
can all be written in natural Python and then evaluated numerically,
evaluated over intervals, differentiated symbolically, simplified, and
handed to the δ-SAT solver.

The node zoo is intentionally small and closed:

* :class:`Const`, :class:`Var` — leaves;
* :class:`Add`, :class:`Sub`, :class:`Mul`, :class:`Div` — binary arithmetic;
* :class:`Neg` — unary minus;
* :class:`Pow` — integer powers only (keeps interval/diff semantics exact);
* :class:`Unary` — table-driven elementary functions (sin, cos, tan,
  tanh, sigmoid, exp, log, sqrt, abs, atan);
* :class:`Min2`, :class:`Max2` — binary min/max (for ReLU-style pieces).

Deep/wide expressions (e.g. thousand-neuron networks) are handled by the
iterative walkers in :mod:`repro.expr.evaluate` — nothing here recurses.
"""

from __future__ import annotations

from ..errors import ExpressionError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Unary",
    "Min2",
    "Max2",
    "UNARY_OPS",
    "as_expr",
    "postorder",
    "variables_of",
    "count_nodes",
]

#: Names of supported elementary functions for :class:`Unary` nodes.
UNARY_OPS = (
    "sin",
    "cos",
    "tan",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "abs",
    "atan",
)


class Expr:
    """Base class of all expression nodes.

    Supports Python arithmetic operators, which build new nodes.  Nodes
    compare by identity (they form a DAG); use
    :func:`repro.expr.simplify.structurally_equal` for structural tests.
    """

    __slots__ = ()

    #: subclasses set this to their child tuple attribute names
    _child_slots: tuple[str, ...] = ()

    def children(self) -> tuple["Expr", ...]:
        """Child nodes in positional order."""
        return tuple(getattr(self, slot) for slot in self._child_slots)

    def __setstate__(self, state: tuple) -> None:
        # Unpickling would otherwise restore the slots through the
        # immutability guard below; the pickled form is unchanged.
        _, slots = state
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Operator overloading
    # ------------------------------------------------------------------
    def __add__(self, other: "Expr | float") -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: "Expr | float") -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: "Expr | float") -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: "Expr | float") -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: "Expr | float") -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: "Expr | float") -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: "Expr | float") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | float") -> "Expr":
        return Div(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)

    def __repr__(self) -> str:
        from .printer import to_infix  # local import avoids a cycle

        return f"<{type(self).__name__}: {to_infix(self, max_length=80)}>"

    # Hash/eq by identity: expressions form DAGs and are interned by id
    # in every walker's memo table.
    __hash__ = object.__hash__


class Const(Expr):
    """A real constant leaf."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        value = float(value)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Const is immutable")


class Var(Expr):
    """A named real variable leaf."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ExpressionError(f"variable name must be a non-empty string: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Var is immutable")


class _Binary(Expr):
    __slots__ = ("left", "right")
    _child_slots = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _require_expr(left)
        _require_expr(right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Add(_Binary):
    """``left + right``."""

    __slots__ = ()


class Sub(_Binary):
    """``left - right``."""

    __slots__ = ()


class Mul(_Binary):
    """``left * right``."""

    __slots__ = ()


class Div(_Binary):
    """``left / right``."""

    __slots__ = ()


class Min2(_Binary):
    """``min(left, right)``."""

    __slots__ = ()


class Max2(_Binary):
    """``max(left, right)``."""

    __slots__ = ()


class Neg(Expr):
    """``-child``."""

    __slots__ = ("child",)
    _child_slots = ("child",)

    def __init__(self, child: Expr):
        _require_expr(child)
        object.__setattr__(self, "child", child)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Neg is immutable")


class Pow(Expr):
    """``base ** exponent`` with a literal integer exponent."""

    __slots__ = ("base", "exponent")
    _child_slots = ("base",)

    def __init__(self, base: Expr, exponent: int):
        _require_expr(base)
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ExpressionError(
                f"Pow exponent must be a Python int, got {exponent!r}; "
                "use exp/log for real exponents"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Pow is immutable")


class Unary(Expr):
    """Elementary function application ``op(child)``.

    ``op`` must be one of :data:`UNARY_OPS`.
    """

    __slots__ = ("op", "child")
    _child_slots = ("child",)

    def __init__(self, op: str, child: Expr):
        if op not in UNARY_OPS:
            raise ExpressionError(f"unknown unary op {op!r}; supported: {UNARY_OPS}")
        _require_expr(child)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "child", child)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Unary is immutable")


def _require_expr(node: object) -> None:
    if not isinstance(node, Expr):
        raise ExpressionError(
            f"expected an Expr, got {node!r}; wrap literals with as_expr()"
        )


def as_expr(value: "Expr | float | int") -> Expr:
    """Coerce a Python number to :class:`Const` (passes expressions through)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise ExpressionError("booleans are not expression values")
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise ExpressionError(f"cannot coerce {value!r} to an expression")


def postorder(root: Expr) -> list[Expr]:
    """All DAG nodes reachable from ``root`` in child-before-parent order.

    Iterative (no recursion) and deduplicated: each shared subexpression
    appears exactly once.
    """
    order: list[Expr] = []
    visited: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node.children():
            if id(child) not in visited:
                stack.append((child, False))
    return order


def variables_of(root: Expr) -> list[str]:
    """Sorted names of all variables appearing under ``root``."""
    names = {node.name for node in postorder(root) if isinstance(node, Var)}
    return sorted(names)


def count_nodes(root: Expr) -> int:
    """Number of distinct DAG nodes reachable from ``root``."""
    return len(postorder(root))
