"""Expression pretty-printing: deterministic infix strings.

Infix output is for reading and for artifact records; it is not
SMT-LIB, and ``repr(float)`` literals are not exact decimals.
"""

from __future__ import annotations

from .node import (
    Add,
    Const,
    Expr,
    Max2,
    Min2,
    Mul,
    Neg,
    Pow,
    Sub,
    Unary,
    Var,
    postorder,
)

__all__ = ["to_infix"]

# Precedence levels for parenthesization (larger binds tighter).
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def to_infix(root: Expr, max_length: int | None = None) -> str:
    """Human-readable infix rendering (deterministic, minimal parens)."""
    rendered: dict[int, tuple[str, int]] = {}
    for node in postorder(root):
        rendered[id(node)] = _render(node, rendered)
    text = rendered[id(root)][0]
    if max_length is not None and len(text) > max_length:
        text = text[: max_length - 3] + "..."
    return text


def _render(node: Expr, rendered: dict[int, tuple[str, int]]) -> tuple[str, int]:
    if isinstance(node, Const):
        value = node.value
        if value == int(value) and abs(value) < 1e16:
            text = str(int(value))
        else:
            text = repr(value)
        return (f"({text})" if value < 0 else text, _PREC_ATOM)
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Neg):
        child, prec = rendered[id(node.child)]
        if prec < _PREC_NEG:
            child = f"({child})"
        return f"-{child}", _PREC_NEG
    if isinstance(node, Pow):
        base, prec = rendered[id(node.base)]
        if prec < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{node.exponent}", _PREC_POW
    if isinstance(node, Unary):
        child, _ = rendered[id(node.child)]
        return f"{node.op}({child})", _PREC_ATOM
    if isinstance(node, (Min2, Max2)):
        name = "min" if isinstance(node, Min2) else "max"
        left, _ = rendered[id(node.left)]
        right, _ = rendered[id(node.right)]
        return f"{name}({left}, {right})", _PREC_ATOM
    left, lprec = rendered[id(node.left)]
    right, rprec = rendered[id(node.right)]
    if isinstance(node, Add):
        symbol, prec, right_min = " + ", _PREC_ADD, _PREC_ADD
    elif isinstance(node, Sub):
        symbol, prec, right_min = " - ", _PREC_ADD, _PREC_ADD + 1
    elif isinstance(node, Mul):
        symbol, prec, right_min = "*", _PREC_MUL, _PREC_MUL
    else:  # Div
        symbol, prec, right_min = "/", _PREC_MUL, _PREC_MUL + 1
    if lprec < prec:
        left = f"({left})"
    if rprec < right_min:
        right = f"({right})"
    return f"{left}{symbol}{right}", prec
