"""Algebraic simplification: constant folding plus local identities.

The simplifier is deliberately conservative — it applies only rewrites
valid for every real (and interval) valuation:

* constant folding of ``+ - * /``, ``**``, ``min``/``max``, negation and
  ``abs`` over constant children, only where the float result is the
  exact real result (checked with :class:`fractions.Fraction`);
  transcendental nodes over constants are kept, so their values stay
  with the sound interval semantics instead of a rounded libm float;
* ``x + 0``, ``0 + x``, ``x - 0``, ``x * 1``, ``1 * x``, ``x / 1``;
* ``x * 0`` and ``0 * x`` to ``0`` (sound: operands are total functions
  of the variables — partial-domain ops like log keep their argument);
* ``--x`` to ``x``; ``0 - x`` to ``-x``; ``x ** 1`` to ``x``; ``x ** 0`` to ``1``;
* ``neg`` constant fusion.

It runs bottom-up over the DAG once (iterative), so cost is linear in
the number of distinct nodes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .node import (
    Add,
    Const,
    Div,
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

__all__ = ["simplify", "structurally_equal", "is_zero", "is_one", "constant_value"]


def is_zero(node: Expr) -> bool:
    """True for the literal constant 0."""
    return isinstance(node, Const) and node.value == 0.0


def is_one(node: Expr) -> bool:
    """True for the literal constant 1."""
    return isinstance(node, Const) and node.value == 1.0


def constant_value(node: Expr) -> float | None:
    """The float value of a constant node, else None."""
    return node.value if isinstance(node, Const) else None


def simplify(root: Expr) -> Expr:
    """Return a semantically equal, locally simplified expression."""
    rebuilt: dict[int, Expr] = {}
    for node in postorder(root):
        rebuilt[id(node)] = _simplify_node(node, rebuilt)
    return rebuilt[id(root)]


def _simplify_node(node: Expr, rebuilt: dict[int, Expr]) -> Expr:
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        child = rebuilt[id(node.child)]
        if isinstance(child, Const):
            # negation only flips the sign bit: always exact
            return Const(-child.value)
        if isinstance(child, Neg):
            return child.child
        return Neg(child)
    if isinstance(node, Add):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _exact_fold(operator.add, left.value, right.value)
            if folded is not None:
                return folded
        if is_zero(left):
            return right
        if is_zero(right):
            return left
        return Add(left, right)
    if isinstance(node, Sub):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _exact_fold(operator.sub, left.value, right.value)
            if folded is not None:
                return folded
        if is_zero(right):
            return left
        if is_zero(left):
            return Neg(right) if not isinstance(right, Neg) else right.child
        return Sub(left, right)
    if isinstance(node, Mul):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _exact_fold(operator.mul, left.value, right.value)
            if folded is not None:
                return folded
        if is_zero(left) or is_zero(right):
            return Const(0.0)
        if is_one(left):
            return right
        if is_one(right):
            return left
        return Mul(left, right)
    if isinstance(node, Div):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(right, Const) and right.value != 0.0:
            if isinstance(left, Const):
                folded = _exact_fold(operator.truediv, left.value, right.value)
                if folded is not None:
                    return folded
            if right.value == 1.0:
                return left
        if is_zero(left) and not is_zero(right):
            # 0 / x is 0 wherever defined; keep the denominator's domain
            # restriction only when it can actually vanish symbolically.
            if isinstance(right, Const):
                return Const(0.0)
        return Div(left, right)
    if isinstance(node, Pow):
        base = rebuilt[id(node.base)]
        if node.exponent == 0:
            return Const(1.0)
        if node.exponent == 1:
            return base
        if isinstance(base, Const):
            folded = _exact_fold(operator.pow, base.value, node.exponent)
            if folded is not None:
                return folded
        return Pow(base, node.exponent)
    if isinstance(node, Unary):
        child = rebuilt[id(node.child)]
        if node.op == "abs" and isinstance(child, Const):
            return Const(abs(child.value))
        return Unary(node.op, child)
    if isinstance(node, Min2):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(min(left.value, right.value))
        return Min2(left, right)
    if isinstance(node, Max2):
        left = rebuilt[id(node.left)]
        right = rebuilt[id(node.right)]
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(max(left.value, right.value))
        return Max2(left, right)
    return node


def _exact_fold(op, left: float, right: "float | int") -> Const | None:
    """``Const(op(left, right))`` when the float result is exact, else None.

    ``op`` is an :mod:`operator` function, applied once to the floats and
    once to their exact :class:`~fractions.Fraction` values.  A rounded,
    overflowed, undefined or non-finite result is None: the caller keeps
    the node for the interval semantics to bound.
    """
    if not (math.isfinite(left) and math.isfinite(right)):
        return None
    try:
        value = op(left, right)
        exact = op(Fraction(left), Fraction(right))
    except (OverflowError, ZeroDivisionError):
        return None
    if not math.isfinite(value) or Fraction(value) != exact:
        return None
    return Const(value)


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Structural (shape + value) equality of two expressions.

    Iterative pairwise walk; shared-node identity short-circuits.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Const):
            if x.value != y.value and not (math.isnan(x.value) and math.isnan(y.value)):
                return False
            continue
        if isinstance(x, Var):
            if x.name != y.name:
                return False
            continue
        if isinstance(x, Pow) and x.exponent != y.exponent:
            return False
        if isinstance(x, Unary) and x.op != y.op:
            return False
        xc = x.children()
        yc = y.children()
        if len(xc) != len(yc):
            return False
        stack.extend(zip(xc, yc))
    return True
