"""Expression evaluation in numeric and interval semantics.

One walker serves both: the elementary operations come from
:mod:`repro.intervals.functions`, whose ``i*`` helpers dispatch on the
operand type (float vs :class:`~repro.intervals.Interval`).  Evaluation
is iterative over the DAG postorder, so arbitrarily wide/deep NN
expressions evaluate without touching the Python recursion limit, and
shared subexpressions are computed once.
"""

from __future__ import annotations

from typing import Mapping, Union

from ..errors import EvaluationError
from ..intervals import Box, Interval
from ..intervals.functions import (
    iabs,
    iatan,
    icos,
    iexp,
    ilog,
    imax,
    imin,
    ipow,
    isigmoid,
    isin,
    isqrt,
    itan,
    itanh,
)
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

__all__ = ["evaluate", "evaluate_box", "Value"]

Value = Union[float, Interval]

_UNARY_FUNCS = {
    "sin": isin,
    "cos": icos,
    "tan": itan,
    "tanh": itanh,
    "sigmoid": isigmoid,
    "exp": iexp,
    "log": ilog,
    "sqrt": isqrt,
    "abs": iabs,
    "atan": iatan,
}


def evaluate(root: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate ``root`` with variables bound by ``env``.

    ``env`` may bind floats (numeric semantics), intervals (interval
    semantics), or a mix; a single interval input makes the result an
    interval.

    Raises
    ------
    EvaluationError
        When a variable is unbound.
    """
    values: dict[int, Value] = {}
    for node in postorder(root):
        values[id(node)] = _apply(node, values, env)
    return values[id(root)]


def evaluate_box(root: Expr, box: Box, names: list[str]) -> Interval:
    """Evaluate ``root`` over ``box``, whose components are named by ``names``."""
    if box.dimension != len(names):
        raise EvaluationError(
            f"box dimension {box.dimension} does not match {len(names)} names"
        )
    env = dict(zip(names, box.intervals))
    result = evaluate(root, env)
    if not isinstance(result, Interval):
        result = Interval.point(float(result))
    return result


def _apply(node: Expr, values: dict[int, Value], env: Mapping[str, Value]) -> Value:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Add):
        return values[id(node.left)] + values[id(node.right)]
    if isinstance(node, Sub):
        return values[id(node.left)] - values[id(node.right)]
    if isinstance(node, Mul):
        return values[id(node.left)] * values[id(node.right)]
    if isinstance(node, Div):
        return values[id(node.left)] / values[id(node.right)]
    if isinstance(node, Neg):
        return -values[id(node.child)]
    if isinstance(node, Pow):
        return ipow(values[id(node.base)], node.exponent)
    if isinstance(node, Unary):
        return _UNARY_FUNCS[node.op](values[id(node.child)])
    if isinstance(node, Min2):
        return imin(values[id(node.left)], values[id(node.right)])
    if isinstance(node, Max2):
        return imax(values[id(node.left)], values[id(node.right)])
    raise EvaluationError(f"unknown node type: {type(node).__name__}")
