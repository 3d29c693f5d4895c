"""Symbolic expressions: the modeling language of the library.

Vector fields, controllers, and barrier templates are all expressions.
They evaluate numerically, evaluate soundly over interval boxes, compile
to batched tapes for the δ-SAT solver, differentiate symbolically, and
print to infix.
"""

from .build import (
    absolute,
    atan,
    const,
    cos,
    dot,
    exp,
    log,
    maximum,
    minimum,
    relu,
    sigmoid,
    sin,
    sqrt,
    sum_expr,
    tan,
    tanh,
    var,
    variables,
)
from .compile import CompiledExpression, compile_expression
from .differentiate import differentiate, gradient
from .evaluate import evaluate, evaluate_box
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
    as_expr,
    count_nodes,
    postorder,
    variables_of,
)
from .printer import to_infix
from .simplify import simplify, structurally_equal
from .substitute import substitute

__all__ = [
    "Add",
    "CompiledExpression",
    "Const",
    "Div",
    "Expr",
    "Max2",
    "Min2",
    "Mul",
    "Neg",
    "Pow",
    "Sub",
    "Unary",
    "Var",
    "absolute",
    "as_expr",
    "atan",
    "compile_expression",
    "const",
    "cos",
    "count_nodes",
    "differentiate",
    "dot",
    "evaluate",
    "evaluate_box",
    "exp",
    "gradient",
    "log",
    "maximum",
    "minimum",
    "postorder",
    "relu",
    "sigmoid",
    "simplify",
    "sin",
    "sqrt",
    "structurally_equal",
    "substitute",
    "sum_expr",
    "tan",
    "tanh",
    "to_infix",
    "var",
    "variables",
    "variables_of",
]
