"""Atomic relational constraints ``expr ⋈ 0``.

Every constraint is normalized to compare an expression against zero,
which keeps the interval decision logic uniform:  ``g(x) <= c`` becomes
``g(x) - c <= 0``.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from ..errors import ExpressionError
from ..expr import CompiledExpression, Expr, as_expr, compile_expression, to_infix
from ..intervals import Box

__all__ = ["Relation", "Status", "Constraint", "le", "lt", "ge", "gt", "eq"]


class Relation(enum.Enum):
    """Comparison of an expression against zero."""

    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"
    EQ = "=="

    def flip(self) -> "Relation":
        """Relation satisfied by ``-expr`` whenever ``expr`` satisfies self."""
        return {
            Relation.LE: Relation.GE,
            Relation.LT: Relation.GT,
            Relation.GE: Relation.LE,
            Relation.GT: Relation.LT,
            Relation.EQ: Relation.EQ,
        }[self]

    def negate(self) -> "Relation":
        """Relation holding exactly when self does not."""
        return {
            Relation.LE: Relation.GT,
            Relation.LT: Relation.GE,
            Relation.GE: Relation.LT,
            Relation.GT: Relation.LE,
        }[self]


class Status(enum.IntEnum):
    """Three-valued interval verdict of a constraint over a box."""

    CERTAIN_FALSE = 0
    UNKNOWN = 1
    CERTAIN_TRUE = 2


class Constraint:
    """An atomic constraint ``expr ⋈ 0`` over named variables.

    Parameters
    ----------
    expr:
        Left-hand side expression.
    relation:
        One of :class:`Relation` (or its string value).
    name:
        Optional label used in reports.
    """

    def __init__(self, expr: "Expr | float", relation: "Relation | str", name: str = ""):
        self.expr = as_expr(expr)
        self.relation = Relation(relation)
        self.name = name
        self._compiled: dict[tuple[str, ...], CompiledExpression] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compiled(self, variable_names: Sequence[str]) -> CompiledExpression:
        """Tape compiled against ``variable_names`` (cached per ordering).

        One cache entry per distinct name tuple: alternating between two
        variable orders never evicts (or hands back) the other order's
        tape — a single-slot cache here would silently re-compile on
        every flip and, worse, made downstream caches keyed per tape
        (generated point functions) churn with it.
        """
        names = tuple(variable_names)
        tape = self._compiled.get(names)
        if tape is None:
            tape = self._compiled[names] = compile_expression(self.expr, names)
        return tape

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def status_from_bounds(
        self, lo: np.ndarray, hi: np.ndarray, slack: float = 0.0
    ) -> np.ndarray:
        """Vectorized three-valued verdicts from expression bounds.

        ``slack >= 0`` loosens CERTAIN_FALSE decisions (used for
        δ-weakening of equalities).  Returns an int array of
        :class:`Status` values.
        """
        out = np.full(lo.shape, int(Status.UNKNOWN), dtype=np.int8)
        if self.relation is Relation.LE:
            out[hi <= 0.0] = int(Status.CERTAIN_TRUE)
            out[lo > slack] = int(Status.CERTAIN_FALSE)
        elif self.relation is Relation.LT:
            out[hi < 0.0] = int(Status.CERTAIN_TRUE)
            out[lo >= slack] = int(Status.CERTAIN_FALSE)
        elif self.relation is Relation.GE:
            out[lo >= 0.0] = int(Status.CERTAIN_TRUE)
            out[hi < -slack] = int(Status.CERTAIN_FALSE)
        elif self.relation is Relation.GT:
            out[lo > 0.0] = int(Status.CERTAIN_TRUE)
            out[hi <= -slack] = int(Status.CERTAIN_FALSE)
        else:  # EQ
            degenerate = (lo == 0.0) & (hi == 0.0)
            out[degenerate] = int(Status.CERTAIN_TRUE)
            out[(lo > slack) | (hi < -slack)] = int(Status.CERTAIN_FALSE)
        return out

    def status_on_box(
        self, box: Box, variable_names: Sequence[str], slack: float = 0.0
    ) -> Status:
        """Three-valued verdict over a single box."""
        tape = self.compiled(variable_names)
        bounds = box.to_array()
        lo, hi = tape.eval_boxes(bounds[None, :, 0], bounds[None, :, 1])
        return Status(int(self.status_from_bounds(lo, hi, slack)[0]))

    def satisfied_at(
        self, point: Sequence[float], variable_names: Sequence[str], slack: float = 0.0
    ) -> bool:
        """Numeric check at a point, relaxed outward by ``slack``."""
        value = self.compiled(variable_names).eval_point(point)
        if self.relation is Relation.LE:
            return value <= slack
        if self.relation is Relation.LT:
            return value < slack
        if self.relation is Relation.GE:
            return value >= -slack
        if self.relation is Relation.GT:
            return value > -slack
        return abs(value) <= slack

    def negated(self) -> "Constraint":
        """Constraint holding exactly where this one fails.

        Equalities have no single-atom negation; callers should split
        ``expr != 0`` into a disjunction themselves.
        """
        if self.relation is Relation.EQ:
            raise ExpressionError("negation of an equality is a disjunction")
        label = f"not({self.name})" if self.name else ""
        return Constraint(self.expr, self.relation.negate(), label)

    def __repr__(self) -> str:
        label = f" '{self.name}'" if self.name else ""
        return f"<Constraint{label}: {to_infix(self.expr, 60)} {self.relation.value} 0>"


def le(expr: "Expr | float", bound: "Expr | float" = 0.0, name: str = "") -> Constraint:
    """``expr <= bound``."""
    return Constraint(as_expr(expr) - as_expr(bound), Relation.LE, name)


def lt(expr: "Expr | float", bound: "Expr | float" = 0.0, name: str = "") -> Constraint:
    """``expr < bound``."""
    return Constraint(as_expr(expr) - as_expr(bound), Relation.LT, name)


def ge(expr: "Expr | float", bound: "Expr | float" = 0.0, name: str = "") -> Constraint:
    """``expr >= bound``."""
    return Constraint(as_expr(expr) - as_expr(bound), Relation.GE, name)


def gt(expr: "Expr | float", bound: "Expr | float" = 0.0, name: str = "") -> Constraint:
    """``expr > bound``."""
    return Constraint(as_expr(expr) - as_expr(bound), Relation.GT, name)


def eq(expr: "Expr | float", bound: "Expr | float" = 0.0, name: str = "") -> Constraint:
    """``expr == bound`` (decided up to δ)."""
    return Constraint(as_expr(expr) - as_expr(bound), Relation.EQ, name)
