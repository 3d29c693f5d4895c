"""Deterministic SMT-LIB 2 emission for external δ-SAT solvers.

Walks the expression DAGs behind :class:`repro.smt.Constraint` into
``(declare-const …)`` + ``(assert …)`` text that both Z3 and dReal 4
accept.  Two hard rules keep the output portable and reproducible:

* **Decimal literals only.**  Every constant is printed as the *exact*
  fixed-point decimal expansion of its binary double — never scientific
  notation (``1e-05`` is not SMT-LIB and silently breaks some parsers,
  the trap the rospoly exemplar works around with string surgery).
  Exactness also means a solver re-parsing the literal recovers the
  original double bit-for-bit.
* **Lowest-common-denominator encodings.**  ``min``/``max``/``abs``
  become ``ite`` terms, ``sigmoid`` is expanded through ``exp``, and
  integer powers use ``(^ base n)``.  Transcendental functions are
  emitted directly (``sin``, ``tanh``, …) and *recorded* in
  :attr:`SmtLibQuery.ops` so backends that cannot handle them (Z3 on
  nonlinear-real logic) can decline the query instead of erroring.

The emitted query mirrors :func:`repro.smt.check_exists_on_boxes`
semantics: one ``(assert (or …))`` over the subproblem union, each
disjunct conjoining the region's bounds with its constraint atoms, plus
a bounding-hull assertion per variable (dReal requires bounded boxes).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Sequence

from ..errors import SolverError
from ..expr.node import (
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
from ..smt.constraint import Constraint, Relation
from ..smt.queries import Subproblem

__all__ = [
    "TRANSCENDENTAL_OPS",
    "SmtLibQuery",
    "decimal_literal",
    "symbol",
    "expr_to_smtlib",
    "constraint_to_smtlib",
    "emit_query",
]

#: Unary operations that leave pure ``QF_NRA`` — solvers lacking
#: transcendental support (Z3) must decline queries whose
#: :attr:`SmtLibQuery.ops` intersects this set.  ``sigmoid`` never
#: appears here because emission expands it through ``exp``.
TRANSCENDENTAL_OPS = frozenset(
    {"sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "atan"}
)

_SIMPLE_SYMBOL = re.compile(r"^[A-Za-z~!@$%^&*_+=<>.?/-][A-Za-z0-9~!@$%^&*_+=<>.?/-]*$")

_RELATION_HEADS = {
    Relation.LE: "<=",
    Relation.LT: "<",
    Relation.GE: ">=",
    Relation.GT: ">",
    Relation.EQ: "=",
}


def decimal_literal(value: float) -> str:
    """Exact fixed-point SMT-LIB rendering of a binary double.

    ``Decimal(value)`` expands the float's binary fraction exactly, so
    the printed literal round-trips to the identical double — no
    precision is lost crossing the process boundary, and no scientific
    notation ever appears.  Negative values wrap in ``(- …)`` (SMT-LIB
    has no signed numerals).

    >>> decimal_literal(0.5)
    '0.5'
    >>> decimal_literal(-2.0)
    '(- 2.0)'
    >>> decimal_literal(1e-3)
    '0.001000000000000000020816681711721685132943093776702880859375'
    """
    if not math.isfinite(value):
        raise SolverError(f"cannot emit non-finite constant {value!r} as SMT-LIB")
    magnitude = abs(value)
    text = format(Decimal(magnitude), "f")
    if "." not in text:
        text += ".0"
    if value < 0.0 or (value == 0.0 and math.copysign(1.0, value) < 0.0):
        return f"(- {text})"
    return text


def symbol(name: str) -> str:
    """SMT-LIB rendering of a variable name (quoted when necessary)."""
    if _SIMPLE_SYMBOL.match(name):
        return name
    if "|" in name or "\\" in name:
        raise SolverError(f"variable name {name!r} cannot be an SMT-LIB symbol")
    return f"|{name}|"


def expr_to_smtlib(root: Expr) -> tuple[str, frozenset[str]]:
    """Render an expression DAG as an SMT-LIB 2 term.

    Returns ``(text, ops)`` where ``ops`` is the subset of
    :data:`TRANSCENDENTAL_OPS` the term uses after encoding (``abs``,
    ``min`` and ``max`` vanish into ``ite``; ``sigmoid`` contributes
    ``exp``).  Iterative over :func:`repro.expr.postorder` — shared
    subterms are rendered once into the memo but inlined textually,
    which keeps the output a pure term (no ``let``) at the cost of
    repetition; scenario constraint tapes stay small enough for this.
    """
    rendered: dict[int, str] = {}
    ops: set[str] = set()
    for node in postorder(root):
        rendered[id(node)] = _render_node(node, rendered, ops)
    return rendered[id(root)], frozenset(ops)


def _render_node(node: Expr, rendered: dict[int, str], ops: set[str]) -> str:
    if isinstance(node, Const):
        return decimal_literal(node.value)
    if isinstance(node, Var):
        return symbol(node.name)
    if isinstance(node, Add):
        return f"(+ {rendered[id(node.left)]} {rendered[id(node.right)]})"
    if isinstance(node, Sub):
        return f"(- {rendered[id(node.left)]} {rendered[id(node.right)]})"
    if isinstance(node, Mul):
        return f"(* {rendered[id(node.left)]} {rendered[id(node.right)]})"
    if isinstance(node, Div):
        return f"(/ {rendered[id(node.left)]} {rendered[id(node.right)]})"
    if isinstance(node, Neg):
        return f"(- {rendered[id(node.child)]})"
    if isinstance(node, Min2):
        a, b = rendered[id(node.left)], rendered[id(node.right)]
        return f"(ite (<= {a} {b}) {a} {b})"
    if isinstance(node, Max2):
        a, b = rendered[id(node.left)], rendered[id(node.right)]
        return f"(ite (>= {a} {b}) {a} {b})"
    if isinstance(node, Pow):
        base = rendered[id(node.base)]
        n = node.exponent
        if n == 0:
            return "1.0"
        if n == 1:
            return base
        if n > 1:
            return f"(^ {base} {n})"
        if n == -1:
            return f"(/ 1.0 {base})"
        return f"(/ 1.0 (^ {base} {-n}))"
    if isinstance(node, Unary):
        child = rendered[id(node.child)]
        if node.op == "abs":
            return f"(ite (>= {child} 0.0) {child} (- {child}))"
        if node.op == "sigmoid":
            ops.add("exp")
            return f"(/ 1.0 (+ 1.0 (exp (- {child}))))"
        ops.add(node.op)
        return f"({node.op} {child})"
    raise SolverError(f"cannot emit {type(node).__name__} node as SMT-LIB")


def constraint_to_smtlib(constraint: Constraint) -> tuple[str, frozenset[str]]:
    """Render ``expr ⋈ 0`` as an SMT-LIB atom, returning ``(text, ops)``."""
    term, ops = expr_to_smtlib(constraint.expr)
    return f"({_RELATION_HEADS[constraint.relation]} {term} 0.0)", ops


@dataclass(frozen=True)
class SmtLibQuery:
    """An emitted query plus the metadata backends dispatch on.

    ``text`` ends with ``(check-sat)`` and no model command — adapters
    append ``(get-model)`` or pass ``--model`` per their solver's
    dialect, so golden files stay solver-neutral.  ``subproblems`` keeps
    the original structured query alive for witness validation.
    """

    text: str
    names: tuple[str, ...]
    ops: frozenset[str]
    delta: float
    logic: str = "QF_NRA"
    subproblems: tuple[Subproblem, ...] = field(default=(), compare=False)


def emit_query(
    subproblems: Sequence[Subproblem],
    names: Sequence[str],
    delta: float,
    logic: str = "QF_NRA",
) -> SmtLibQuery:
    """Emit ``∃x ∈ ∪ subproblems`` as one SMT-LIB 2 script.

    Deterministic: identical subproblems and names yield byte-identical
    text (the golden-corpus tests pin this).  Raises
    :class:`~repro.errors.SolverError` on an empty union or an unbounded
    region.
    """
    names = tuple(names)
    if not subproblems:
        raise SolverError("cannot emit an SMT-LIB query for an empty union")
    for sub in subproblems:
        if sub.region.dimension != len(names):
            raise SolverError(
                f"region dimension {sub.region.dimension} != {len(names)} variables"
            )
        if not sub.region.is_finite():
            raise SolverError("SMT-LIB emission requires bounded regions")

    ops: set[str] = set()
    disjuncts: list[str] = []
    labels: list[str] = []
    for index, sub in enumerate(subproblems):
        parts: list[str] = []
        for dim, name in enumerate(names):
            interval = sub.region[dim]
            sym = symbol(name)
            parts.append(f"(<= {decimal_literal(interval.lo)} {sym})")
            parts.append(f"(<= {sym} {decimal_literal(interval.hi)})")
        for constraint in sub.constraints:
            atom, atom_ops = constraint_to_smtlib(constraint)
            ops.update(atom_ops)
            parts.append(atom)
        disjuncts.append("(and " + " ".join(parts) + ")")
        labels.append(sub.label or f"subproblem-{index}")

    lines: list[str] = [
        "; repro.solvers SMT-LIB 2 emission",
        f"; delta = {decimal_literal(delta)}",
        f"; variables: {' '.join(names)}",
        f"; subproblems: {len(subproblems)} ({', '.join(labels)})",
        f"(set-logic {logic})",
    ]
    for name in names:
        lines.append(f"(declare-const {symbol(name)} Real)")
    # Bounding hull over all regions: dReal insists every variable is
    # boxed, and a global bound helps Z3's nlsat prune too.
    for dim, name in enumerate(names):
        lo = min(sub.region[dim].lo for sub in subproblems)
        hi = max(sub.region[dim].hi for sub in subproblems)
        sym = symbol(name)
        lines.append(
            f"(assert (and (<= {decimal_literal(lo)} {sym})"
            f" (<= {sym} {decimal_literal(hi)})))"
        )
    if len(disjuncts) == 1:
        lines.append(f"(assert {disjuncts[0]})")
    else:
        lines.append("(assert (or")
        for disjunct in disjuncts:
            lines.append(f"  {disjunct}")
        lines.append("))")
    lines.append("(check-sat)")
    text = "\n".join(lines) + "\n"
    return SmtLibQuery(
        text=text,
        names=names,
        ops=frozenset(ops & TRANSCENDENTAL_OPS),
        delta=delta,
        logic=logic,
        subproblems=tuple(subproblems),
    )
