"""Straight-line NumPy code generation for batch point evaluation.

Simulation evaluates the same vector field thousands of times on small
``(m, n)`` state blocks.  Walking a :class:`CompiledExpression` tape per
component pays Python dispatch per instruction on every call; on 25-row
blocks that dispatch, not the arithmetic, is the cost.  A
:class:`SourceBuilder` instead turns tapes into the source of one
function ``F(X)`` — one assignment per instruction, no loop, no
dispatch — and compiles it once with ``exec``.

The generated code is bit-identical to the interpreter
(:meth:`CompiledExpression.eval_points`) by construction:

* every instruction calls the same ufunc on the same operands, in tape
  order, as ``_numeric_op``; division, log and sqrt keep the
  interpreter's per-instruction ``np.errstate``, so warnings match too;
* constants and other values are bound by name in the ``exec``
  namespace, never printed as float literals, so ``inf``/``nan``
  constants are safe and no user-supplied string reaches the source;
* a constant stays a scalar only where it meets a varying operand in
  ``+ - * /`` (elementwise IEEE arithmetic gives the same bits for a
  scalar and for a filled array); everywhere else — constant-only
  subtrees, a constant result — it is materialized with ``np.full``
  exactly as the interpreter does, so every result is an ``(m,)`` column.

:func:`vector_field` covers the plain case (one tape per output column
over the input's columns); :func:`repro.dynamics.compose` uses the
builder directly to inline a network's layers between two sets of tapes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .compile import CompiledExpression, _sigmoid_array

__all__ = ["SourceBuilder", "vector_field"]

#: tape ops with two slot operands
_BINARY = frozenset(("add", "sub", "mul", "div", "min", "max"))
#: binary tape ops written as infix operators
_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
#: ops a scalar constant may feed directly (exactly rounded elementwise)
_SCALAR_SAFE = frozenset(_INFIX)
#: tape op -> callable name in the generated namespace
_CALLS = {
    "min": "minimum",
    "max": "maximum",
    "sin": "sin",
    "cos": "cos",
    "tan": "tan",
    "tanh": "tanh",
    "exp": "exp",
    "abs": "absolute",
    "atan": "arctan",
    "sigmoid": "sigmoid",
    "log": "log",
    "sqrt": "sqrt",
}
#: the interpreter's per-instruction floating-point error state
_ERRSTATE = {
    "div": 'errstate(divide="ignore", invalid="ignore")',
    "log": 'errstate(divide="ignore", invalid="ignore")',
    "sqrt": 'errstate(invalid="ignore")',
}


def _base_namespace() -> dict:
    namespace = {
        name: getattr(np, name)
        for name in set(_CALLS.values()) - {"sigmoid"}
    }
    namespace.update(
        sigmoid=_sigmoid_array,
        errstate=np.errstate,
        full=np.full,
        empty=np.empty,
        concatenate=np.concatenate,
        ascontiguousarray=np.ascontiguousarray,
    )
    return namespace


class SourceBuilder:
    """Accumulates the body of one generated function ``F(X)``.

    The argument is named ``X`` and ``m = X.shape[0]`` is in scope.
    Emitting methods return the name holding their result; :meth:`build`
    compiles the body into a function returning one such name.
    """

    def __init__(self):
        self._lines = ["m = X.shape[0]"]
        self._namespace = _base_namespace()
        self._counter = itertools.count()
        self._columns: dict[tuple[str, int], str] = {}

    def fresh(self, prefix: str = "v") -> str:
        """A new local name."""
        return f"{prefix}{next(self._counter)}"

    def bind(self, value: object, prefix: str = "k") -> str:
        """Bind ``value`` in the function's namespace; returns its name."""
        name = self.fresh(prefix)
        self._namespace[name] = value
        return name

    def line(self, text: str) -> None:
        """Append one statement to the body."""
        self._lines.append(text)

    def assign(self, expression: str, prefix: str = "v") -> str:
        """Emit ``name = expression`` under a fresh name; returns the name."""
        name = self.fresh(prefix)
        self.line(f"{name} = {expression}")
        return name

    def column(self, array: str, index: int) -> str:
        """The column view ``array[:, index]`` (emitted once per column)."""
        key = (array, index)
        if key not in self._columns:
            self._columns[key] = self.assign(f"{array}[:, {index}]", prefix="c")
        return self._columns[key]

    def tape(self, tape: CompiledExpression, array: str = "X") -> str:
        """Emit ``tape`` over the columns of ``array``; returns its ``(m,)`` result."""
        instructions = tape.instructions
        # Slots that depend on a variable, and the constants that may
        # stay scalars: every consumer is + - * / with a varying other
        # operand (the result, consumed by nobody, never qualifies).
        varying: set[int] = set()
        scalar: dict[int, bool] = {}
        for instr in instructions:
            op, slot = instr[0], instr[1]
            if op == "const":
                scalar[slot] = slot != tape.result_slot
                continue
            if op == "var":
                varying.add(slot)
                continue
            operands = instr[2:4] if op in _BINARY else instr[2:3]
            if any(s in varying for s in operands):
                varying.add(slot)
            for i, s in enumerate(operands):
                if op not in _SCALAR_SAFE or operands[1 - i] not in varying:
                    scalar[s] = False

        names: dict[int, str] = {}
        for instr in instructions:
            op, slot = instr[0], instr[1]
            if op == "const":
                value = self.bind(instr[2])
                names[slot] = value if scalar[slot] else self.assign(f"full(m, {value})")
            elif op == "var":
                names[slot] = self.column(array, instr[2])
            elif op == "neg":
                names[slot] = self.assign(f"-{names[instr[2]]}")
            elif op == "pow":
                names[slot] = self.assign(f"{names[instr[2]]} ** {self.bind(instr[3])}")
            else:
                if op in _INFIX:
                    expression = f"{names[instr[2]]} {_INFIX[op]} {names[instr[3]]}"
                else:
                    args = ", ".join(names[s] for s in instr[2:])
                    expression = f"{_CALLS[op]}({args})"
                if op in _ERRSTATE:
                    names[slot] = self.fresh()
                    self.line(f"with {_ERRSTATE[op]}:")
                    self.line(f"    {names[slot]} = {expression}")
                else:
                    names[slot] = self.assign(expression)
        return names[tape.result_slot]

    def stack(self, columns: Sequence[str]) -> str:
        """A C-contiguous ``(m, len(columns))`` array of ``(m,)`` columns."""
        out = self.assign(f"empty((m, {len(columns)}))", prefix="a")
        for j, name in enumerate(columns):
            self.line(f"{out}[:, {j}] = {name}")
        return out

    def build(self, result: str) -> Callable[[np.ndarray], np.ndarray]:
        """Compile the body into ``F(X)`` returning ``result``.

        The function keeps its source as ``F.source``.
        """
        lines = ["def generated(X):", *(f"    {line}" for line in self._lines)]
        source = "\n".join([*lines, f"    return {result}", ""])
        namespace = dict(self._namespace)
        exec(compile(source, "<generated>", "exec"), namespace)
        function = namespace["generated"]
        function.source = source
        return function


def vector_field(tapes: Sequence[CompiledExpression]) -> Callable[[np.ndarray], np.ndarray]:
    """``F(X) -> (m, len(tapes))``: column ``j`` is ``tapes[j]`` over ``X``'s columns.

    Bit-identical to stacking ``tape.eval_points(X)`` column by column.
    """
    builder = SourceBuilder()
    return builder.build(builder.stack([builder.tape(tape) for tape in tapes]))
