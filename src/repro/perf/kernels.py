"""Compiled ndarray kernels for expression tapes.

A :class:`~repro.expr.CompiledExpression` is already a flat instruction
tape, but its evaluators re-dispatch every instruction on every call:
string comparisons pick the op, ``np.full`` re-materializes every
constant, and fresh slot tables are allocated per pass.  On the narrow
frontiers real branch-and-prune searches produce, that per-call
interpreter overhead rivals the arithmetic itself.

:class:`KernelPlan` pre-plans a tape once into

* **integer opcode arrays** (``codes`` / ``out`` / ``arg1`` / ``arg2``)
  — the flat, slot-indexed program form, kept for introspection and
  debugging (execution runs over the closures below; both are derived
  from the same instruction tape in one constructor pass);
* a **constant table** (``const_slots`` / ``const_values``) whose rows
  are materialized once per pooled workspace and re-sliced per call;
* **prebound instruction closures** — one Python callable per
  instruction with its opcode, slot indices, and exponents baked in, so
  executing the tape is a plain loop over callables with zero per-call
  dict lookups or string dispatch;
* a :class:`~repro.perf.pool.BufferPool` of slot-table workspaces keyed
  by frontier-size bucket, so no per-call slot-table allocation.

The numeric semantics are *identical* to the interpreted evaluators —
each closure calls the same widening/interval helpers of
:mod:`repro.expr.compile` in the same order — so results are
bit-for-bit equal whether kernels are enabled or not (pinned by
``tests/perf/test_kernels.py`` and the scenario-level parity checks in
``benchmarks/test_synthesis_micro.py``).

Kernels are on by default; ``REPRO_KERNELS=0`` (or
:func:`set_enabled` / :func:`use_kernels`) restores the interpreted
paths, which is how the benchmarks measure the pre-kernel baseline in
the same process.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..expr.compile import (
    _HALF_PI,
    _interval_div,
    _interval_log,
    _interval_mul,
    _interval_pow,
    _interval_sin_cos,
    _interval_sqrt,
    _interval_tan,
    _sigmoid_array,
    _widen,
)
from .pool import BufferPool

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..expr import CompiledExpression

__all__ = [
    "OPCODES",
    "KernelPlan",
    "enabled",
    "set_enabled",
    "use_kernels",
]

#: op name -> integer opcode (the planned program's ``codes`` entries)
OPCODES: dict[str, int] = {
    name: code
    for code, name in enumerate(
        (
            "const", "var", "add", "sub", "mul", "div", "min", "max",
            "neg", "pow", "sin", "cos", "tan", "tanh", "sigmoid", "exp",
            "log", "sqrt", "abs", "atan",
        )
    )
}

_enabled = os.environ.get("REPRO_KERNELS", "1").strip().lower() not in (
    "0", "false", "off",
)


def enabled() -> bool:
    """True when tape evaluation routes through compiled kernels."""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Toggle the kernel layer globally; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


@contextlib.contextmanager
def use_kernels(on: bool) -> Iterator[None]:
    """Context manager pinning the kernel switch, restoring it on exit."""
    previous = set_enabled(on)
    try:
        yield
    finally:
        set_enabled(previous)


class KernelPlan:
    """One tape pre-planned into ndarray program form + closure programs.

    Build via :meth:`repro.expr.CompiledExpression.kernel`, which caches
    one plan per tape.  The plan owns its workspace pools, so concurrent
    evaluations (concurrent threads) never share scratch state.
    """

    def __init__(self, tape: "CompiledExpression"):
        instructions = tape.instructions
        self.n_slots = tape.n_slots
        self.result_slot = tape.result_slot
        self.n_instructions = len(instructions)

        self.codes = np.empty(self.n_instructions, dtype=np.int16)
        self.out = np.empty(self.n_instructions, dtype=np.int32)
        self.arg1 = np.full(self.n_instructions, -1, dtype=np.int32)
        self.arg2 = np.full(self.n_instructions, -1, dtype=np.int32)
        const_slots: list[int] = []
        const_values: list[float] = []
        var_slots: list[int] = []
        for i, instr in enumerate(instructions):
            op, slot = instr[0], instr[1]
            self.codes[i] = OPCODES[op]
            self.out[i] = slot
            if op == "const":
                const_slots.append(slot)
                const_values.append(float(instr[2]))
            elif op == "var":
                self.arg1[i] = instr[2]
                var_slots.append(slot)
            else:
                self.arg1[i] = instr[2]
                if len(instr) > 3:
                    self.arg2[i] = instr[3]
        #: slots holding tape constants, and the constant table itself
        self.const_slots = np.asarray(const_slots, dtype=np.int32)
        self.const_values = np.asarray(const_values, dtype=np.float64)
        self._var_slots = var_slots
        self._result_const = next(
            (
                v
                for s, v in zip(const_slots, const_values)
                if s == self.result_slot
            ),
            None,
        )

        self._instructions = instructions
        self._box_program: list | None = None
        self._point_program: list | None = None
        self._box_pool = BufferPool(self.n_slots, init=self._init_workspace)
        self._point_pool = BufferPool(self.n_slots, init=self._init_workspace)

    # ------------------------------------------------------------------
    # Workspaces
    # ------------------------------------------------------------------
    def _init_workspace(self, ws) -> None:
        # One prefilled row per constant, materialized once per
        # workspace; calls re-slice to the live frontier width instead
        # of re-running np.full per constant per call.
        ws.data["rows"] = [
            np.full(ws.bucket, value) for value in self.const_values
        ]

    def _release(self, pool: BufferPool, ws) -> None:
        # Drop references to the caller's arrays (variable slots alias
        # the input frontier; keeping them would pin it in memory until
        # the workspace's next lease).
        slots = ws.slots
        for slot in self._var_slots:
            slots[slot] = None
        slots[self.result_slot] = None
        pool.release(ws)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def eval_boxes(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interval tape pass over ``(m, n_vars)`` bound arrays.

        Inputs must be pre-validated 2-D float arrays (the public
        entry point is :meth:`CompiledExpression.eval_boxes`, which
        validates and then dispatches here when kernels are enabled).
        """
        if self._box_program is None:
            self._box_program = _build_box_program(self._instructions)
        m = lower.shape[0]
        if self._result_const is not None:
            return np.full(m, self._result_const), np.full(m, self._result_const)
        ws = self._box_pool.acquire(m)
        try:
            vals = ws.slots
            rows = ws.data["rows"]
            for run in self._box_program:
                run(vals, lower, upper, rows, m)
            return vals[self.result_slot]
        finally:
            self._release(self._box_pool, ws)

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Numeric tape pass over ``(m, n_vars)`` sample points."""
        if self._point_program is None:
            self._point_program = _build_point_program(self._instructions)
        m = points.shape[0]
        if self._result_const is not None:
            return np.full(m, self._result_const)
        ws = self._point_pool.acquire(m)
        try:
            vals = ws.slots
            rows = ws.data["rows"]
            for run in self._point_program:
                run(vals, points, rows, m)
            return vals[self.result_slot]
        finally:
            self._release(self._point_pool, ws)


# ----------------------------------------------------------------------
# Box (interval) instruction closures
#
# Each maker returns one callable with the instruction's slots baked in.
# The arithmetic mirrors repro.expr.compile._interval_op line for line,
# through the same helper functions, so kernel results are bit-identical
# to the interpreter's.
# ----------------------------------------------------------------------
def _build_box_program(instructions) -> list:
    program = []
    const_index = 0
    for instr in instructions:
        op = instr[0]
        if op == "const":
            program.append(_box_const(instr[1], const_index))
            const_index += 1
        elif op == "var":
            program.append(_box_var(instr[1], instr[2]))
        elif op in ("add", "sub", "mul", "div", "min", "max"):
            program.append(_box_binary(op, instr[1], instr[2], instr[3]))
        elif op == "pow":
            program.append(_box_pow(instr[1], instr[2], instr[3]))
        else:
            program.append(_box_unary(op, instr[1], instr[2]))
    return program


def _box_const(out: int, index: int):
    def run(vals, lower, upper, rows, m):
        row = rows[index][:m]
        vals[out] = (row, row)

    return run


def _box_var(out: int, column: int):
    def run(vals, lower, upper, rows, m):
        vals[out] = (lower[:, column], upper[:, column])

    return run


def _box_binary(op: str, out: int, left: int, right: int):
    if op == "add":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = _widen(alo + blo, ahi + bhi)
    elif op == "sub":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = _widen(alo - bhi, ahi - blo)
    elif op == "mul":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = _widen(*_interval_mul(alo, ahi, blo, bhi))
    elif op == "div":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = _widen(*_interval_div(alo, ahi, blo, bhi))
    elif op == "min":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = (np.minimum(alo, blo), np.minimum(ahi, bhi))
    else:  # max
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[left]
            blo, bhi = vals[right]
            vals[out] = (np.maximum(alo, blo), np.maximum(ahi, bhi))
    return run


def _box_pow(out: int, child: int, exponent: int):
    def run(vals, lower, upper, rows, m):
        alo, ahi = vals[child]
        vals[out] = _widen(*_interval_pow(alo, ahi, exponent))

    return run


def _box_unary(op: str, out: int, child: int):
    if op == "neg":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = (-ahi, -alo)
    elif op == "sin":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _interval_sin_cos(alo, ahi, peak_offset=_HALF_PI)
    elif op == "cos":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _interval_sin_cos(alo, ahi, peak_offset=0.0)
    elif op == "tan":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _interval_tan(alo, ahi)
    elif op == "tanh":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            lo, hi = _widen(np.tanh(alo), np.tanh(ahi))
            vals[out] = (np.maximum(lo, -1.0), np.minimum(hi, 1.0))
    elif op == "sigmoid":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            lo, hi = _widen(_sigmoid_array(alo), _sigmoid_array(ahi))
            vals[out] = (np.maximum(lo, 0.0), np.minimum(hi, 1.0))
    elif op == "exp":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            with np.errstate(over="ignore"):
                lo, hi = _widen(np.exp(alo), np.exp(ahi))
            vals[out] = (np.maximum(lo, 0.0), hi)
    elif op == "log":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _interval_log(alo, ahi)
    elif op == "sqrt":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _interval_sqrt(alo, ahi)
    elif op == "abs":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            both = np.maximum(np.abs(alo), np.abs(ahi))
            crosses = (alo < 0.0) & (ahi > 0.0)
            lo = np.where(crosses, 0.0, np.minimum(np.abs(alo), np.abs(ahi)))
            vals[out] = (lo, both)
    elif op == "atan":
        def run(vals, lower, upper, rows, m):
            alo, ahi = vals[child]
            vals[out] = _widen(np.arctan(alo), np.arctan(ahi))
    else:  # pragma: no cover - the op zoo is closed
        raise KeyError(f"unknown interval op {op!r}")
    return run


# ----------------------------------------------------------------------
# Point (numeric) instruction closures — mirrors _numeric_op
# ----------------------------------------------------------------------
def _build_point_program(instructions) -> list:
    program = []
    const_index = 0
    for instr in instructions:
        op = instr[0]
        if op == "const":
            program.append(_point_const(instr[1], const_index))
            const_index += 1
        elif op == "var":
            program.append(_point_var(instr[1], instr[2]))
        elif op in ("add", "sub", "mul", "div", "min", "max"):
            program.append(_point_binary(op, instr[1], instr[2], instr[3]))
        elif op == "pow":
            program.append(_point_pow(instr[1], instr[2], instr[3]))
        else:
            program.append(_point_unary(op, instr[1], instr[2]))
    return program


def _point_const(out: int, index: int):
    def run(vals, points, rows, m):
        vals[out] = rows[index][:m]

    return run


def _point_var(out: int, column: int):
    def run(vals, points, rows, m):
        vals[out] = points[:, column]

    return run


def _point_binary(op: str, out: int, left: int, right: int):
    if op == "add":
        def run(vals, points, rows, m):
            vals[out] = vals[left] + vals[right]
    elif op == "sub":
        def run(vals, points, rows, m):
            vals[out] = vals[left] - vals[right]
    elif op == "mul":
        def run(vals, points, rows, m):
            vals[out] = vals[left] * vals[right]
    elif op == "div":
        def run(vals, points, rows, m):
            with np.errstate(divide="ignore", invalid="ignore"):
                vals[out] = vals[left] / vals[right]
    elif op == "min":
        def run(vals, points, rows, m):
            vals[out] = np.minimum(vals[left], vals[right])
    else:  # max
        def run(vals, points, rows, m):
            vals[out] = np.maximum(vals[left], vals[right])
    return run


def _point_pow(out: int, child: int, exponent: int):
    def run(vals, points, rows, m):
        vals[out] = vals[child] ** exponent

    return run


_POINT_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "abs": np.abs,
    "atan": np.arctan,
    "exp": np.exp,
}


def _point_unary(op: str, out: int, child: int):
    ufunc = _POINT_UFUNCS.get(op)
    if ufunc is not None:
        def run(vals, points, rows, m):
            vals[out] = ufunc(vals[child])
    elif op == "neg":
        def run(vals, points, rows, m):
            vals[out] = -vals[child]
    elif op == "sigmoid":
        def run(vals, points, rows, m):
            vals[out] = _sigmoid_array(vals[child])
    elif op == "log":
        def run(vals, points, rows, m):
            with np.errstate(divide="ignore", invalid="ignore"):
                vals[out] = np.log(vals[child])
    elif op == "sqrt":
        def run(vals, points, rows, m):
            with np.errstate(invalid="ignore"):
                vals[out] = np.sqrt(vals[child])
    else:  # pragma: no cover - the op zoo is closed
        raise KeyError(f"unknown numeric op {op!r}")
    return run
