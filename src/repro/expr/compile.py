"""Compilation of expressions to flat evaluation tapes.

The δ-SAT solver evaluates the same expression over very many boxes.  A
:class:`CompiledExpression` flattens the DAG postorder into an instruction
tape once, then evaluates:

* ``eval_points`` — vectorized numeric evaluation over ``(m,)`` arrays of
  sample points per variable (used for trace constraint generation and
  counterexample screening);
* ``eval_boxes`` — vectorized *interval* evaluation over batches of boxes,
  carrying ``(lo, hi)`` ndarray pairs through every instruction with sound
  outward widening.  One tape pass bounds the expression over hundreds of
  boxes simultaneously, which is what makes branch-and-prune tractable in
  pure Python even for thousand-neuron controllers.

The box semantics here mirror :class:`repro.intervals.Interval` rules
(including the trig range reduction) in vectorized form; the property
tests in ``tests/expr`` cross-check the two implementations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import EvaluationError
from ..intervals import Box, Interval
from ..intervals.rounding import TRIG_SLACK as _TRIG_SLACK
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

__all__ = ["CompiledExpression", "compile_expression"]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
# Outward widening applied after each inexact instruction, relative to
# magnitude.  8 eps dominates the rounding error of every scalar op and
# of numpy's transcendental kernels (documented < 2 ulp).
_EPS = np.finfo(float).eps
_REL = 8.0 * _EPS
_ABS = 8.0 * np.finfo(float).tiny


class CompiledExpression:
    """An expression flattened to an instruction tape.

    Build with :func:`compile_expression`.  The variable order fixes the
    column layout expected by :meth:`eval_points` / :meth:`eval_boxes`.
    """

    def __init__(self, root: Expr, variable_names: Sequence[str]):
        self.root = root
        self.variable_names = list(variable_names)
        self._var_index = {name: i for i, name in enumerate(self.variable_names)}
        self._tape: list[tuple] = []
        self._n_slots = 0
        self._result_slot = 0
        self._kernel = None
        self._point_function = None
        self._build(root)

    # ------------------------------------------------------------------
    # Tape construction
    # ------------------------------------------------------------------
    def _build(self, root: Expr) -> None:
        slots: dict[int, int] = {}
        order = postorder(root)
        for node in order:
            slot = len(slots)
            slots[id(node)] = slot
            if isinstance(node, Const):
                self._tape.append(("const", slot, node.value))
            elif isinstance(node, Var):
                index = self._var_index.get(node.name)
                if index is None:
                    raise EvaluationError(
                        f"expression uses variable {node.name!r} not listed in "
                        f"{self.variable_names}"
                    )
                self._tape.append(("var", slot, index))
            elif isinstance(node, Neg):
                self._tape.append(("neg", slot, slots[id(node.child)]))
            elif isinstance(node, Pow):
                self._tape.append(("pow", slot, slots[id(node.base)], node.exponent))
            elif isinstance(node, Unary):
                self._tape.append((node.op, slot, slots[id(node.child)]))
            elif isinstance(node, (Add, Sub, Mul, Div, Min2, Max2)):
                opname = {
                    Add: "add",
                    Sub: "sub",
                    Mul: "mul",
                    Div: "div",
                    Min2: "min",
                    Max2: "max",
                }[type(node)]
                self._tape.append(
                    (opname, slot, slots[id(node.left)], slots[id(node.right)])
                )
            else:  # pragma: no cover - node zoo is closed
                raise EvaluationError(f"unknown node type {type(node).__name__}")
        self._n_slots = len(slots)
        self._result_slot = slots[id(root)]

    def __len__(self) -> int:
        return len(self._tape)

    @property
    def instructions(self) -> tuple[tuple, ...]:
        """The flat instruction tape (read-only view).

        Each entry is ``(op, slot, *operands)``: ``("const", slot, value)``,
        ``("var", slot, var_index)``, ``("pow", slot, base_slot, exponent)``,
        unary ``(op, slot, child_slot)``, or binary
        ``(op, slot, left_slot, right_slot)``.  The kernel planner
        (:mod:`repro.perf.kernels`) and the code generator
        (:mod:`repro.expr.codegen`) read this tape instead of re-deriving
        their own flattening.
        """
        return tuple(self._tape)

    @property
    def n_slots(self) -> int:
        """Number of value slots the tape writes."""
        return self._n_slots

    @property
    def result_slot(self) -> int:
        """Slot holding the root's value after a tape pass."""
        return self._result_slot

    def kernel(self):
        """The tape's compiled :class:`~repro.perf.KernelPlan` (cached).

        Built on first use; :meth:`eval_points` / :meth:`eval_boxes`
        route through it whenever the kernel layer is enabled
        (:func:`repro.perf.set_enabled`, ``REPRO_KERNELS``).
        """
        if self._kernel is None:
            self._kernel = _kernel_module().KernelPlan(self)
        return self._kernel

    def point_function(self):
        """The tape as one generated straight-line function (cached).

        ``F(X) -> (m,)`` over an ``(m, n_vars)`` array, built on first use
        by :class:`repro.expr.codegen.SourceBuilder` and bit-identical to
        the interpreter path of :meth:`eval_points`.  Unlike a
        :class:`~repro.perf.KernelPlan` it keeps no per-row workspace
        alive between calls.
        """
        if self._point_function is None:
            from .codegen import SourceBuilder  # codegen imports this module

            builder = SourceBuilder()
            self._point_function = builder.build(builder.tape(self))
        return self._point_function

    def __getstate__(self) -> dict:
        # Kernel plans hold prebound closures and thread-local buffer
        # pools, and generated functions live in an ``exec`` namespace —
        # process-local state.  Drop both on pickling (workers rebuild
        # them on first evaluation).
        state = self.__dict__.copy()
        state["_kernel"] = None
        state["_point_function"] = None
        return state

    # ------------------------------------------------------------------
    # Vectorized numeric evaluation
    # ------------------------------------------------------------------
    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` of shape ``(m, n_vars)``; returns ``(m,)``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != len(self.variable_names):
            raise EvaluationError(
                f"points have {points.shape[1]} columns, expected "
                f"{len(self.variable_names)}"
            )
        if _kernel_module().enabled():
            return self.kernel().eval_points(points)
        m = points.shape[0]
        slots: list[np.ndarray | None] = [None] * self._n_slots
        for instr in self._tape:
            op, slot = instr[0], instr[1]
            if op == "const":
                slots[slot] = np.full(m, instr[2])
            elif op == "var":
                slots[slot] = points[:, instr[2]]
            else:
                slots[slot] = _numeric_op(op, instr, slots)
        return slots[self._result_slot]

    def eval_point(self, point: Sequence[float]) -> float:
        """Evaluate at a single point vector."""
        return float(self.eval_points(np.asarray(point, dtype=float)[None, :])[0])

    # ------------------------------------------------------------------
    # Vectorized interval evaluation
    # ------------------------------------------------------------------
    def eval_boxes(self, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sound bounds over a batch of boxes.

        ``lower``/``upper`` have shape ``(m, n_vars)``; returns two ``(m,)``
        arrays bounding the expression on each box.
        """
        lower = np.atleast_2d(np.asarray(lower, dtype=float))
        upper = np.atleast_2d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.shape[1] != len(self.variable_names):
            raise EvaluationError(
                f"box arrays of shape {lower.shape}/{upper.shape} do not match "
                f"{len(self.variable_names)} variables"
            )
        if _kernel_module().enabled():
            return self.kernel().eval_boxes(lower, upper)
        m = lower.shape[0]
        los: list[np.ndarray | None] = [None] * self._n_slots
        his: list[np.ndarray | None] = [None] * self._n_slots
        for instr in self._tape:
            op, slot = instr[0], instr[1]
            if op == "const":
                los[slot] = np.full(m, instr[2])
                his[slot] = np.full(m, instr[2])
            elif op == "var":
                los[slot] = lower[:, instr[2]]
                his[slot] = upper[:, instr[2]]
            else:
                los[slot], his[slot] = _interval_op(op, instr, los, his)
        return los[self._result_slot], his[self._result_slot]

    def eval_box(self, box: Box) -> Interval:
        """Sound interval bound over a single :class:`Box`."""
        arr = box.to_array()
        lo, hi = self.eval_boxes(arr[None, :, 0], arr[None, :, 1])
        return Interval(float(lo[0]), float(hi[0]))

    def eval_box_array(self, boxes: "BoxArray") -> "IntervalArray":
        """Sound bounds over a whole :class:`~repro.intervals.BoxArray`.

        One tape pass for the full frontier; returns an
        :class:`~repro.intervals.IntervalArray` of shape ``(m,)``.
        """
        from ..intervals import IntervalArray

        lo, hi = self.eval_boxes(boxes.lo, boxes.hi)
        return IntervalArray(lo, hi)


def compile_expression(
    root: Expr, variable_names: Sequence[str]
) -> CompiledExpression:
    """Compile ``root`` against a fixed variable ordering."""
    return CompiledExpression(root, variable_names)


_kernels = None


def _kernel_module():
    """Lazy handle to :mod:`repro.perf.kernels` (imports would be circular)."""
    global _kernels
    if _kernels is None:
        from ..perf import kernels

        _kernels = kernels
    return _kernels


# ----------------------------------------------------------------------
# Numeric instruction semantics
# ----------------------------------------------------------------------
def _numeric_op(op: str, instr: tuple, slots: list) -> np.ndarray:
    if op in ("add", "sub", "mul", "div", "min", "max"):
        a = slots[instr[2]]
        b = slots[instr[3]]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        if op == "min":
            return np.minimum(a, b)
        return np.maximum(a, b)
    a = slots[instr[2]]
    if op == "neg":
        return -a
    if op == "pow":
        return a ** instr[3]
    if op == "sin":
        return np.sin(a)
    if op == "cos":
        return np.cos(a)
    if op == "tan":
        return np.tan(a)
    if op == "tanh":
        return np.tanh(a)
    if op == "sigmoid":
        return _sigmoid_array(a)
    if op == "exp":
        return np.exp(a)
    if op == "log":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(a)
    if op == "sqrt":
        with np.errstate(invalid="ignore"):
            return np.sqrt(a)
    if op == "abs":
        return np.abs(a)
    if op == "atan":
        return np.arctan(a)
    raise EvaluationError(f"unknown numeric op {op!r}")


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ----------------------------------------------------------------------
# Interval instruction semantics (vectorized over a batch of boxes)
# ----------------------------------------------------------------------
def _widen(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pad_lo = _REL * np.abs(lo) + _ABS
    pad_hi = _REL * np.abs(hi) + _ABS
    out_lo = lo - pad_lo
    out_hi = hi + pad_hi
    # Widening must never invalidate infinities or create NaNs.
    out_lo = np.where(np.isnan(out_lo), -np.inf, out_lo)
    out_hi = np.where(np.isnan(out_hi), np.inf, out_hi)
    return out_lo, out_hi


def _interval_op(op: str, instr: tuple, los: list, his: list):
    if op in ("add", "sub", "mul", "div", "min", "max"):
        alo, ahi = los[instr[2]], his[instr[2]]
        blo, bhi = los[instr[3]], his[instr[3]]
        if op == "add":
            return _widen(alo + blo, ahi + bhi)
        if op == "sub":
            return _widen(alo - bhi, ahi - blo)
        if op == "mul":
            return _widen(*_interval_mul(alo, ahi, blo, bhi))
        if op == "div":
            return _widen(*_interval_div(alo, ahi, blo, bhi))
        if op == "min":
            return np.minimum(alo, blo), np.minimum(ahi, bhi)
        return np.maximum(alo, blo), np.maximum(ahi, bhi)
    alo, ahi = los[instr[2]], his[instr[2]]
    if op == "neg":
        return -ahi, -alo
    if op == "pow":
        return _widen(*_interval_pow(alo, ahi, instr[3]))
    if op == "sin":
        return _interval_sin_cos(alo, ahi, peak_offset=_HALF_PI)
    if op == "cos":
        return _interval_sin_cos(alo, ahi, peak_offset=0.0)
    if op == "tan":
        return _interval_tan(alo, ahi)
    if op == "tanh":
        lo, hi = _widen(np.tanh(alo), np.tanh(ahi))
        return np.maximum(lo, -1.0), np.minimum(hi, 1.0)
    if op == "sigmoid":
        lo, hi = _widen(_sigmoid_array(alo), _sigmoid_array(ahi))
        return np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    if op == "exp":
        with np.errstate(over="ignore"):
            lo, hi = _widen(np.exp(alo), np.exp(ahi))
        return np.maximum(lo, 0.0), hi
    if op == "log":
        return _interval_log(alo, ahi)
    if op == "sqrt":
        return _interval_sqrt(alo, ahi)
    if op == "abs":
        both = np.maximum(np.abs(alo), np.abs(ahi))
        crosses = (alo < 0.0) & (ahi > 0.0)
        lo = np.where(crosses, 0.0, np.minimum(np.abs(alo), np.abs(ahi)))
        return lo, both
    if op == "atan":
        return _widen(np.arctan(alo), np.arctan(ahi))
    raise EvaluationError(f"unknown interval op {op!r}")


def _interval_mul(alo, ahi, blo, bhi):
    with np.errstate(invalid="ignore"):
        p1 = alo * blo
        p2 = alo * bhi
        p3 = ahi * blo
        p4 = ahi * bhi
    # 0 * inf produces NaN; in interval algebra that product contributes 0.
    for p in (p1, p2, p3, p4):
        np.copyto(p, 0.0, where=np.isnan(p))
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def _interval_div(alo, ahi, blo, bhi):
    # Reciprocal of [blo, bhi], whole-line where the denominator spans 0.
    spans_zero = (blo <= 0.0) & (bhi >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rlo = np.where(spans_zero, -np.inf, 1.0 / np.where(spans_zero, 1.0, bhi))
        rhi = np.where(spans_zero, np.inf, 1.0 / np.where(spans_zero, 1.0, blo))
    return _interval_mul(alo, ahi, rlo, rhi)


def _interval_pow(alo, ahi, exponent: int):
    if exponent == 0:
        ones = np.ones_like(alo)
        return ones, ones
    if exponent < 0:
        plo, phi = _interval_pow(alo, ahi, -exponent)
        return _interval_div(np.ones_like(alo), np.ones_like(alo), plo, phi)
    lo_p = alo**float(exponent)
    hi_p = ahi**float(exponent)
    if exponent % 2 == 1:
        return lo_p, hi_p
    crosses = (alo <= 0.0) & (ahi >= 0.0)
    lo = np.where(crosses, 0.0, np.minimum(lo_p, hi_p))
    hi = np.maximum(lo_p, hi_p)
    return lo, hi


def _interval_sqrt(alo, ahi):
    clipped_lo = np.maximum(alo, 0.0)
    clipped_hi = np.maximum(ahi, 0.0)
    with np.errstate(invalid="ignore"):
        lo, hi = _widen(np.sqrt(clipped_lo), np.sqrt(clipped_hi))
    lo = np.maximum(lo, 0.0)
    # Boxes entirely below the domain yield an empty image; mark with NaN->inf
    # ordering that pruning logic treats as "no satisfying point".
    empty = ahi < 0.0
    lo = np.where(empty, np.inf, lo)
    hi = np.where(empty, -np.inf, hi)
    return lo, hi


def _interval_log(alo, ahi):
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(alo <= 0.0, -np.inf, np.log(np.maximum(alo, np.finfo(float).tiny)))
        hi = np.where(ahi <= 0.0, -np.inf, np.log(np.maximum(ahi, np.finfo(float).tiny)))
    lo, hi = _widen(lo, hi)
    empty = ahi <= 0.0
    lo = np.where(empty, np.inf, lo)
    hi = np.where(empty, -np.inf, hi)
    return lo, hi


def _interval_sin_cos(alo, ahi, peak_offset: float):
    width = ahi - alo
    f = np.sin if peak_offset == _HALF_PI else np.cos
    v_lo = f(alo)
    v_hi = f(ahi)
    lo, hi = _widen(np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi))
    slack = _TRIG_SLACK * (1.0 + np.maximum(np.abs(alo), np.abs(ahi)))
    # Does the box contain a maximum (offset + 2 pi k) or minimum?
    hi = np.where(_has_critical(alo, ahi, peak_offset, slack), 1.0, hi)
    lo = np.where(_has_critical(alo, ahi, peak_offset + math.pi, slack), -1.0, lo)
    wide = ~np.isfinite(width) | (width >= _TWO_PI)
    lo = np.where(wide, -1.0, np.maximum(lo, -1.0))
    hi = np.where(wide, 1.0, np.minimum(hi, 1.0))
    return lo, hi


def _has_critical(alo, ahi, offset: float, slack):
    with np.errstate(invalid="ignore"):
        k = np.ceil((alo - slack - offset) / _TWO_PI)
        point = offset + _TWO_PI * k
        result = point <= ahi + slack
    return np.where(np.isfinite(alo) & np.isfinite(ahi), result, True)


def _interval_tan(alo, ahi):
    width = ahi - alo
    # Pole at pi/2 + k pi inside the box -> whole line.
    slack = _TRIG_SLACK * (1.0 + np.maximum(np.abs(alo), np.abs(ahi)))
    with np.errstate(invalid="ignore"):
        k = np.ceil((alo - slack - _HALF_PI) / math.pi)
        pole = _HALF_PI + math.pi * k
        has_pole = pole <= ahi + slack
    wide = ~np.isfinite(width) | (width >= math.pi) | has_pole
    t_lo = np.tan(alo)
    t_hi = np.tan(ahi)
    lo, hi = _widen(t_lo, t_hi)
    lo = np.where(wide, -np.inf, lo)
    hi = np.where(wide, np.inf, hi)
    return lo, hi
