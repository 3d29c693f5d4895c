"""Interval edge cases the vectorized/ICP paths lean on.

Three families: empty results of contraction/intersection, degenerate
(zero-width) intervals, and directed-rounding round-trips.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.errors import EmptyIntervalError, IntervalError
from repro.intervals import Box, Interval, next_down, next_up, widen
from repro.intervals.rounding import round_down, round_up


class TestEmptyContraction:
    def test_disjoint_interval_intersection_raises(self):
        with pytest.raises(EmptyIntervalError):
            Interval(0.0, 1.0).intersection(Interval(2.0, 3.0))

    def test_try_intersection_returns_none_when_disjoint(self):
        assert Interval(0.0, 1.0).try_intersection(Interval(2.0, 3.0)) is None

    def test_touching_intervals_intersect_in_a_point(self):
        result = Interval(0.0, 1.0).try_intersection(Interval(1.0, 2.0))
        assert result == Interval.point(1.0)

    def test_box_try_intersection_empty_on_one_axis(self):
        a = Box([Interval(0.0, 1.0), Interval(0.0, 1.0)])
        b = Box([Interval(0.5, 2.0), Interval(3.0, 4.0)])
        assert a.try_intersection(b) is None

    def test_box_intersection_raises_when_empty(self):
        a = Box([Interval(0.0, 1.0)])
        b = Box([Interval(5.0, 6.0)])
        with pytest.raises(EmptyIntervalError):
            a.intersection(b)

    def test_hc4_contraction_to_empty_prunes_box(self):
        """An infeasible constraint contracts the whole box away (the
        ICP prune the parallel SMT backend relies on)."""
        from repro.expr import var
        from repro.smt import ge
        from repro.smt.contractor import contract_fixpoint

        box = Box([Interval(-1.0, 1.0)])
        infeasible = ge(var("x") * var("x"), 9.0)  # x^2 >= 9 on [-1, 1]
        assert contract_fixpoint([infeasible], box, ["x"]) is None

    def test_empty_interval_construction_rejected(self):
        with pytest.raises(IntervalError, match="empty interval"):
            Interval(1.0, 0.0)


class TestDegenerateIntervals:
    def test_point_interval_properties(self):
        point = Interval.point(2.5)
        assert point.is_point()
        # width() is an outward-rounded *upper bound*: one ulp, not 0
        assert 0.0 <= point.width() <= 5e-324
        assert point.midpoint() == 2.5
        assert point.contains(2.5)

    def test_point_arithmetic_is_outward_rounded(self):
        third = Interval.point(1.0) / Interval.point(3.0)
        assert third.lo <= 1.0 / 3.0 <= third.hi
        assert third.hi - third.lo > 0.0  # inexact op widened

    def test_exact_ops_on_points_stay_points(self):
        point = Interval.point(2.0)
        assert (-point).is_point()
        assert point.abs().is_point()

    def test_degenerate_box_volume_and_bisect(self):
        box = Box([Interval.point(1.0), Interval(0.0, 2.0)])
        # the degenerate axis has one-ulp outward-rounded width, so the
        # volume upper bound is denormal-tiny rather than exactly zero
        assert 0.0 <= box.volume() < 1e-300
        assert box.widest_dimension() == 1
        left, right = box.bisect()
        assert left[0].is_point() and right[0].is_point()
        assert left[1].hi == right[1].lo

    def test_degenerate_box_sample_grid_collapses(self):
        box = Box([Interval.point(1.5), Interval(0.0, 1.0)])
        grid = box.sample_grid(3)
        assert grid.shape == (3, 2)
        np.testing.assert_allclose(grid[:, 0], 1.5)

    def test_zero_width_split_yields_two_points(self):
        left, right = Interval.point(4.0).split()
        assert left == right == Interval.point(4.0)

    def test_trig_on_point_interval_contains_true_value(self):
        for x in (0.0, 0.5, math.pi / 2, 3.0):
            image = Interval.point(x).sin()
            assert image.lo <= math.sin(x) <= image.hi
            assert image.width() < 1e-12


class TestDirectedRounding:
    def test_next_up_down_round_trip(self):
        for x in (0.0, 1.0, -1.0, 1e-300, -1e300, math.pi):
            assert next_up(next_down(x)) == x
            assert next_down(next_up(x)) == x

    def test_next_up_strictly_increases_finite_values(self):
        for x in (0.0, -0.0, 1.0, -1e-308):
            assert next_up(x) > x
            assert next_down(x) < x

    def test_infinities_are_fixed_points(self):
        assert next_up(math.inf) == math.inf
        assert next_down(-math.inf) == -math.inf
        # one-sided: moving inward from infinity is still possible
        assert next_down(math.inf) < math.inf
        assert next_up(-math.inf) > -math.inf

    def test_nan_propagates(self):
        assert math.isnan(next_up(math.nan))
        assert math.isnan(next_down(math.nan))

    def test_widen_brackets_both_endpoints(self):
        lo, hi = widen(1.0, 2.0)
        assert lo < 1.0 < 2.0 < hi
        assert hi - 2.0 < 1e-15 and 1.0 - lo < 1e-15

    def test_round_exact_flag_skips_widening(self):
        assert round_down(1.5, exact=True) == 1.5
        assert round_up(1.5, exact=True) == 1.5
        assert round_down(1.5) < 1.5 < round_up(1.5)

    def test_interval_sum_round_trip_contains_exact_result(self):
        """(x + y) - y always contains x despite outward rounding."""
        x = Interval.point(0.1)
        y = Interval.point(0.2)
        round_tripped = (x + y) - y
        assert round_tripped.contains(0.1)
        assert round_tripped.width() < 1e-15


class TestOverflow:
    """An endpoint image beyond the float range gives an unbounded
    enclosure, as the compiled tape's ``eval_boxes`` does, not an
    ``OverflowError``."""

    def test_exp_upper_overflow(self):
        result = Interval(700.0, 800.0).exp()
        assert result.hi == math.inf
        assert 0.0 < result.lo < math.exp(700.0)

    def test_exp_both_endpoints_overflow(self):
        result = Interval(800.0, 900.0).exp()
        assert result.hi == math.inf
        assert result.lo == sys.float_info.max

    def test_even_power_overflow(self):
        result = Interval(-1e300, 1e300).sq()
        assert result.lo == 0.0 and result.hi == math.inf
        assert (Interval(1e200, 1e300) ** 2).hi == math.inf

    def test_odd_power_upper_overflow(self):
        result = Interval(2.0, 1e200) ** 3
        assert result.hi == math.inf
        assert result.lo < 8.0 and result.lo == pytest.approx(8.0)

    def test_odd_power_lower_overflow(self):
        result = Interval(-1e200, 2.0) ** 3
        assert result.lo == -math.inf
        assert result.hi > 8.0 and result.hi == pytest.approx(8.0)
        below = Interval(-1e200, -1e199) ** 3
        assert below.lo == -math.inf and below.hi == -sys.float_info.max

    def test_negative_power_of_overflow(self):
        # the true values lie below the smallest float: an enclosure of 0
        result = Interval(1e200, 1e300) ** -2
        assert result.lo <= 0.0 < result.hi < 1e-300

    @pytest.mark.parametrize(
        "exponent, bounds",
        [(None, (700.0, 800.0)), (2, (-1e300, 1e300)), (3, (2.0, 1e200)),
         (3, (-1e200, 2.0))],
        ids=["exp", "sq", "cube-hi", "cube-lo"],
    )
    def test_oracle_agrees_with_tape(self, exponent, bounds):
        from repro.expr import compile_expression, exp, var

        x = var("x")
        expr = exp(x) if exponent is None else x**exponent
        with np.errstate(all="ignore"):
            lo, hi = compile_expression(expr, ["x"]).eval_boxes(
                np.array([[bounds[0]]]), np.array([[bounds[1]]])
            )
        box = Interval(*bounds)
        oracle = box.exp() if exponent is None else box**exponent
        assert (oracle.hi == math.inf) == (hi[0] == math.inf)
        assert (oracle.lo == -math.inf) == (lo[0] == -math.inf)
        assert math.inf in (oracle.hi, -oracle.lo)
