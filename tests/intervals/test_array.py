"""Property-based cross-checks of the SoA interval core against the oracle.

The scalar :class:`repro.intervals.Interval` is the soundness oracle;
every batched operation must return endpoints that *contain* the scalar
result for each member (bit-identical for the correctly-rounded ops,
within the documented ulp widening for the transcendental kernels).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DomainError
from repro.intervals import Box, BoxArray, Interval, IntervalArray

RNG = np.random.default_rng(20260730)
N_CASES = 400


def random_endpoints(n, include_inf=True, scale=10.0):
    lo = RNG.uniform(-scale, scale, n)
    width = RNG.exponential(scale / 4.0, n)
    # sprinkle special members: points, zero-crossers, huge, unbounded
    kind = RNG.integers(0, 10, n)
    width = np.where(kind == 0, 0.0, width)  # degenerate points
    lo = np.where(kind == 1, -width / 2.0, lo)  # symmetric about zero
    hi = lo + width
    lo = np.where(kind == 2, 0.0, lo)  # touching zero from above
    hi = np.maximum(lo, hi)
    if include_inf:
        lo = np.where(kind == 3, -np.inf, lo)
        hi = np.where(kind == 4, np.inf, hi)
    return lo, hi


def scalars_of(lo, hi):
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]


def assert_contains(arr: IntervalArray, scalars, exact=False, context=""):
    for i, s in enumerate(scalars):
        if s is None:
            continue
        a_lo, a_hi = float(arr.lo[i]), float(arr.hi[i])
        if exact:
            assert a_lo == s.lo and a_hi == s.hi, (
                f"{context}[{i}]: array [{a_lo}, {a_hi}] != scalar [{s.lo}, {s.hi}]"
            )
        else:
            assert a_lo <= s.lo and s.hi <= a_hi, (
                f"{context}[{i}]: array [{a_lo}, {a_hi}] !⊇ scalar [{s.lo}, {s.hi}]"
            )
            # the widening is documented as a few ulps, never a blowup
            if math.isfinite(s.lo):
                assert s.lo - a_lo <= 1e-9 * (1.0 + abs(s.lo))
            if math.isfinite(s.hi):
                assert a_hi - s.hi <= 1e-9 * (1.0 + abs(s.hi))


class TestBinaryOps:
    """Arithmetic whose kernels are correctly rounded: bit-identical."""

    def setup_method(self):
        self.alo, self.ahi = random_endpoints(N_CASES)
        self.blo, self.bhi = random_endpoints(N_CASES)
        self.a = IntervalArray(self.alo, self.ahi)
        self.b = IntervalArray(self.blo, self.bhi)
        self.sa = scalars_of(self.alo, self.ahi)
        self.sb = scalars_of(self.blo, self.bhi)

    def test_add(self):
        assert_contains(
            self.a + self.b,
            [x + y for x, y in zip(self.sa, self.sb)],
            exact=True,
            context="add",
        )

    def test_sub(self):
        assert_contains(
            self.a - self.b,
            [x - y for x, y in zip(self.sa, self.sb)],
            exact=True,
            context="sub",
        )

    def test_mul(self):
        assert_contains(
            self.a * self.b,
            [x * y for x, y in zip(self.sa, self.sb)],
            exact=True,
            context="mul",
        )

    def test_div(self):
        scalars = []
        for x, y in zip(self.sa, self.sb):
            if y.lo == 0.0 and y.hi == 0.0:
                scalars.append(None)  # scalar raises; array yields entire
            else:
                scalars.append(x / y)
        assert_contains(self.a / self.b, scalars, exact=True, context="div")

    def test_div_by_zero_point_is_entire(self):
        res = IntervalArray([1.0], [2.0]) / IntervalArray([0.0], [0.0])
        assert res.lo[0] == -math.inf and res.hi[0] == math.inf

    def test_min_max(self):
        assert_contains(
            self.a.min_with(self.b),
            [x.min_with(y) for x, y in zip(self.sa, self.sb)],
            exact=True,
        )
        assert_contains(
            self.a.max_with(self.b),
            [x.max_with(y) for x, y in zip(self.sa, self.sb)],
            exact=True,
        )

    def test_float_operand_broadcast(self):
        assert_contains(
            self.a + 2.5, [x + 2.5 for x in self.sa], exact=True
        )
        assert_contains(
            3.0 * self.a, [x * 3.0 for x in self.sa], exact=True
        )


class TestUnaryOps:
    def setup_method(self):
        self.lo, self.hi = random_endpoints(N_CASES)
        self.a = IntervalArray(self.lo, self.hi)
        self.s = scalars_of(self.lo, self.hi)

    def test_neg_abs_exact(self):
        assert_contains(-self.a, [-x for x in self.s], exact=True)
        assert_contains(self.a.abs(), [x.abs() for x in self.s], exact=True)

    def test_sin_cos_bit_identical(self):
        assert_contains(self.a.sin(), [x.sin() for x in self.s], exact=True)
        assert_contains(self.a.cos(), [x.cos() for x in self.s], exact=True)

    def test_sqrt(self):
        scalars = [x.sqrt() if x.hi >= 0.0 else None for x in self.s]
        res = self.a.sqrt()
        assert_contains(res, scalars, exact=True, context="sqrt")
        empty = self.hi < 0.0
        assert np.array_equal(res.empty_mask(), empty)

    def test_log(self):
        scalars = [x.log() if x.hi > 0.0 else None for x in self.s]
        res = self.a.log()
        assert_contains(res, scalars, context="log")
        assert np.array_equal(res.empty_mask(), self.hi <= 0.0)

    @pytest.mark.parametrize(
        "name", ["exp", "tanh", "sigmoid", "atan", "tan"]
    )
    def test_transcendental_containment(self, name):
        res = getattr(self.a, name)()
        scalars = [getattr(x, name)() for x in self.s]
        assert_contains(res, scalars, context=name)

    @pytest.mark.parametrize("exponent", [0, 1, 2, 3, 4, 5, -1, -2, -3])
    def test_pow_containment(self, exponent):
        res = self.a ** exponent
        scalars = [x ** exponent for x in self.s]
        assert_contains(res, scalars, context=f"pow{exponent}")

    def test_trig_near_pi_multiples(self):
        """Near-multiple-of-pi endpoints: the shared slack logic must make
        scalar and array agree bit-for-bit (the satellite fix)."""
        ks = np.arange(-12, 13, dtype=float)
        lo = ks * math.pi - 1e-13
        hi = lo + 2e-13
        arr = IntervalArray(lo, hi)
        scalars = scalars_of(lo, hi)
        assert_contains(arr.sin(), [x.sin() for x in scalars], exact=True)
        assert_contains(arr.cos(), [x.cos() for x in scalars], exact=True)
        # the images stay sound: contain the true sin/cos of the midpoint
        mid = 0.5 * (lo + hi)
        assert np.all(arr.sin().contains(np.sin(mid)))
        assert np.all(arr.cos().contains(np.cos(mid)))

    def test_tan_pole_detection_matches_scalar(self):
        lo = np.array([0.0, math.pi / 2 - 1e-13, 1.0, -0.3])
        hi = lo + np.array([0.3, 2e-13, 1.0, 0.6])
        arr = IntervalArray(lo, hi).tan()
        for i, s in enumerate(scalars_of(lo, hi)):
            st = s.tan()
            assert (arr.lo[i] == -math.inf) == (st.lo == -math.inf)
            assert (arr.hi[i] == math.inf) == (st.hi == math.inf)

    def test_reciprocal(self):
        scalars = []
        for x in self.s:
            if x.lo == 0.0 and x.hi == 0.0:
                scalars.append(None)
            else:
                scalars.append(x.reciprocal())
        assert_contains(self.a.reciprocal(), scalars, exact=True)


class TestLattice:
    def test_intersection_and_empty(self):
        a = IntervalArray([0.0, 0.0, 5.0], [1.0, 2.0, 6.0])
        b = IntervalArray([0.5, 3.0, 5.5], [1.5, 4.0, 5.6])
        got = a.intersection(b)
        assert got.interval_at(0) == Interval(0.5, 1.0)
        assert got.empty_mask().tolist() == [False, True, False]
        assert got.lo[1] == math.inf and got.hi[1] == -math.inf

    def test_hull_midpoint_width_match_scalar(self):
        lo, hi = random_endpoints(200)
        arr = IntervalArray(lo, hi)
        scalars = scalars_of(lo, hi)
        assert np.array_equal(
            arr.width(), np.array([s.width() for s in scalars])
        )
        assert np.array_equal(
            arr.midpoint(), np.array([s.midpoint() for s in scalars])
        )
        assert np.array_equal(
            arr.magnitude(), np.array([s.magnitude() for s in scalars])
        )
        assert np.array_equal(
            arr.mignitude(), np.array([s.mignitude() for s in scalars])
        )


class TestBoxArray:
    def make_boxes(self, m=7, n=3):
        boxes = []
        for _ in range(m):
            lo, hi = random_endpoints(n, include_inf=False, scale=3.0)
            boxes.append(Box.from_bounds(lo, hi))
        return boxes

    def test_round_trip(self):
        boxes = self.make_boxes()
        arr = BoxArray.from_boxes(boxes)
        assert len(arr) == len(boxes) and arr.dimension == 3
        assert [arr.box_at(i) for i in range(len(arr))] == boxes
        assert np.array_equal(arr.widths(), np.array([b.widths() for b in boxes]))

    def test_bisect_widest_matches_scalar(self):
        boxes = self.make_boxes()
        arr = BoxArray.from_boxes(boxes)
        left, right = arr.bisect_widest()
        for i, box in enumerate(boxes):
            sl, sr = box.bisect()
            assert left.box_at(i) == sl
            assert right.box_at(i) == sr

    def test_select_and_concatenate(self):
        boxes = self.make_boxes(6)
        arr = BoxArray.from_boxes(boxes)
        picked = arr.select(np.array([0, 3, 5]))
        assert [picked.box_at(i) for i in range(3)] == [boxes[0], boxes[3], boxes[5]]
        mask = np.array([True, False, True, False, False, True])
        masked = arr.select(mask)
        assert [masked.box_at(i) for i in range(3)] == [boxes[0], boxes[2], boxes[5]]
        both = BoxArray.concatenate([picked, arr.select(mask)])
        assert len(both) == 6

    def test_from_box_single_row(self):
        box = Box([Interval(0, 1), Interval(-2, 2)])
        arr = BoxArray.from_box(box)
        assert len(arr) == 1 and arr.box_at(0) == box


class TestMixedOperands:
    def test_imin_imax_with_scalar_interval(self):
        from repro.intervals import imax, imin

        arr = IntervalArray([0.0, 0.0], [1.0, 1.0])
        got = imin(arr, Interval(-5.0, 0.5))
        assert got.lo.tolist() == [-5.0, -5.0]
        assert got.hi.tolist() == [0.5, 0.5]
        got = imax(Interval(-5.0, 0.5), arr)
        assert got.lo.tolist() == [0.0, 0.0]
        assert got.hi.tolist() == [1.0, 1.0]

    def test_arithmetic_with_scalar_interval(self):
        arr = IntervalArray([0.0, 1.0], [1.0, 2.0])
        got = arr + Interval(2.0, 3.0)
        assert np.all(got.lo <= [2.0, 3.0]) and np.all(got.hi >= [4.0, 5.0])


class TestScalarOracleUnchanged:
    """The satellite fix must keep the scalar class sound."""

    def test_scalar_tan_near_pole_is_entire(self):
        assert Interval(math.pi / 2 - 1e-13, math.pi / 2 - 1e-14).tan() == (
            Interval.entire()
        )

    def test_scalar_tan_away_from_pole_finite(self):
        got = Interval(0.1, 0.2).tan()
        assert math.isfinite(got.lo) and math.isfinite(got.hi)
        assert got.contains(math.tan(0.15))

    def test_scalar_sqrt_raises_below_domain(self):
        with pytest.raises(DomainError):
            Interval(-2.0, -1.0).sqrt()
