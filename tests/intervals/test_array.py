"""Cross-checks of the structure-of-arrays frontier against the oracle.

The scalar :class:`repro.intervals.Interval` is the soundness oracle;
:class:`BoxArray`'s width and midpoint rules must reproduce its
``width()``/``midpoint()`` bit for bit, unbounded members included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DomainError
from repro.intervals import Box, BoxArray, Interval

RNG = np.random.default_rng(20260730)


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

    def test_widths_and_midpoints_match_scalar(self):
        """Width and split point of every member of ``random_endpoints``
        (±inf, degenerate and zero-touching ones included) equal the
        scalar rules bit for bit."""
        lo, hi = random_endpoints(200)
        scalars = scalars_of(lo, hi)
        assert np.array_equal(
            BoxArray(lo[:, None], hi[:, None]).widths()[:, 0],
            np.array([s.width() for s in scalars]),
        )
        left, right = BoxArray(lo[:, None], hi[:, None]).bisect_widest()
        mids = np.array([s.midpoint() for s in scalars])
        assert np.array_equal(left.hi[:, 0], mids)
        assert np.array_equal(right.lo[:, 0], mids)
        assert np.array_equal(left.lo[:, 0], lo)
        assert np.array_equal(right.hi[:, 0], hi)

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
