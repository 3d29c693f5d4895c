"""Template feature maps: power-table columns equal pure-Python float products."""

from __future__ import annotations

import numpy as np
import pytest

from repro.barrier.templates import PolynomialTemplate, QuadraticTemplate

#: ±0, ±inf, NaN of both signs, subnormals and values whose powers overflow
_SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1e-310, 1e300, -1e300]
)

_TEMPLATES = [
    pytest.param(lambda: QuadraticTemplate(1, include_linear=True), id="quad-1"),
    pytest.param(lambda: QuadraticTemplate(2, include_linear=True), id="quad-2"),
    pytest.param(lambda: QuadraticTemplate(4, include_linear=True), id="quad-4"),
    pytest.param(lambda: QuadraticTemplate(9), id="quad-9"),
    pytest.param(lambda: PolynomialTemplate(1, 4, min_degree=0), id="poly-1-deg4"),
    pytest.param(lambda: PolynomialTemplate(2, 3), id="poly-2-deg3"),
    pytest.param(lambda: PolynomialTemplate(2, 4), id="poly-2-deg4"),
    pytest.param(lambda: PolynomialTemplate(4, 3), id="poly-4-deg3"),
    pytest.param(lambda: PolynomialTemplate(4, 4), id="poly-4-deg4"),
    pytest.param(lambda: PolynomialTemplate(9, 2), id="poly-9-deg2"),
    pytest.param(lambda: PolynomialTemplate(9, 3), id="poly-9-deg3"),
]


def _power(x, e):
    """``x ** e`` as a left-to-right product of Python floats (1.0 for ``e = 0``)."""
    if e == 0:
        return 1.0
    result = x
    for _ in range(e - 1):
        result *= x
    return result


def _monomial(row, expo):
    """``prod_d row[d] ** expo[d]``, multiplied left to right from 1.0."""
    result = 1.0
    for x, e in zip(row, expo):
        result *= _power(x, e)
    return result


def _reference_features(template, points):
    return np.array(
        [[_monomial(row, expo) for expo in template.monomials] for row in points.tolist()]
    )


def _reference_gradients(template, points):
    m, n = points.shape
    grads = np.zeros((m, n, template.basis_size))
    rows = points.tolist()
    for j, expo in enumerate(template.monomials):
        for d in range(n):
            if expo[d] == 0:
                continue
            reduced = list(expo)
            reduced[d] -= 1
            grads[:, d, j] = [expo[d] * _monomial(row, reduced) for row in rows]
    return grads


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _points(rng, rows, dimension, special):
    points = rng.uniform(-3.0, 3.0, (rows, dimension))
    points[0] = 0.0
    if special:
        # every special value in every column, then sprinkled at random
        count = len(_SPECIAL)
        shifts = (np.arange(count)[:, None] + np.arange(dimension)) % count
        points[1 : 1 + count] = _SPECIAL[shifts]
        mask = rng.random(points.shape) < 0.2
        points[mask] = rng.choice(_SPECIAL, size=mask.sum())
    return points


class TestFeatureVectorization:
    """The power-table feature maps must match scalar float products bitwise.

    The reference multiplies Python floats one at a time in the table's
    association order, so it has no SIMD path and the same bits on every
    host; CI also runs this with AVX-512 dispatch off.
    """

    # 4,097 rows put more elements through NumPy's SIMD ``multiply`` than
    # one ufunc buffer holds, so its main loop and its tail both run.
    @pytest.mark.parametrize("rows", [50, 4097])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    @pytest.mark.parametrize("make_template", _TEMPLATES)
    def test_parity(self, make_template, special, rows, rng):
        """Power-table maps equal the scalar reference bit for bit."""
        template = make_template()
        points = _points(rng, rows, template.dimension, special)
        with np.errstate(all="ignore"):
            phi, grads = template._feature_maps(points)
            _assert_bitwise(phi, _reference_features(template, points))
            _assert_bitwise(grads, _reference_gradients(template, points))
            # the shared helper is what the public maps return on their own
            _assert_bitwise(template.features(points), phi)
            _assert_bitwise(template.gradient_features(points), grads)
            assert template._feature_maps(points, gradients=False)[1] is None
            assert template._feature_maps(points, values=False)[0] is None

    def test_monomial_mutation_invalidates_caches(self, rng):
        """Editing the public ``monomials`` list must not serve stale rows."""
        template = QuadraticTemplate(2)
        points = rng.uniform(-1.0, 1.0, (10, 2))
        template.features(points)
        template.gradient_features(points)
        template.monomials[0] = (0, 2)  # x^2 -> y^2, same basis size
        _assert_bitwise(template.features(points), _reference_features(template, points))
        _assert_bitwise(
            template.gradient_features(points),
            _reference_gradients(template, points),
        )
