"""Template feature maps: broadcast rows equal the per-monomial loops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.barrier.templates import QuadraticTemplate


class TestFeatureVectorization:
    """The broadcast feature maps must match the historical loops bitwise."""

    def _reference_features(self, template, points):
        columns = [
            np.prod(points ** np.asarray(expo), axis=1)
            for expo in template.monomials
        ]
        return np.stack(columns, axis=1)

    def _reference_gradients(self, template, points):
        m, n = points.shape
        grads = np.zeros((m, n, template.basis_size))
        for j, expo in enumerate(template.monomials):
            for d in range(n):
                if expo[d] == 0:
                    continue
                reduced = list(expo)
                reduced[d] -= 1
                grads[:, d, j] = expo[d] * np.prod(
                    points ** np.asarray(reduced), axis=1
                )
        return grads

    @pytest.mark.parametrize("dimension", [1, 2, 4])
    def test_quadratic(self, dimension, rng):
        template = QuadraticTemplate(dimension, include_linear=True)
        points = rng.uniform(-3.0, 3.0, (50, dimension))
        points[0] = 0.0
        np.testing.assert_array_equal(
            template.features(points), self._reference_features(template, points)
        )
        np.testing.assert_array_equal(
            template.gradient_features(points),
            self._reference_gradients(template, points),
        )

    def test_monomial_mutation_invalidates_caches(self, rng):
        """Editing the public ``monomials`` list must not serve stale rows."""
        template = QuadraticTemplate(2)
        points = rng.uniform(-1.0, 1.0, (10, 2))
        template.features(points)
        template.gradient_features(points)
        template.monomials[0] = (0, 2)  # x^2 -> y^2, same basis size
        np.testing.assert_array_equal(
            template.features(points), self._reference_features(template, points)
        )
        np.testing.assert_array_equal(
            template.gradient_features(points),
            self._reference_gradients(template, points),
        )

    def test_polynomial_high_dimension(self, rng):
        from repro.barrier.templates import PolynomialTemplate

        template = PolynomialTemplate(9, 2)
        points = rng.uniform(-1.5, 1.5, (20, 9))
        np.testing.assert_array_equal(
            template.features(points), self._reference_features(template, points)
        )
        np.testing.assert_array_equal(
            template.gradient_features(points),
            self._reference_gradients(template, points),
        )
