"""Generator-function templates.

The paper assumes the generator function ``W(x)`` comes from a template
with unknown coefficients (Section 3, "suitable templates, such as
Sum-of-Squares polynomials").  A template provides:

* numeric feature maps — values and gradients of each basis function at
  sample points, used to assemble the LP;
* symbolic reconstruction — ``W`` and ``∇W`` as expressions once the LP
  has fixed the coefficients, used by the SMT queries;
* for quadratic templates, the ``(P, q)`` matrix form used by the
  closed-form level-set geometry (the set ``{W <= l}`` is an ellipsoid).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..errors import ReproError
from ..expr import Const, Expr, sum_expr, var

__all__ = ["GeneratorTemplate", "QuadraticTemplate", "PolynomialTemplate"]


class GeneratorTemplate:
    """Base class: a finite basis ``W(x) = sum_j c_j * phi_j(x)``."""

    #: exponent tuples, one per basis function (set by subclasses)
    monomials: list[tuple[int, ...]]
    dimension: int

    @property
    def basis_size(self) -> int:
        """Number of unknown coefficients."""
        return len(self.monomials)

    # ------------------------------------------------------------------
    # Numeric features
    # ------------------------------------------------------------------
    # Both feature maps come from one power table per point set, built
    # by exact products: ``P[1] = points`` and ``P[e] = P[e-1] * points``
    # up to the largest exponent in use, and each column is a
    # left-to-right product of table columns.  Every element is a chain of
    # correctly rounded IEEE products, so the bits do not depend on the
    # SIMD path NumPy dispatches to (see docs/performance.md, "LP
    # assembly"); tests/barrier checks them against pure-Python floats:
    #
    # * exponent-0 factors are 1.0 and are dropped from the products;
    # * products of three or more factors go through ``np.prod`` over the
    #   stacked factors, which multiplies left to right.

    def features(self, points: np.ndarray) -> np.ndarray:
        """Basis values ``phi_j(x_i)``, shape ``(m, k)``."""
        return self._feature_maps(points, gradients=False)[0]

    def gradient_features(self, points: np.ndarray) -> np.ndarray:
        """Basis gradients ``∂phi_j/∂x_d (x_i)``, shape ``(m, n, k)``."""
        return self._feature_maps(points, values=False)[1]

    def _feature_maps(
        self, points: np.ndarray, values: bool = True, gradients: bool = True
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(features, gradient_features)`` of one point set, one power table.

        Either map is ``None`` when not requested.  The table lives only
        for the duration of the call.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self._check_points(points)
        m, n = points.shape
        value_factors, gradient_terms = self._factor_plan(n)
        exponents = set()
        if values:
            exponents.update(e for factors in value_factors for _, e in factors)
        if gradients:
            exponents.update(e for *_, factors in gradient_terms for _, e in factors)
        powers = {1: points}
        for e in range(2, max(exponents, default=1) + 1):
            powers[e] = powers[e - 1] * points

        phi = grads = None
        if values:
            phi = np.empty((m, len(value_factors)))
            for j, factors in enumerate(value_factors):
                _product([powers[e][:, d] for d, e in factors], phi[:, j])
        if gradients:
            grads = np.zeros((m, n, len(value_factors)))
            for j, d, factor, factors in gradient_terms:
                column = grads[:, d, j]
                _product([powers[e][:, c] for c, e in factors], column)
                if factor != 1:
                    column *= factor
        return phi, grads

    def _factor_plan(self, n: int) -> tuple[list, list]:
        """Nonzero ``(column, exponent)`` factors of the basis (cached).

        Returns the factors of every monomial, and one ``(j, d, expo_d,
        factors)`` entry per nonzero derivative ``∂phi_j/∂x_d``, whose
        factors are those of the reduced monomial.  Keyed on ``(n,
        monomials)`` so edits to the public ``monomials`` list between
        calls never serve a stale plan.
        """
        key = (n, tuple(self.monomials))
        cached = getattr(self, "_factor_plan_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        value_factors = [
            [(d, expo[d]) for d in range(n) if expo[d] != 0] for expo in self.monomials
        ]
        gradient_terms = []
        for j, factors in enumerate(value_factors):
            for i, (d, e) in enumerate(factors):
                reduced = factors[:i] + ([(d, e - 1)] if e > 1 else []) + factors[i + 1 :]
                gradient_terms.append((j, d, e, reduced))
        plan = (value_factors, gradient_terms)
        self._factor_plan_cache = (key, plan)
        return plan

    def evaluate(self, coefficients: np.ndarray, points: np.ndarray) -> np.ndarray:
        """``W(x_i)`` for fixed coefficients."""
        return self.features(points) @ np.asarray(coefficients, dtype=float)

    def gradient(self, coefficients: np.ndarray, points: np.ndarray) -> np.ndarray:
        """``∇W(x_i)``, shape ``(m, n)``."""
        return self.gradient_features(points) @ np.asarray(coefficients, dtype=float)

    # ------------------------------------------------------------------
    # Symbolic reconstruction
    # ------------------------------------------------------------------
    def build_expression(
        self, coefficients: np.ndarray, state_names: Sequence[str]
    ) -> Expr:
        """``W`` as an expression over the named variables."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.basis_size,):
            raise ReproError(
                f"expected {self.basis_size} coefficients, got {coefficients.shape}"
            )
        if len(state_names) != self.dimension:
            raise ReproError(
                f"{len(state_names)} names for a {self.dimension}-D template"
            )
        variables = [var(name) for name in state_names]
        terms = []
        for coeff, expo in zip(coefficients, self.monomials):
            if coeff == 0.0:
                continue
            factors: Expr = Const(float(coeff))
            for x, power in zip(variables, expo):
                if power == 1:
                    factors = factors * x
                elif power > 1:
                    factors = factors * x**power
            terms.append(factors)
        return sum_expr(terms) if terms else Const(0.0)

    def _check_points(self, points: np.ndarray) -> None:
        if points.shape[1] != self.dimension:
            raise ReproError(
                f"points have {points.shape[1]} columns, template is "
                f"{self.dimension}-D"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} dim={self.dimension} basis={self.basis_size}>"


def _product(columns: list[np.ndarray], out: np.ndarray) -> None:
    """Write ``np.prod`` of the stacked ``columns`` (left to right) into ``out``."""
    if not columns:
        out[...] = 1.0
    elif len(columns) == 1:
        out[...] = columns[0]
    elif len(columns) == 2:
        np.multiply(columns[0], columns[1], out=out)
    else:
        np.prod(np.stack(columns, axis=1), axis=1, out=out)


class QuadraticTemplate(GeneratorTemplate):
    """Homogeneous quadratic ``W(x) = x^T P x`` (optionally + ``q^T x``).

    The paper's case study uses the pure quadratic form, whose level
    sets are origin-centred ellipsoids; ``include_linear=True`` adds the
    linear terms for systems whose invariant sets are offset.
    """

    def __init__(self, dimension: int, include_linear: bool = False):
        if dimension < 1:
            raise ReproError("dimension must be >= 1")
        self.dimension = dimension
        self.include_linear = include_linear
        self.monomials = []
        for i in range(dimension):
            for j in range(i, dimension):
                expo = [0] * dimension
                expo[i] += 1
                expo[j] += 1
                self.monomials.append(tuple(expo))
        if include_linear:
            for i in range(dimension):
                expo = [0] * dimension
                expo[i] = 1
                self.monomials.append(tuple(expo))

    def p_matrix(self, coefficients: np.ndarray) -> np.ndarray:
        """Symmetric ``P`` with ``x^T P x`` matching the quadratic part."""
        coefficients = np.asarray(coefficients, dtype=float)
        p = np.zeros((self.dimension, self.dimension))
        index = 0
        for i in range(self.dimension):
            for j in range(i, self.dimension):
                if i == j:
                    p[i, i] = coefficients[index]
                else:
                    p[i, j] = p[j, i] = 0.5 * coefficients[index]
                index += 1
        return p

    def q_vector(self, coefficients: np.ndarray) -> np.ndarray:
        """Linear-term vector ``q`` (zeros for the pure quadratic form)."""
        coefficients = np.asarray(coefficients, dtype=float)
        if not self.include_linear:
            return np.zeros(self.dimension)
        return coefficients[-self.dimension :].copy()

    @property
    def quadratic_size(self) -> int:
        """Number of quadratic basis terms."""
        return self.dimension * (self.dimension + 1) // 2


class PolynomialTemplate(GeneratorTemplate):
    """All monomials of total degree between ``min_degree`` and ``max_degree``.

    The default skips the constant term (degree 0): barrier generator
    functions are only meaningful up to the level-set offset, and a free
    constant makes the LP degenerate.
    """

    def __init__(self, dimension: int, max_degree: int, min_degree: int = 1):
        if dimension < 1:
            raise ReproError("dimension must be >= 1")
        if max_degree < min_degree or min_degree < 0:
            raise ReproError(
                f"invalid degree range [{min_degree}, {max_degree}]"
            )
        self.dimension = dimension
        self.max_degree = max_degree
        self.min_degree = min_degree
        self.monomials = [
            expo
            for expo in itertools.product(range(max_degree + 1), repeat=dimension)
            if min_degree <= sum(expo) <= max_degree
        ]
        # Deterministic order: by total degree, then lexicographic.
        self.monomials.sort(key=lambda e: (sum(e), e))
