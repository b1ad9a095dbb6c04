import random
from fractions import Fraction
from math import factorial

import pytest

from thetalab.hilbert import (
    HilbertFit,
    NonIntegralChern,
    SingularSystem,
    _frame as frame,
    canonical_power,
    fit_hilbert,
)

# values of the fitted polynomial at n = 3..10, frozen from the exact
# closed form (cross-checked below by integrality and symmetry)
VALUES_3_TO_10 = (256, 945, 3048, 8811, 23232, 56628, 128986, 276991)


@pytest.fixture(scope="module")
def fit():
    return fit_hilbert(1, 10, 58)


class TestFit:
    def test_gamma(self, fit):
        assert fit.gamma == Fraction(6, factorial(10))
        assert fit.gamma == Fraction(1, 604800)

    def test_sigma_pi(self, fit):
        assert fit.sigma == -35
        assert fit.pi == 1284

    def test_chern_degree(self, fit):
        assert fit.chern_degree == 6

    def test_reproduces_inputs_exactly(self, fit):
        assert fit.evaluate(0) == 1
        assert fit.evaluate(1) == 10
        assert fit.evaluate(2) == 58

    def test_forward_values(self, fit):
        for n, expected in zip(range(3, 11), VALUES_3_TO_10):
            assert fit.evaluate(n) == expected

    def test_vanishing_at_minus_1_to_5(self, fit):
        for n in range(-5, 0):
            assert fit.evaluate(n) == 0

    def test_integer_values_on_window(self, fit):
        for n in range(-10, 11):
            assert fit.evaluate(n).denominator == 1

    def test_symmetry_pointwise(self, fit):
        for n in range(-12, 13):
            assert fit.evaluate(n) == fit.evaluate(-6 - n)


def difference(fit, order, start):
    """The order-th forward difference of fit.evaluate at start."""
    values = [fit.evaluate(n) for n in range(start, start + order + 1)]
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


class TestPolynomial:
    def test_degree_ten(self, fit):
        # the 11th difference of a polynomial of degree <= 10 vanishes
        # everywhere, and the 10th is then constant
        for start in (-20, -6, 0, 7):
            assert difference(fit, 11, start) == 0
            assert difference(fit, 10, start) != 0

    def test_leading_coefficient_is_gamma(self, fit):
        # the 10th difference of a degree-10 polynomial is 10! times its
        # leading coefficient, at every start
        for start in (-20, -6, 0, 7):
            assert difference(fit, 10, start) == factorial(10) * fit.gamma
            assert difference(fit, 10, start) == fit.chern_degree == 6

    def test_coefficient_level_symmetry(self, fit):
        # p(n) - p(-6 - n) has degree <= 10, so 11 zeros make it the zero
        # polynomial: p(x) = p(-6 - x) as polynomials
        for n in range(11):
            assert fit.evaluate(n) == fit.evaluate(-6 - n)

    def test_symmetry_center_matches_canonical_power(self, fit):
        assert canonical_power() == -6
        assert Fraction(canonical_power(), 2) == -3


class TestErrors:
    def test_non_integral_chern(self):
        with pytest.raises(NonIntegralChern):
            fit_hilbert(1, 10, Fraction(175, 3))

    def test_singular_system_detected(self):
        # 10! * gamma = 90*p0 - 20*p1 + 2*p2 vanishes on these values
        for values in ((0, 0, 0), (2, 9, 0), (1, 10, 55)):
            with pytest.raises(SingularSystem, match="leading coefficient vanished"):
                fit_hilbert(*values)

    def test_chern_linear_in_inputs(self):
        # 10! * gamma = 90*p0 - 20*p1 + 2*p2 by Cramer elimination, so
        # integer inputs always pass the integrality check
        for p0, p1, p2 in ((1, 10, 58), (2, 3, 4), (0, 0, 1), (7, -1, 5)):
            fit = fit_hilbert(p0, p1, p2)
            assert fit.chern_degree == 90 * p0 - 20 * p1 + 2 * p2


def test_matches_linear_solve():
    """The Lagrange coefficients solve the 3x3 system of the three values,
    solved here by sympy over the rationals."""
    import sympy

    rng = random.Random(20261019)
    for _ in range(30):
        values = [rng.randint(-999, 999) for _ in range(3)]  # 10! * gamma is then an integer
        rows = [[c * m * m, -c * m, c]
                for c, m in ((frame(n), (n + 3) ** 2) for n in range(3))]
        solution = sympy.Matrix(rows).LUsolve(sympy.Matrix(values))
        gamma, g_sigma, g_pi = (Fraction(int(v.p), int(v.q)) for v in solution)
        if gamma == 0:
            continue
        fit = fit_hilbert(*values)
        assert (fit.gamma, fit.sigma, fit.pi) == (gamma, g_sigma / gamma, g_pi / gamma)


class TestEvaluateRational:
    def test_evaluate_at_fraction(self, fit):
        center = fit.evaluate(Fraction(-3))
        assert center == 0
        assert fit.evaluate(Fraction(-7, 2)) == fit.evaluate(Fraction(-5, 2))
