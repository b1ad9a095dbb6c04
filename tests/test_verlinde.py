from fractions import Fraction
from math import comb

import mpmath
import pytest

from thetalab.exact import cyclo_csc
from thetalab.hilbert import fit_hilbert
from thetalab.verlinde import (
    hilbert_values,
    s_factor,
    theta_eigendims,
    verlinde,
    weights,
)

from oracles import hilbert_value, mp_sin

# squares of S(s,t) over weights(2), in table order; verified against the
# floating oracle below
S_SQUARED = (5, 20, 25, 5, 20, 25)

# p(k) = h^0(M_2, Xi^k) for k = 0..11
LEVELS = (1, 10, 58, 256, 945, 3048, 8811, 23232, 56628, 128986, 276991, 564928)


class TestPairs:
    def test_admissible_enumeration(self):
        assert weights(2) == [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]

    @pytest.mark.parametrize("s,t", [(0, 1), (1, 0), (1, 4), (4, 1), (2, 3)])
    def test_inadmissible_rejected(self, s, t):
        assert (s, t) not in weights(2)

    def test_count_and_bound_every_level(self):
        for k in range(12):
            pairs = weights(k)
            assert len(pairs) == len(set(pairs)) == comb(k + 2, 2)
            assert all(s >= 1 and t >= 1 and s + t <= k + 2 for s, t in pairs)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            weights(-1)


class TestSFactor:
    def test_exact_squares(self):
        for (s, t), expected in zip(weights(2), S_SQUARED):
            factor = s_factor(s, t)
            assert (factor * factor).to_rational() == expected

    def test_cosecant_product_inverts_it(self):
        for s, t in weights(2):
            csc = (cyclo_csc(s + t, 5) * cyclo_csc(t, 5)
                   * cyclo_csc(s, 10) * cyclo_csc(s + 2 * t, 10))
            assert s_factor(s, t) * csc == 16

    def test_never_zero(self):
        for s, t in weights(2):
            assert not s_factor(s, t).is_zero

    def test_against_floating_oracle(self):
        with mpmath.workprec(200):
            for s, t in weights(2):
                target = (16 * mp_sin(s + t, 5) * mp_sin(t, 5)
                          * mp_sin(s, 10) * mp_sin(s + 2 * t, 10))
                assert abs(float(s_factor(s, t)) - float(target)) < 1e-12


class TestP2:
    def test_exact_value(self):
        assert verlinde(2) == 58

    def test_floating_cross_check(self):
        with mpmath.workprec(200):
            total = mpmath.mpf(0)
            for s, t in weights(2):
                factor = (16 * mp_sin(s + t, 5) * mp_sin(t, 5)
                          * mp_sin(s, 10) * mp_sin(s + 2 * t, 10))
                total += 1 / factor ** 2
            assert abs(float(100 * total) - 58) < 1e-6

    def test_term_count_and_sum(self):
        inverse_squares = [Fraction(1, sq) for sq in S_SQUARED]
        assert len(inverse_squares) == 6
        assert 100 * sum(inverse_squares) == 58

    def test_hilbert_values(self):
        assert hilbert_values() == (1, 10, 58)


class TestLevels:
    def test_every_level_on_the_hilbert_polynomial(self):
        """The fit through p(0), p(1), p(2) predicts the nine levels past them."""
        fit = fit_hilbert(1, 10, 58)
        values = tuple(verlinde(k) for k in range(12))
        assert values == LEVELS
        assert values == tuple(hilbert_value(fit, k) for k in range(12))

    def test_level_one_counts_even_theta_functions(self):
        """p(1) = h^0(Xi) = h^0(J, 4 Theta)_+, the count behind theta: M_2 -> |4 Theta|_+."""
        assert verlinde(1) == theta_eigendims(2, 2)[0] == 10

    def test_floating_cross_check(self):
        with mpmath.workprec(200):
            for k in range(7):
                n = k + 3
                total = mpmath.mpf(0)
                for s, t in weights(k):
                    factor = (16 * mp_sin(s + t, n) * mp_sin(t, n)
                              * mp_sin(s, 2 * n) * mp_sin(s + 2 * t, 2 * n))
                    total += 1 / factor ** 2
                assert abs(float(4 * n * n * total) - LEVELS[k]) < 1e-6 * LEVELS[k]


class TestThetaEigendims:
    def test_pinned_cases(self):
        assert theta_eigendims(2, 2) == (10, 6)
        assert theta_eigendims(1, 2) == (4, 0)
        assert theta_eigendims(3, 2) == (20, 16)

    def test_total_dimension_at_genus_2(self):
        for n in range(1, 11):
            plus, minus = theta_eigendims(n, 2)
            assert plus + minus == (2 * n) ** 2

    def test_difference_is_2_to_g(self):
        for n in range(1, 8):
            for g in range(2, 6):
                plus, minus = theta_eigendims(n, g)
                assert plus - minus == 2 ** g

    def test_total_dimension_every_genus(self):
        for n in range(1, 5):
            for g in range(2, 6):
                plus, minus = theta_eigendims(n, g)
                assert plus + minus == (2 * n) ** g
                assert minus >= 0

    def test_level_one_genus_three(self):
        assert theta_eigendims(1, 3) == (8, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_eigendims(0, 2)
        with pytest.raises(ValueError):
            theta_eigendims(1, 1)
