from fractions import Fraction

import mpmath
import pytest

from thetalab.exact import cyclo_csc
from thetalab.verlinde import (
    VerlindePair,
    admissible_pairs,
    hilbert_values,
    s_factor,
    theta_eigendims,
    verlinde_p2,
)

from oracles import mp_sin

# squares of S(s,t) over the admissible pairs, in table order; verified
# against the floating oracle below
S_SQUARED = (5, 20, 25, 5, 20, 25)


class TestPairs:
    def test_admissible_enumeration(self):
        pairs = admissible_pairs()
        assert len(pairs) == 6
        assert {(p.s, p.t) for p in pairs} == {
            (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)
        }

    @pytest.mark.parametrize("s,t", [(0, 1), (1, 0), (1, 4), (4, 1), (2, 3)])
    def test_inadmissible_rejected(self, s, t):
        with pytest.raises(ValueError):
            VerlindePair(s, t)


class TestSFactor:
    def test_exact_squares(self):
        for pair, expected in zip(admissible_pairs(), S_SQUARED):
            factor = s_factor(pair)
            assert (factor * factor).to_rational() == expected

    def test_cosecant_product_inverts_it(self):
        for pair in admissible_pairs():
            s, t = pair.s, pair.t
            csc = (cyclo_csc(s + t, 5) * cyclo_csc(t, 5)
                   * cyclo_csc(s, 10) * cyclo_csc(s + 2 * t, 10))
            assert s_factor(pair) * csc == 16

    def test_never_zero(self):
        for pair in admissible_pairs():
            assert not s_factor(pair).is_zero

    def test_against_floating_oracle(self):
        with mpmath.workprec(200):
            for pair in admissible_pairs():
                s, t = pair.s, pair.t
                target = (16 * mp_sin(s + t, 5) * mp_sin(t, 5)
                          * mp_sin(s, 10) * mp_sin(s + 2 * t, 10))
                assert abs(float(s_factor(pair)) - float(target)) < 1e-12


class TestP2:
    def test_exact_value(self):
        assert verlinde_p2() == 58

    def test_floating_cross_check(self):
        with mpmath.workprec(200):
            total = mpmath.mpf(0)
            for pair in admissible_pairs():
                s, t = pair.s, pair.t
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
