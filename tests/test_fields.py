"""Primality, rational parsing, field conversion and prime-field square roots
against independent oracles."""
import random
import tracemalloc
from fractions import Fraction

import pytest
from sympy import isprime
from sympy.ntheory.residue_ntheory import sqrt_mod

from thetalab.fields import QQ, PrimeField, is_prime, parse_rational
from thetalab.hyperelliptic import new_curve


def smallest_roots(p):
    """Brute force: the smallest y with y^2 = a, for every residue a."""
    table = {}
    for y in range(p):
        table.setdefault(y * y % p, y)
    return table


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441


class TestIsPrime:
    def test_against_sympy_below_the_bound(self):
        rng = random.Random(12)
        samples = list(range(200)) + [399165290221, 798330580441, 2**61 - 1, PSI_12 - 2]
        samples += [rng.randrange(PSI_12) | 1 for _ in range(300)]
        for n in samples:
            assert is_prime(n) == isprime(n), n

    @pytest.mark.parametrize("n", [PSI_12, PSI_12 + 2, 2**89 - 1])
    def test_undecided_above_the_bound(self, n):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


class TestParseRational:
    def test_plain_and_exponent_forms(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational(" 1.5e2 ") == 150
        assert parse_rational("25e-1") == Fraction(5, 2)

    @pytest.mark.parametrize("text", ["1e30000000", "1E-30000000", "7.5e+4301", "2e1_000_000"])
    def test_huge_exponent_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_exponent_at_the_limit_accepted(self):
        assert parse_rational("1e4300") == 10**4300


class TestFieldCall:
    def test_prime_field_maps_ints_and_fractions(self):
        F = PrimeField(13)
        assert [F(-1), F(True), F(Fraction(3, 2))] == [12, 1, 8]

    @pytest.mark.parametrize("value", [1.5, 0.9999, 1.0, "1"])
    def test_prime_field_refuses_floats_and_other_types(self, value):
        with pytest.raises(TypeError):
            PrimeField(13)(value)

    def test_float_lead_coefficient_is_not_truncated_to_monic(self):
        with pytest.raises(TypeError):
            new_curve(PrimeField(13), [0, -1, 0, 0, 0, 1.2])

    def test_rationals_convert_floats_exactly(self):
        assert QQ(1.5) == Fraction(3, 2)
        assert QQ(0.1) == Fraction(3602879701896397, 36028797018963968)


class TestPrimeFieldSqrt:
    # 65537 = 2^16 + 1 has the longest Tonelli-Shanks inner loop; at p = 2
    # there is no nonresidue to search for.
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 41, 10007, 65537])
    def test_every_element_against_brute_force(self, p):
        F = PrimeField(p)
        table = smallest_roots(p)
        assert [F.sqrt(a) for a in range(p)] == [table.get(a) for a in range(p)]

    def test_reduces_its_argument(self):
        F = PrimeField(13)
        assert F.sqrt(13 + 4) == 2
        assert F.sqrt(-9) == F.sqrt(4)

    # 998244353 = 119 * 2^23 + 1 exercises the nonresidue search at a large
    # 2-adic valuation; the others have p - 1 = 2 * odd.
    @pytest.mark.parametrize("p", [1000003, 2**31 - 1, 2**61 - 1, 10**9 + 7, 998244353])
    def test_against_sympy(self, p):
        rng = random.Random(p)
        F = PrimeField(p)
        samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(100)]
        samples += [rng.randrange(p) ** 2 % p for _ in range(100)]
        for a in samples:
            roots = sqrt_mod(a, p, all_roots=True)
            assert F.sqrt(a) == (min(roots) if roots else None), a

    def test_bounded_memory_and_no_state(self):
        tracemalloc.start()
        try:
            F = PrimeField(999983)
            F.sqrt(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert set(vars(F)) == {"p", "characteristic"}
        F.sqrt(3)
        assert set(vars(F)) == {"p", "characteristic"}
