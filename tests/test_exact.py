import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from thetalab.exact import Cyclo, NotRational, _phi_ints, cyclo_csc, cyclo_sin

from oracles import mp_sin, ref_add, ref_inverse, ref_mul, ref_sin


def zeta(n, k):
    """zeta_n^k as a canonical element."""
    return Cyclo._from_terms(n, ((k, 1),), 1)


class TestCyclotomicPolynomial:
    """_phi_ints(n) is Phi_n as monic ints, low to high."""

    def test_degrees_match_phi_up_to_48(self):
        import sympy

        for n in range(1, 49):
            assert len(_phi_ints(n)) - 1 == sympy.totient(n)

    def test_small_cases(self):
        assert _phi_ints(1) == (-1, 1)
        assert _phi_ints(2) == (1, 1)
        assert _phi_ints(4) == (1, 0, 1)

    def test_prime_case_is_geometric(self):
        for p in (3, 5, 7, 11, 13):
            assert _phi_ints(p) == (1,) * p

    def test_phi_40(self):
        assert _phi_ints(40) == (1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1)

    def test_against_sympy_up_to_200(self):
        import sympy

        x = sympy.Symbol("x")
        for n in range(1, 201):
            expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
            assert _phi_ints(n) == tuple(expected)
            assert len(Cyclo(n, (), 1).num) == sympy.totient(n)

    def test_product_over_divisors(self):
        import sympy

        x = sympy.Symbol("x")
        for n in (6, 12, 20, 148):
            prod = sympy.Poly(1, x)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod *= sympy.Poly(_phi_ints(d)[::-1], x)
            assert prod == sympy.Poly(x ** n - 1, x)


class TestConstructor:
    """Cyclo(N, num, den) takes at most phi(N) ints and stores num / den in
    lowest terms."""

    def test_pads_with_zeros(self):
        x = Cyclo(20, (3, -1), 1)
        assert x.num == (3, -1, 0, 0, 0, 0, 0, 0)
        assert x.den == 1
        assert Cyclo(20, (), 1).num == (0,) * 8

    def test_lowest_terms(self):
        x = Cyclo(5, (6, -4, 0, 10), 8)
        assert (x.num, x.den) == ((3, -2, 0, 5), 4)
        assert x.coeffs == (Fraction(3, 4), Fraction(-1, 2), 0, Fraction(5, 4))
        zero = Cyclo(12, (), 7)
        assert (zero.num, zero.den) == ((0,) * 4, 1)
        assert Cyclo(5, (6, -4), 8) == Cyclo(5, (3, -2), 4)

    def test_rejects_more_than_phi_entries(self):
        with pytest.raises(ValueError, match="longer than phi"):
            Cyclo(5, (1, 2, 3, 4, 5), 1)
        with pytest.raises(ValueError, match="longer than phi"):
            Cyclo(1, (1, 0), 1)

    @pytest.mark.parametrize("den", [0, -1, -6])
    def test_rejects_den_below_one(self, den):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Cyclo(5, (1, 2), den)


class TestCycloSin:
    def test_pinned_values(self):
        assert cyclo_sin(1, 2) == 1
        assert cyclo_sin(1, 6) == Fraction(1, 2)
        assert cyclo_sin(0, 5) == 0
        assert cyclo_sin(5, 5) == 0
        assert cyclo_sin(3, 2) == -1

    @given(k=st.integers(-50, 50), m=st.integers(1, 24))
    def test_reflection_and_oddness(self, k, m):
        assert cyclo_sin(m - k, m) == cyclo_sin(k, m)
        assert cyclo_sin(-k, m) == -1 * cyclo_sin(k, m)

    def test_sin_product_identity(self):
        prod = Cyclo.from_rational(1)
        for k in range(1, 5):
            prod = prod * cyclo_sin(k, 5)
        assert prod.to_rational() == Fraction(5, 16)

    def test_pythagorean_identity(self):
        s = cyclo_sin(1, 10)
        c = cyclo_sin(4, 10)  # cos(pi/10)
        assert (s * s + c * c).to_rational() == 1

    def test_irrational_detection(self):
        with pytest.raises(NotRational):
            cyclo_sin(1, 5).to_rational()
        assert not cyclo_sin(1, 5).is_rational
        assert cyclo_sin(1, 2).is_rational

    def test_float_against_oracle_1000_samples(self):
        rng = random.Random(20260825)
        for _ in range(1000):
            m = rng.randint(1, 40)
            k = rng.randint(0, 2 * m)
            exact = float(cyclo_sin(k, m))
            assert abs(exact - float(mp_sin(k, m))) < 1e-12


class TestCycloCsc:
    """1/sin(k*pi/m) from the cyclotomic-unit sum, with no inverse taken."""

    @pytest.mark.parametrize("m", range(2, 41))
    def test_matches_inverse_oracle(self, m):
        n = lcm(2 * m, 4)
        inverses = {}  # sin(k*pi/m) = sin((m - k)*pi/m): invert each value once
        for k in range(1, 2 * m):
            if k % m:
                sine = ref_sin(k, m)
                if sine not in inverses:
                    inverses[sine] = ref_inverse(n, sine)
                csc = cyclo_csc(k, m)
                assert csc.modulus == n
                assert csc.coeffs == inverses[sine]

    def test_inverts_sine_for_any_k(self):
        for m in range(1, 41):
            for k in range(-2 * m, 4 * m + 1):
                if k % m:
                    assert cyclo_csc(k, m) * cyclo_sin(k, m) == 1

    @pytest.mark.parametrize("k, m", [(0, 1), (1, 1), (-3, 1), (0, 5), (5, 5), (10, 5),
                                      (-20, 10), (40, 10)])
    def test_zero_sine_raises(self, k, m):
        with pytest.raises(ZeroDivisionError):
            cyclo_csc(k, m)

    @pytest.mark.parametrize("m", [0, -1, -10])
    def test_nonpositive_m_rejected(self, m):
        with pytest.raises(ValueError):
            cyclo_csc(1, m)


MODULI = sorted({lcm(2 * m, 4) for m in range(1, 41)})


def test_kernel_matches_poly_route_for_every_sine_modulus():
    """Exact coefficient vectors against the dense Poly-over-Q reference,
    for every N = lcm(2m, 4) with m <= 40: sines, products, sums across
    moduli and inverses."""
    rng = random.Random(20261017)
    for m in range(1, 41):
        n = lcm(2 * m, 4)
        k1, k2 = rng.randrange(2 * m), rng.randrange(2 * m)
        s, t = cyclo_sin(k1, m), cyclo_sin(k2, m)
        ref_s, ref_t = ref_sin(k1, m), ref_sin(k2, m)
        assert s.coeffs == ref_s
        assert t.coeffs == ref_t
        assert (s * t).coeffs == ref_mul(n, ref_s, ref_t)
        # a partner r * zeta_d^j + q whose modulus d divides a multiple of
        # n among the sine moduli, so the sum lives in Q(zeta_lcm(n, d)); a
        # dense partner would make Euclid over Q (both routes) take over a minute
        top = rng.choice([big for big in MODULI if big % n == 0])
        d = rng.choice([d for d in range(1, top + 1) if top % d == 0 and d != n])
        r, q = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2))
        other = r * zeta(d, rng.randrange(d)) + q
        u = s + other
        assert u.modulus == lcm(n, d)
        assert u.coeffs == ref_add(n, ref_s, d, other.coeffs)
        for v in (s, u):
            if not v.is_zero:
                assert v.inverse().coeffs == ref_inverse(v.modulus, v.coeffs)


@pytest.mark.parametrize("build", [
    lambda: Cyclo(0, (), 1),
    lambda: Cyclo(-4, (1,), 3),
    lambda: Cyclo._from_terms(0, ((1, 1),), 1),
    lambda: Cyclo._from_terms(-3, ((1, 1),), 1),
    lambda: cyclo_sin(1, 2).promote(0),
    lambda: cyclo_sin(1, 2).promote(-4),
    lambda: cyclo_sin(1, 2).promote(-3),
    lambda: _phi_ints(0),
    lambda: _phi_ints(-12),
], ids=["init-0", "init-neg", "zeta-0", "zeta-neg",
        "promote-0", "promote-neg-multiple", "promote-neg", "phi-poly-0", "phi-poly-neg"])
def test_invalid_modulus_is_rejected(build):
    with pytest.raises(ValueError, match="modulus must be positive"):
        build()


def elements(modulus):
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=0, max_size=6,
    ).map(lambda cs: sum((zeta(modulus, j) * c for j, c in enumerate(cs)),
                         Cyclo(modulus, (), 1)))


class TestCycloField:
    @given(a=elements(12), b=elements(12), c=elements(12))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=elements(8))
    def test_additive_inverse(self, a):
        assert (a + -1 * a).is_zero
        assert a + 0 == a

    @given(a=elements(5))
    def test_multiplicative_inverse(self, a):
        if a.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo.from_rational(0).inverse()

    def test_arith_dispatch(self):
        a, b = Cyclo.from_rational(3), Cyclo.from_rational(2)
        assert a + b == 5
        assert a * b == 6
        assert a + 1 == 4
        assert 2 * a == 6

    def test_no_subtraction_or_negation(self):
        a = cyclo_sin(1, 5)
        for op in (lambda: a - a, lambda: 1 - a, lambda: -a, lambda: 1 + a):
            with pytest.raises(TypeError):
                op()

    def test_cross_modulus_embedding(self):
        assert zeta(40, 8) == zeta(5, 1)
        assert zeta(5, 1) + zeta(4, 1) == zeta(4, 1) + zeta(5, 1)

    def test_inverse_of_sin(self):
        s = cyclo_sin(1, 5)
        assert s * s.inverse() == 1

    def test_inverse_of_padded_rational(self):
        """A rational promoted to N = 148 has phi(N) - 1 = 71 zeros after its
        constant in num, which the extended Euclid must not take for a lead
        coefficient."""
        x = Cyclo.from_rational(Fraction(-7, 3)).promote(148)
        assert x.num[1:] == (0,) * 71
        assert x.inverse().coeffs == ref_inverse(148, x.coeffs)

    def test_rational_round_trip(self):
        value = Fraction(7, 3)
        assert Cyclo.from_rational(value).to_rational() == value
        assert abs(float(Cyclo.from_rational(value)) - 7 / 3) < 1e-15
