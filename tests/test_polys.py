"""Poly arithmetic against sympy.Poly over GF(p) and QQ, on seeded random inputs."""
import random
from fractions import Fraction

import pytest
import sympy

from thetalab.fields import PrimeField, QQ
from thetalab.polys import Poly, gcd, xgcd

X = sympy.Symbol("x")
FIELDS = [PrimeField(3), PrimeField(13), PrimeField(10007), PrimeField(2**61 - 1), QQ]
CASES = 40


def random_poly(rng, F, max_degree=7):
    degree = rng.randrange(-1, max_degree + 1)  # -1 gives the zero polynomial
    if F is QQ:
        return Poly(F, [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                        for _ in range(degree + 1)])
    return Poly(F, [rng.randrange(F.p) for _ in range(degree + 1)])


def nonzero_poly(rng, F, max_degree=7):
    while True:
        g = random_poly(rng, F, max_degree)
        if not g.is_zero:
            return g


def to_sympy(g):
    coeffs = list(reversed(g.coeffs)) or [0]
    if g.field is QQ:
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                          X, domain="QQ")
    return sympy.Poly(coeffs, X, modulus=g.field.p)


def from_sympy(F, s):
    """Canonical low-to-high coefficients of a sympy polynomial, no trailing zeros."""
    if F is QQ:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())]
    else:
        cs = [int(c) % F.p for c in reversed(s.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def same(g, s):
    """g equals the sympy polynomial s, with every coefficient in canonical form."""
    kind = Fraction if g.field is QQ else int
    canonical = all(type(c) is kind for c in g.coeffs) and (
        g.field is QQ or all(0 <= c < g.field.p for c in g.coeffs))
    return canonical and g.coeffs == from_sympy(g.field, s)


@pytest.fixture(params=FIELDS, ids=str)
def field(request):
    return request.param


@pytest.fixture()
def prng(field):
    return random.Random(f"polys-{field}")


def test_ring_operations(field, prng):
    for _ in range(CASES):
        a, b = random_poly(prng, field), random_poly(prng, field)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a - b, sa - sb)
        assert same(-a, -sa)
        assert same(a * b, sa * sb)


def test_divmod(field, prng):
    for _ in range(CASES):
        a, b = random_poly(prng, field, 10), nonzero_poly(prng, field, 5)
        q, r = divmod(a, b)
        sq, sr = to_sympy(a).div(to_sympy(b))
        assert same(q, sq) and same(r, sr)
        assert same(a % b, sr)
    with pytest.raises(ZeroDivisionError):
        divmod(nonzero_poly(prng, field), Poly(field, ()))


def test_gcd_and_xgcd(field, prng):
    for _ in range(CASES):
        common = nonzero_poly(prng, field, 3)
        a = common * random_poly(prng, field, 5)
        b = common * random_poly(prng, field, 5)
        expected = to_sympy(a).gcd(to_sympy(b))
        assert same(gcd(a, b), expected)
        g, s, t = xgcd(a, b)
        assert same(g, expected)
        assert g.is_zero or g.lc() == field.one
        assert s * a == g - t * b


def test_evaluation_derivative_and_monic(field, prng):
    for _ in range(CASES):
        g = random_poly(prng, field, 9)
        sg = to_sympy(g)
        if field is QQ:
            point = Fraction(prng.randint(-9, 9), prng.randint(1, 5))
            value = sg.eval(sympy.Rational(point.numerator, point.denominator))
            assert g(point) == Fraction(int(value.p), int(value.q))
            assert type(g(point)) is Fraction
        else:
            point = prng.randrange(field.p)
            assert g(point) == int(sg.eval(point)) % field.p
            assert 0 <= g(point) < field.p
        assert same(g.derivative(), sg.diff(X))
        if not g.is_zero:
            assert same(g.monic(), sg.monic())
