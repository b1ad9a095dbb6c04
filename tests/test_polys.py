"""The polynomial kernel (polys' coefficient-list functions) and Poly's
evaluation against sympy over GF(p) and QQ, on seeded random inputs."""
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from thetalab.exact import cyclo_sin
from thetalab.fields import PrimeField, QQ
from thetalab import polys
from thetalab.polys import Poly

import oracles

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


def canonical(F, coeffs):
    """Kernel form: no trailing zero, and every coefficient an int in
    0..p-1 over F_p or a Fraction over Q."""
    kind = Fraction if F is QQ else int
    return (not coeffs or coeffs[-1] != 0) and all(
        type(c) is kind and (F is QQ or 0 <= c < F.p) for c in coeffs)


def same(F, coeffs, s):
    """coeffs is canonical and equals the sympy polynomial s."""
    return canonical(F, coeffs) and tuple(coeffs) == from_sympy(F, s)


def monic_of(F, g):
    """g scaled to lead coefficient 1, by sympy, as kernel coefficients."""
    return list(from_sympy(F, to_sympy(g).monic()))


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
        c = field(prng.randrange(1, 100))
        assert same(field, polys.add(a.coeffs, b.coeffs, field), sa + sb)
        assert same(field, polys.sub(a.coeffs, b.coeffs, field), sa - sb)
        assert same(field, polys.sub([], a.coeffs, field), -sa)
        assert same(field, polys.mul(a.coeffs, b.coeffs, field), sa * sb)
        assert same(field, polys.scale(a.coeffs, c, field), sa * to_sympy(Poly(field, (c,))))


def test_divmod(field, prng):
    """quo_rem divides by a monic polynomial."""
    for _ in range(CASES):
        a, b = random_poly(prng, field, 10), nonzero_poly(prng, field, 5)
        m = monic_of(field, b)
        q, r = polys.quo_rem(a.coeffs, m, field)
        sq, sr = to_sympy(a).div(to_sympy(b).monic())
        assert same(field, q, sq) and same(field, r, sr)


def test_gcd_and_xgcd(field, prng):
    """gcd and xgcd of a monic a and any b; the gcd is monic, and xgcd's
    cofactor t, with t*b = g mod a, is extended Euclid's cofactor of b."""
    for _ in range(CASES):
        common = nonzero_poly(prng, field, 3)
        a = Poly(field, polys.mul(common.coeffs, nonzero_poly(prng, field, 5).coeffs, field))
        b = Poly(field, polys.mul(common.coeffs, random_poly(prng, field, 5).coeffs, field))
        a = monic_of(field, a)
        expected = to_sympy(Poly(field, a)).gcd(to_sympy(b))
        assert same(field, polys.gcd(a, b.coeffs, field), expected)
        g, t = polys.xgcd(a, b.coeffs, field)
        assert same(field, g, expected)
        assert g[-1] == field.one
        assert canonical(field, t)
        assert t == list(oracles.ref_xgcd(Poly(field, a), b)[2].coeffs)
        assert polys.quo_rem(polys.sub(g, polys.mul(t, b.coeffs, field), field), a, field)[1] == []


def test_powmod(field, prng):
    """a^n mod a monic m: against gf_pow_mod over F_p, n = 0 and n = p
    included, and against sympy.rem(a**n, m) over Q for n <= 30."""
    for case in range(CASES):
        a = random_poly(prng, field)
        m = monic_of(field, nonzero_poly(prng, field, 5))
        if field is QQ:
            n = (0, 30)[case] if case < 2 else prng.randrange(31)
            expected = sympy.rem(to_sympy(a) ** n, to_sympy(Poly(field, m)))
            assert same(field, polys.powmod(a.coeffs, n, m, field), expected)
        else:
            n = (0, field.p)[case] if case < 2 else prng.randrange(2 * field.p + 100)
            expected = gf_pow_mod(list(reversed(a.coeffs)), n, m[::-1], field.p, ZZ)
            got = polys.powmod(a.coeffs, n, m, field)
            assert canonical(field, got) and got == [int(c) for c in reversed(expected)]


def test_powmod_rejects_a_negative_exponent(field):
    """bin(n)[3:] would read the minus sign of n < 0 as a digit: over F13
    mod x^16 + 1 that gave x^13 for n = -5 and x^3 for n = -1."""
    m = [field.one] + [field.zero] * 15 + [field.one]
    for n in (-1, -5):
        with pytest.raises(ValueError, match="n >= 0"):
            polys.powmod([field.zero, field.one], n, m, field)


def x_power(F, k, c=0):
    """x^k + c as kernel coefficients."""
    coeffs = [0] * (k + 1)
    coeffs[k] += 1
    coeffs[0] += c
    return list(Poly(F, coeffs).coeffs)


def sympy_cyclotomic(F, d):
    """Phi_d from sympy, as kernel coefficients over F."""
    ints = sympy.Poly(sympy.cyclotomic_poly(d, X), X).all_coeffs()[::-1]
    return list(Poly(F, [int(c) for c in ints]).coeffs)


def sine_numerators(F):
    """(N, the trimmed power-basis numerator of a sine in Q(zeta_N) as
    kernel coefficients over F): sparse, with one to three nonzero terms."""
    sines = [cyclo_sin(k, m) for k, m in ((1, 5), (3, 19), (3, 37), (3, 38), (7, 39), (3, 74))]
    return [(x.modulus, list(Poly(F, x.num).coeffs)) for x in sines]


def test_sparse_operands_x_power_plus_minus_one(field):
    """mul and quo_rem on x^j +- 1 and x^k +- 1, where most products skip a
    zero factor, against sympy."""
    for j in range(0, 13, 3):
        for k in range(1, 9, 2):
            for cj in (1, -1):
                for ck in (1, -1):
                    a, b = x_power(field, j, cj), x_power(field, k, ck)
                    sa, sb = to_sympy(Poly(field, a)), to_sympy(Poly(field, b))
                    assert same(field, polys.mul(a, b, field), sa * sb)
                    q, r = polys.quo_rem(a, b, field)
                    sq, sr = sa.div(sb)
                    assert same(field, q, sq) and same(field, r, sr)


def test_sparse_operands_x_power_minus_one_by_cyclotomic(field):
    """x^N - 1 divided by Phi_d for every divisor d of N, Phi_d from sympy:
    the quotient is sympy's and the remainder is zero."""
    for n in (1, 2, 6, 12, 20, 30, 36, 60, 76):
        a = x_power(field, n, -1)
        for d in range(1, n + 1):
            if n % d == 0:
                phi = sympy_cyclotomic(field, d)
                q, r = polys.quo_rem(a, phi, field)
                sq, sr = to_sympy(Poly(field, a)).div(to_sympy(Poly(field, phi)))
                assert same(field, q, sq) and r == [] and sr.is_zero


def test_sparse_operands_sine_numerators(field):
    """Products of sine numerators, their reduction mod Phi_N, and Phi_N
    divided by a monic sine numerator, against sympy."""
    sines = sine_numerators(field)
    for n, s in sines:
        phi = sympy_cyclotomic(field, n)
        ss, sphi = to_sympy(Poly(field, s)), to_sympy(Poly(field, phi))
        for _, t in sines:
            st = to_sympy(Poly(field, t))
            prod = polys.mul(s, t, field)
            assert same(field, prod, ss * st)
            q, r = polys.quo_rem(prod, phi, field)
            sq, sr = (ss * st).div(sphi)
            assert same(field, q, sq) and same(field, r, sr)
        monic = monic_of(field, Poly(field, s))
        q, r = polys.quo_rem(phi, monic, field)
        sq, sr = sphi.div(ss.monic())
        assert same(field, q, sq) and same(field, r, sr)


def test_quotients_with_zero_runs(field, prng):
    """a = q*m + r with runs of zeros in q and a sparse monic m: quo_rem
    gives sympy's q and r back."""
    for _ in range(CASES):
        degree = prng.randrange(8, 30)
        q = [0] * degree + [1]
        for i in prng.sample(range(degree), 3):
            q[i] = prng.randrange(1, 50)
        k = prng.randrange(1, 7)
        m = x_power(field, k, prng.randrange(1, 50))
        r = random_poly(prng, field, k - 1)
        sa = to_sympy(Poly(field, q)) * to_sympy(Poly(field, m)) + to_sympy(r)
        got_q, got_r = polys.quo_rem(list(from_sympy(field, sa)), m, field)
        sq, sr = sa.div(to_sympy(Poly(field, m)))
        assert same(field, got_q, sq) and same(field, got_r, sr)
        assert tuple(got_q) == Poly(field, q).coeffs and tuple(got_r) == r.coeffs


class Counted(Fraction):
    """A Fraction that counts the products it takes part in, and those
    with a zero factor.  Fraction's own arithmetic returns a plain
    Fraction, so a count covers only products with an input coefficient."""

    products = zero_products = 0

    def __mul__(self, other):
        Counted.products += 1
        Counted.zero_products += not self or not other
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        return Counted.__mul__(self, other)


def test_no_product_with_a_zero_factor():
    """Over Q, mul multiplies only nonzero coefficients of a and b, and
    quo_rem only nonzero coefficients of the divisor, on sparse operands.
    A Counted input coefficient is not of type Fraction, so the results are
    compared with sympy by value, not through canonical."""
    rng = random.Random("polys-zero-products")
    for _ in range(CASES):
        a = [Counted(rng.choice((0, 0, 0, rng.randint(-9, 9)))) for _ in range(rng.randrange(1, 25))]
        b = [Counted(rng.choice((0, 0, rng.randint(-9, 9)))) for _ in range(rng.randrange(1, 12))]
        a[-1] = b[-1] = Counted(1)
        Counted.products = Counted.zero_products = 0
        product = polys.mul(a, b, QQ)
        assert Counted.products == sum(1 for x in a if x) * sum(1 for y in b if y)
        q, r = polys.quo_rem(a, b, QQ)
        assert Counted.zero_products == 0
        sa, sb = to_sympy(Poly(QQ, a)), to_sympy(Poly(QQ, b))
        assert tuple(product) == from_sympy(QQ, sa * sb)
        sq, sr = sa.div(sb)
        assert tuple(q) == from_sympy(QQ, sq) and tuple(r) == from_sympy(QQ, sr)


def test_horner_is_unreduced(field, prng):
    """horner(a, x) is the exact value: over F_p the integer value of the
    int coefficients at an int x outside 0..p-1, against sympy over ZZ."""
    for _ in range(CASES):
        g = random_poly(prng, field, 9)
        if field is QQ:
            point = Fraction(prng.randint(-9, 9), prng.randint(1, 5))
            value = to_sympy(g).eval(sympy.Rational(point.numerator, point.denominator))
            assert polys.horner(g.coeffs, point) == Fraction(int(value.p), int(value.q))
        else:
            point = prng.randrange(-field.p, 2 * field.p)
            value = sympy.Poly(list(reversed(g.coeffs)) or [0], X, domain="ZZ").eval(point)
            assert polys.horner(g.coeffs, point) == int(value)


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
        assert same(field, polys.derivative(g.coeffs, field), sg.diff(X))
        if not g.is_zero:
            assert same(field, polys.scale(g.coeffs, field.inv(g.lc()), field), sg.monic())


def test_parse_poly_rejects_a_term_above_the_bound():
    """The bound is checked per term, before the dense list is built: at
    x^100000000 that list would hold 10^8 + 1 coefficients."""
    F = PrimeField(13)
    assert polys.parse_poly("x^2 - 3*x + 5", F, max_degree=2) == Poly(F, [5, -3, 1])
    with pytest.raises(ValueError, match="degree above 2"):
        polys.parse_poly("x^100000000", F, max_degree=2)
