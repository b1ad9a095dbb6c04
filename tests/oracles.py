"""Independent oracles for the test suite.

Everything here recomputes target values through a route disjoint from
the library implementation: floating sines via mpmath, cyclotomic
arithmetic as dense polynomials over Q (the route the integer kernel in
thetalab.exact replaced), Jacobian orders via point counts over F_p and
F_{p^2} fed into the zeta functional equation, every reduced pair over F_p
by a p^4 scan of candidate (u, v), the points over F_p by
Tonelli-Shanks at every x, the two-torsion as the 16 sums of
Cantor additions of Weierstrass points, divisor-class addition via
CRT interpolation plus a single explicit reduction, Cantor composition
with both gcds from xgcd and the full numerator, multiples by binary
double-and-add over it, and principality of split degree-4 divisors via
the fibre-pairing criterion.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import mpmath

from thetalab import hyperelliptic as hy
from thetalab.fields import QQ, PrimeField
from thetalab.polys import Poly


# Dense Poly arithmetic for the oracles.  The library's Poly has no
# arithmetic, and its kernel (thetalab.polys) runs on coefficient lists and
# divides only by monic polynomials; these functions share no code with it.
# Each result is a Poly, normalised by its constructor.

def plus(a: Poly, b: Poly) -> Poly:
    """a + b, coefficient by coefficient."""
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(a.field, [a[i] + b[i] for i in range(n)])


def minus(a: Poly, b: Poly) -> Poly:
    """a - b, coefficient by coefficient."""
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(a.field, [a[i] - b[i] for i in range(n)])


def neg(a: Poly) -> Poly:
    return Poly(a.field, [-c for c in a.coeffs])


def times(a: Poly, b: Poly) -> Poly:
    """a * b, schoolbook."""
    F = a.field
    if a.is_zero or b.is_zero:
        return Poly(F, ())
    out = [F.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(F, out)


def div_mod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by any nonzero b, by long division."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    F = a.field
    rest = list(a.coeffs)
    dq = len(rest) - len(b.coeffs)
    if dq < 0:
        return Poly(F, ()), a
    out = [F.zero] * (dq + 1)
    inv_lc = F.inv(b.lc())
    for k in range(dq, -1, -1):
        c = F(rest[k + b.degree] * inv_lc)
        out[k] = c
        if c:
            for i, bc in enumerate(b.coeffs):
                rest[k + i] -= c * bc
    return Poly(F, out), Poly(F, rest)


def quo(a: Poly, b: Poly) -> Poly:
    """The quotient of a by b."""
    return div_mod(a, b)[0]


def rem(a: Poly, b: Poly) -> Poly:
    """The remainder of a by b."""
    return div_mod(a, b)[1]


def monic(a: Poly) -> Poly:
    if a.is_zero:
        return a
    return times(a, Poly(a.field, (a.field.inv(a.lc()),)))


def ref_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid on any a and b: (g, s, t) with g = s*a + t*b and g
    monic, dividing by each remainder as it stands."""
    F = a.field
    one, zero = Poly(F, (F.one,)), Poly(F, ())
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        q, r = div_mod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, minus(s0, times(q, s1))
        t0, t1 = t1, minus(t0, times(q, t1))
    if r0.is_zero:
        return r0, s0, t0
    scale = Poly(F, (F.inv(r0.lc()),))
    return times(r0, scale), times(s0, scale), times(t0, scale)


def mp_sin(k: int, m: int):
    """sin(k*pi/m) at 200-bit precision."""
    with mpmath.workprec(200):
        return mpmath.sin(mpmath.pi * k / m)


@lru_cache(maxsize=None)
def ref_cyclotomic_polynomial(n: int) -> Poly:
    """Phi_n over Q as (x^n - 1) / prod of Phi_d over proper divisors d."""
    num = Poly(QQ, [-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = quo(num, ref_cyclotomic_polynomial(d))
    return num


# Reference cyclotomic arithmetic: an element of Q(zeta_N) is the tuple of
# its phi(N) power-basis coefficients (Fractions), computed with Poly over
# Q: x^k % Phi_N, x -> x^(M/N) for embeddings, xgcd for inverses.

def _ref_mod(n: int, poly: Poly) -> tuple:
    phi_n = ref_cyclotomic_polynomial(n)
    cs = rem(poly, phi_n).coeffs
    return cs + (Fraction(0),) * (phi_n.degree - len(cs))


def ref_zeta(n: int, k: int) -> tuple:
    return _ref_mod(n, Poly(QQ, [0] * (k % n) + [1]))


def ref_promote(n: int, a, m: int) -> tuple:
    step = m // n
    spread = [0] * (step * len(a))
    spread[::step] = a
    return _ref_mod(m, Poly(QQ, spread))


def ref_add(n: int, a, m: int, b) -> tuple:
    common = lcm(n, m)
    pa, pb = ref_promote(n, a, common), ref_promote(m, b, common)
    return _ref_mod(common, Poly(QQ, [x + y for x, y in zip(pa, pb)]))


def ref_mul(n: int, a, b) -> tuple:
    return _ref_mod(n, times(Poly(QQ, a), Poly(QQ, b)))


def ref_inverse(n: int, a) -> tuple:
    g, s, _ = ref_xgcd(Poly(QQ, a), ref_cyclotomic_polynomial(n))
    if g.degree != 0:
        raise ZeroDivisionError("not invertible")
    return _ref_mod(n, s)


@lru_cache(maxsize=None)
def _ref_inverse_two_i(n: int) -> tuple:
    return ref_inverse(n, [2 * c for c in ref_zeta(n, n // 4)])


def ref_sin(k: int, m: int) -> tuple:
    """sin(k*pi/m) in Q(zeta_N), N = lcm(2m, 4), as (e^(it) - e^(-it)) / 2i."""
    n = lcm(2 * m, 4)
    a = n // (2 * m)
    diff = minus(Poly(QQ, ref_zeta(n, a * k)), Poly(QQ, ref_zeta(n, -a * k)))
    return ref_mul(n, diff.coeffs, _ref_inverse_two_i(n))


def _eval_poly_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def count_points_fp(p: int, f_coeffs) -> int:
    """Points of y^2 = f(x) over F_p, including the point at infinity."""
    count = 1
    for x in range(p):
        z = _eval_poly_mod(f_coeffs, x, p)
        if z == 0:
            count += 1
        elif pow(z, (p - 1) // 2, p) == 1:
            count += 2
    return count


def _nonresidue(p: int) -> int:
    for t in range(2, p):
        if pow(t, (p - 1) // 2, p) == p - 1:
            return t
    raise ValueError("no nonresidue found")


def count_points_fp2(p: int, f_coeffs) -> int:
    """Points of y^2 = f(x) over F_{p^2}, including infinity.

    F_{p^2} is realized as F_p[s]/(s^2 - t) for a quadratic nonresidue t;
    squareness is tested by z^((p^2-1)/2) = 1.
    """
    t = _nonresidue(p)

    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[1] * t) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    def power(z, n):
        acc = (1, 0)
        while n:
            if n & 1:
                acc = mul(acc, z)
            z = mul(z, z)
            n >>= 1
        return acc

    half = (p * p - 1) // 2
    count = 1
    for a in range(p):
        for b in range(p):
            x = (a, b)
            z = (0, 0)
            for c in reversed(f_coeffs):
                z = mul(z, x)
                z = ((z[0] + c) % p, z[1])
            if z == (0, 0):
                count += 1
            elif power(z, half) == (1, 0):
                count += 2
    return count


def jacobian_order(p: int, f_coeffs) -> int:
    """|Pic^0| from the two point counts via the zeta functional equation."""
    n1 = count_points_fp(p, f_coeffs)
    n2 = count_points_fp2(p, f_coeffs)
    p1 = p + 1 - n1
    p2 = p * p + 1 - n2
    e1 = p1
    e2 = (p1 * p1 - p2) // 2
    return 1 - e1 + e2 - p * e1 + p * p


def _trim(*coeffs) -> tuple:
    """Low-to-high coefficients without trailing zeros, as Poly stores them."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def ref_all_reduced(p: int, f_coeffs) -> tuple:
    """Every reduced Mumford pair of y^2 = f(x) over F_p as (u, v) int
    coefficient tuples, low to high, in enumerate's order.

    A p^4 scan: every (v0, v1) is tried against every monic quadratic u,
    with f mod u from Poly's long division; degree-1 pairs come from
    trying every y at every x.
    """
    F = PrimeField(p)
    f = Poly(F, f_coeffs)
    found = [((1,), ())]
    for x0 in range(p):
        z = _eval_poly_mod(f_coeffs, x0, p)
        for y in range(p):
            if (y * y - z) % p == 0:
                found.append((((-x0) % p, 1), _trim(y)))
    for u1 in range(p):
        for u0 in range(p):
            r = rem(f, Poly(F, (u0, u1, 1)))
            r1, r0 = r[1], r[0]
            for v1 in range(p):
                a = (2 * v1) % p
                c1 = (v1 * v1 * u1) % p
                c0 = (v1 * v1 * u0) % p
                for v0 in range(p):
                    # v^2 mod u has linear coefficient 2 v0 v1 - v1^2 u1
                    # and constant v0^2 - v1^2 u0
                    if (a * v0 - c1 - r1) % p == 0 and (v0 * v0 - c0 - r0) % p == 0:
                        found.append(((u0, u1, 1), _trim(v0, v1)))
    return tuple(sorted(found, key=lambda uv: (len(uv[0]), uv)))


def point_key(p):
    """A sort key for curve points: finite points by (x, y), infinity last."""
    return (1, 0, 0) if p.at_infinity else (0, p.x, p.y)


def ref_curve_points(curve):
    """All points over a small prime field, infinity last: f(x) by Poly
    evaluation, y by Tonelli-Shanks, each point through CurvePoint's check."""
    F = hy._enumeration_field(curve)
    points = []
    for x in range(F.p):
        z = curve.f(x)
        y = F.sqrt(z)
        if y is None:
            continue
        points.append(curve.point(x, y))
        if y != 0:
            points.append(curve.point(x, -y))
    points.sort(key=point_key)
    return points + [curve.infinity()]


def ref_two_torsion(curve):
    """All 16 classes killed by doubling, generated by differences of
    Weierstrass points: 32 Cantor additions and a set dedupe."""
    ws = hy.weierstrass_points(curve)
    generators = [hy.MumfordDivisor.from_point(w) for w in ws[:4]]
    classes = []
    for mask in range(16):
        acc = hy.MumfordDivisor.zero(curve)
        for bit, gen in enumerate(generators):
            if mask >> bit & 1:
                acc = hy.cantor_add(curve, acc, gen)
        classes.append(hy.PicClass(acc, 0))
    unique = sorted(set(classes), key=hy.PicClass._key)
    if len(unique) != 16:
        raise hy.InvariantViolated("Weierstrass differences generated fewer than 16 classes")
    return unique


def chord_add(curve, a, b):
    """Class addition by CRT interpolation, for coprime degree-2 u's.

    The interpolating V with V = v_i mod u_i realizes the composed
    semi-reduced pair (u_a*u_b, V); one reduction step with the curve
    equation lands on the reduced representative.  Returns None when the
    inputs are not in general position.
    """
    if a.u.degree != 2 or b.u.degree != 2:
        return None
    g, s, t = ref_xgcd(a.u, b.u)
    if g.degree != 0:
        return None
    big_u = times(a.u, b.u)
    v = rem(plus(times(times(a.v, t), b.u), times(times(b.v, s), a.u)), big_u)
    u3 = monic(quo(minus(curve.f, times(v, v)), big_u))
    v3 = rem(neg(v), u3)
    return (u3, v3)


def ref_cantor_add(curve, a, b):
    """Cantor composition in its general form: both gcds from xgcd, every
    term of the numerator, then reduction to deg u <= 2."""
    f = curve.f
    g1, s1, t1 = ref_xgcd(a.u, b.u)
    g, s2, t2 = ref_xgcd(g1, plus(a.v, b.v))
    u3 = quo(times(a.u, b.u), times(g, g))
    num = plus(plus(times(times(s2, s1), times(a.u, b.v)), times(times(s2, t1), times(b.u, a.v))),
               times(t2, plus(times(a.v, b.v), f)))
    v3 = rem(quo(num, g), u3)
    u, v = u3, v3
    while u.degree > 2:
        u_next = monic(quo(minus(f, times(v, v)), u))
        v_next = rem(neg(v), u_next)
        u, v = u_next, v_next
    return hy.MumfordDivisor(curve, u, v)


def ref_scalar_mul(curve, a, n):
    """n*a by right-to-left binary double-and-add over ref_cantor_add."""
    if n < 0:
        a, n = hy.MumfordDivisor(curve, a.u, neg(a.v)), -n
    acc, base = hy.MumfordDivisor.zero(curve), a
    while n:
        if n & 1:
            acc = ref_cantor_add(curve, acc, base)
        n >>= 1
        if n:
            base = ref_cantor_add(curve, base, base)
    return acc


def is_fibre_union(points) -> bool:
    """Whether a multiset of affine points is a union of full x-fibres.

    A fibre through x0 is {(x0, y0), (x0, -y0)} for y0 != 0 and the
    doubled point 2*(x0, 0) at a Weierstrass x0.  An effective affine
    divisor of degree <= 4 on a quintic model is principal relative to
    infinity exactly when it is such a union, since any function with
    poles only at infinity and degree <= 4 there is a polynomial in x.
    """
    points = list(points)
    if not points:
        return True
    field = points[0].curve.field
    bag: dict[tuple, int] = {}
    for q in points:
        key = (q.x, q.y)
        bag[key] = bag.get(key, 0) + 1
    while bag:
        (x, y), mult = next(iter(bag.items()))
        if y == field.zero:
            if mult % 2 != 0:
                return False
            del bag[(x, y)]
            continue
        partner = (x, field(-y))
        if bag.get(partner, 0) < mult:
            return False
        del bag[(x, y)]
        if bag[partner] == mult:
            del bag[partner]
        else:
            bag[partner] -= mult
    return True


def classes_equal(curve, pair_a, pair_b) -> bool:
    """Whether [P1+P2-2*inf] = [Q1+Q2-2*inf] for affine points, by the
    fibre-pairing principality criterion applied to P1+P2+iQ1+iQ2."""
    from thetalab.hyperelliptic import involution

    p1, p2 = pair_a
    q1, q2 = pair_b
    return is_fibre_union([p1, p2, involution(q1), involution(q2)])
