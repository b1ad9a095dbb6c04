"""Genus-2 hyperelliptic curves y^2 = f(x) and their Jacobians.

The model is a monic squarefree quintic over Q or an odd prime field, so
there is a single point at infinity, it is a Weierstrass point, and the
canonical class is 2*[infinity].  Divisor classes of any degree are
stored as a reduced Mumford pair plus a degree shift: the class is
[div(u, v)] - deg(u)*[infinity] + degree*[infinity].  Reduced pairs are
unique per class, so equality, hashing, and printing are canonical.

Cantor composition and reduction implement the group law; Riemann-Roch
dimensions and translate intersections are derived from it, and Serre
duality is K - L by the group law.  The two-torsion is written down in
closed form instead: its 16 classes have v = 0 and u a product of at
most two factors x - e of f.

The roots e of f are the Weierstrass points.  Over F_p one root finder on
int coefficient lists mod p finds them: gcd(f, x^p - x), then splitting by
gcd(g, (x + a)^((p-1)/2) - 1) (Cohen, GTM 138, sec. 1.6).  Over Q the same
finder gives the roots mod a small prime, which are Hensel-lifted.  Each
root is checked f(e) = 0, and the Weierstrass points and the 16 classes
of J[2] are then built through the slots, with no Poly arithmetic.

Over F_p with p <= ENUMERATION_FIELD_BOUND, every reduced pair is listed
(Cantor, Math. Comp. 48, 1987; Cassels-Flynn, LMS LN 230, ch. 3) by
solving v^2 = f (mod u) on each monic u of degree <= 2: for
v = v1*x + v0 with v1 != 0, s = v1^2 is a root of one quadratic
D s^2 + B s + r1^2 in the coefficients of u and of f mod u, so each u
costs one square-root lookup and the whole list O(p^2) int work.  Each
pair is checked in ints as it is found, and the list is cached per curve
as two arrays of 2-byte indices into one table per field of every u and
v a pair can hold: 4 bytes per pair.  The MumfordDivisor and PicClass
objects are built on each call.  The tables for all odd p <= 37 take
about 1.1 MB.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from itertools import combinations, count
from math import lcm

from .errors import ThetaLabError
from .fields import PrimeField, RationalField, field_from_spec, is_prime, parse_rational
from .polys import Poly, gcd as poly_gcd, parse_poly, xgcd
from .value import Value

ENUMERATION_FIELD_BOUND = 37


class NotSquarefree(ThetaLabError):
    """The quintic has a repeated root."""


class EvenCharacteristic(ThetaLabError):
    """y^2 = f(x) needs characteristic different from 2."""


class DoesNotSplit(ThetaLabError):
    """A polynomial fails to split into linear factors over the base field."""


class WrongDegree(ThetaLabError):
    """A divisor class of the wrong degree was supplied."""


class OrderTwo(ThetaLabError):
    """The translating class has order dividing 2, a degenerate case."""


class FieldTooLarge(ThetaLabError):
    """Exhaustive enumeration is limited to small prime fields."""


class InvariantViolated(ThetaLabError):
    """A result failed the check that must hold by construction."""


class HyperellipticCurve(Value):
    __slots__ = ("f",)

    @property
    def field(self) -> RationalField | PrimeField:
        return self.f.field

    def __init__(self, f: Poly) -> None:
        super().__init__(f)
        if self.field.characteristic == 2:
            raise EvenCharacteristic("the base field has characteristic 2")
        if self.f.degree != 5 or self.f.lc() != self.field.one:
            raise ValueError("f must be a monic quintic")
        fprime = self.f.derivative()
        if fprime.is_zero or poly_gcd(self.f, fprime).degree != 0:
            raise NotSquarefree("f has a repeated root")

    def point(self, x, y) -> CurvePoint:
        return CurvePoint(self, self.field(x), self.field(y))

    def infinity(self) -> CurvePoint:
        return CurvePoint(self, None, None, True)

    def __str__(self) -> str:
        coeffs = ",".join(str(c) for c in (list(self.f.coeffs[:5]) + [0, 0, 0, 0, 0])[:5])
        return f"field={self.field}; f={coeffs}"


class CurvePoint(Value):
    __slots__ = ("curve", "x", "y", "at_infinity")

    def __init__(self, curve: HyperellipticCurve, x=None, y=None, at_infinity: bool = False) -> None:
        super().__init__(curve, x, y, at_infinity)
        if not self.at_infinity:
            if self.curve.field(self.y * self.y) != self.curve.f(self.x):
                raise ValueError(f"({self.x}, {self.y}) is not on the curve")

    def __str__(self) -> str:
        if self.at_infinity:
            return "infinity"
        return f"({self.x}, {self.y})"


def new_curve(field, f_coeffs) -> HyperellipticCurve:
    """Build and validate a curve from low-order coefficients c0..c4 of a
    monic quintic (a sixth coefficient, if given, must equal 1)."""
    F = field_from_spec(field)
    coeffs = list(f_coeffs)
    if len(coeffs) == 6:
        if F(coeffs[5]) != F.one:
            raise ValueError("f must be monic")
        coeffs = coeffs[:5]
    if len(coeffs) != 5:
        raise ValueError("expected 5 coefficients c0..c4")
    return HyperellipticCurve(Poly(F, coeffs + [1]))


def parse_curve(text: str) -> HyperellipticCurve:
    """Parse 'field=Q; f=c0,c1,c2,c3,c4' or 'field=Fp:<p>; f=...'."""
    parts = _key_value_parts(text)
    if set(parts) != {"field", "f"}:
        raise ValueError(f"curve spec needs 'field' and 'f': {text!r}")
    coeffs = [parse_rational(c.strip()) for c in parts["f"].split(",")]
    return new_curve(parts["field"], coeffs)


def involution(p: CurvePoint) -> CurvePoint:
    """The hyperelliptic involution (x, y) -> (x, -y)."""
    if p.at_infinity:
        return p
    return CurvePoint(p.curve, p.x, p.curve.field(-p.y))


# Polynomials over F_p as int lists mod p, low to high, with no trailing
# zeros; the zero polynomial is [].

def _fp_trim(coeffs, p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return _fp_trim([x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))], p)


def _fp_divmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic m."""
    dm = len(m) - 1
    rem = list(a)
    quo = [0] * max(len(rem) - dm, 0)
    for k in range(len(rem) - 1 - dm, -1, -1):
        c = rem[k + dm] % p
        quo[k] = c
        if c:
            for i in range(dm):
                rem[k + i] -= c * m[i]
    return quo, _fp_trim(rem[:dm], p)


def _fp_linear_pow(a: int, n: int, m: list[int], p: int) -> list[int]:
    """(x + a)^n mod a monic m of degree >= 2, n >= 1, left to right:
    square, then multiply by x + a as a shift and a scaling."""
    acc = [a % p, 1]
    for bit in bin(n)[3:]:
        sq = [0] * (2 * len(acc) - 1)
        for i, ci in enumerate(acc):
            for j, cj in enumerate(acc):
                sq[i + j] += ci * cj
        acc = _fp_divmod(sq, m, p)[1]
        if bit == "1":
            acc = _fp_divmod([x + a * y for x, y in zip([0] + acc, acc + [0])], m, p)[1]
    return acc


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """gcd of a monic a and any b, monic."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = [c * inv % p for c in b], a
        b = _fp_divmod(b, a, p)[1]
    return a


def _fp_roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a monic f of degree >= 2, ascending
    (Cohen, GTM 138, sec. 1.6).  g = gcd(f, x^p - x), with x^p mod f by
    square and multiply, is the product of the x - r.  A g of degree > 1 is
    split by h = gcd(g, (x + a)^((p-1)/2) - 1), the product of the x - r
    with r + a a nonzero square, for a = 0, 1, 2, ...  Some a in F_p splits
    any two roots when p is odd, and an a that left g whole leaves its
    factors whole, so h and g/h go on from the next a."""
    x = [0, 1]
    roots, todo = [], [(_fp_gcd(f, _fp_sub(_fp_linear_pow(0, p, f, p), x, p), p), 0)]
    while todo:
        g, start = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            for a in count(start):
                h = _fp_gcd(g, _fp_sub(_fp_linear_pow(a, (p - 1) // 2, g, p), [1], p), p)
                if 2 <= len(h) < len(g):
                    todo += [(h, a + 1), (_fp_divmod(g, h, p)[0], a + 1)]
                    break
    return sorted(roots)


def _rational_roots(g: Poly) -> list[Fraction]:
    """The rational roots of a monic squarefree polynomial over Q.

    With D the lcm of the coefficient denominators, x = y/D turns g into
    the monic integer G(y) = D^n g(y/D), whose rational roots are integers
    of absolute value at most 1 + max|G_i| (Cauchy).  Each is a simple root
    of G mod the first odd prime l that leaves G squarefree, lifted by
    Newton's iteration until l^k exceeds twice that bound, and kept if
    G(y) = 0 exactly (Cohen, GTM 138, sec. 3.5).  No factoring of the
    coefficients, so the cost is polynomial in their size.
    """
    n = g.degree
    denom = lcm(*[c.denominator for c in g.coeffs])
    G = [c.numerator * (denom // c.denominator) * denom ** (n - 1 - i)
         for i, c in enumerate(g.coeffs[:n])] + [1]
    dG = [i * c for i, c in enumerate(G)][1:]
    bound = 1 + max(abs(c) for c in G[:n])

    def value(coeffs, y):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * y + c
        return acc

    ell = 3
    while len(_fp_gcd(_fp_trim(G, ell), _fp_trim(dG, ell), ell)) != 1:
        ell = next(q for q in count(ell + 2, 2) if is_prime(q))
    roots = []
    for r in _fp_roots(_fp_trim(G, ell), ell):
        y, m = r, ell
        while m <= 2 * bound:
            m *= m
            y = (y - value(G, y) * pow(value(dG, y), -1, m)) % m
        if y > m // 2:
            y -= m
        if value(G, y) == 0:
            roots.append(Fraction(y, denom))
    return roots


def weierstrass_points(curve: HyperellipticCurve) -> list[CurvePoint]:
    """The five roots of f with y = 0, plus the point at infinity."""
    F, f = curve.field, curve.f
    if isinstance(F, PrimeField):
        roots = _fp_roots(list(f.coeffs), F.p)
        if len(roots) != 5:
            raise DoesNotSplit("f does not split over the base field")
    else:
        roots = sorted(_rational_roots(f))
        if len(roots) != 5:
            raise DoesNotSplit("f does not split over Q")
    points = []
    for e in roots:
        if f(e):
            raise InvariantViolated(f"{e} is not a root of f")
        points.append(CurvePoint.from_checked(curve, e, F.zero, False))
    return points + [curve.infinity()]


class MumfordDivisor(Value):
    __slots__ = ("curve", "u", "v")

    def __init__(self, curve: HyperellipticCurve, u: Poly, v: Poly) -> None:
        super().__init__(curve, u, v)
        F = self.curve.field
        if self.u.is_zero or self.u.lc() != F.one:
            raise ValueError("u must be monic")
        if self.u.degree > 2:
            raise ValueError("reduced pairs have deg u <= 2")
        if not self.v.is_zero and self.v.degree >= self.u.degree:
            raise ValueError("deg v must be smaller than deg u")
        if not self.u.divides(self.v * self.v - self.curve.f):
            raise ValueError("u does not divide v^2 - f")

    @classmethod
    def zero(cls, curve: HyperellipticCurve) -> MumfordDivisor:
        F = curve.field
        return cls(curve, Poly(F, (F.one,)), Poly(F, ()))

    @classmethod
    def from_point(cls, p: CurvePoint) -> MumfordDivisor:
        """The class [p] - [infinity]."""
        if p.at_infinity:
            return cls.zero(p.curve)
        F = p.curve.field
        return cls(p.curve, Poly(F, (-p.x, 1)), Poly(F, (p.y,)))

    @property
    def is_zero(self) -> bool:
        return self.u.degree == 0

    def points(self) -> list[CurvePoint]:
        """The effective support over the base field; DoesNotSplit when u
        is an irreducible quadratic."""
        F = self.curve.field
        if self.u.degree == 0:
            return []
        if self.u.degree == 1:
            x0 = F(-self.u[0])
            return [self.curve.point(x0, self.v(x0))]
        u0, u1 = self.u[0], self.u[1]
        root = F.sqrt(u1 * u1 - 4 * u0)
        if root is None:
            raise DoesNotSplit(f"u = {self.u} is irreducible")
        half = F.inv(F(2))
        xs = sorted((F((root - u1) * half), F((-u1 - root) * half)))
        return [self.curve.point(x0, self.v(x0)) for x0 in xs]

    def _key(self):
        return (self.u.degree, self.u.coeffs, self.v.coeffs)

    def __str__(self) -> str:
        return f"u={self.u}; v={self.v}"


def negate(curve: HyperellipticCurve, a: MumfordDivisor) -> MumfordDivisor:
    return MumfordDivisor(curve, a.u, -a.v)


def cantor_add(curve: HyperellipticCurve, a: MumfordDivisor, b: MumfordDivisor) -> MumfordDivisor:
    """Cantor composition followed by reduction to deg u <= 2."""
    f = curve.f
    g1, s1, t1 = xgcd(a.u, b.u)
    g, s2, t2 = xgcd(g1, a.v + b.v)
    u3 = (a.u * b.u) // (g * g)
    num = s2 * s1 * a.u * b.v + s2 * t1 * b.u * a.v + t2 * (a.v * b.v + f)
    v3 = (num // g) % u3
    u, v = u3, v3
    while u.degree > 2:
        u_next = ((f - v * v) // u).monic()
        v_next = (-v) % u_next
        u, v = u_next, v_next
    return MumfordDivisor(curve, u, v)


def scalar_mul(curve: HyperellipticCurve, a: MumfordDivisor, n: int) -> MumfordDivisor:
    if n < 0:
        return scalar_mul(curve, negate(curve, a), -n)
    acc, base = None, a
    while n:
        if n & 1:
            acc = base if acc is None else cantor_add(curve, acc, base)
        n >>= 1
        if n:
            base = cantor_add(curve, base, base)
    return MumfordDivisor.zero(curve) if acc is None else acc


class PicClass(Value):
    __slots__ = ("base", "degree")

    @property
    def curve(self) -> HyperellipticCurve:
        return self.base.curve

    def __add__(self, other: PicClass) -> PicClass:
        if not isinstance(other, PicClass):
            return NotImplemented
        return PicClass(cantor_add(self.curve, self.base, other.base),
                        self.degree + other.degree)

    def __neg__(self) -> PicClass:
        return PicClass(negate(self.curve, self.base), -self.degree)

    def __sub__(self, other: PicClass) -> PicClass:
        return self + (-other)

    def __mul__(self, n: int) -> PicClass:
        if not isinstance(n, int):
            return NotImplemented
        return PicClass(scalar_mul(self.curve, self.base, n), self.degree * n)

    __rmul__ = __mul__

    def _key(self):
        return (self.degree,) + self.base._key()

    def __str__(self) -> str:
        return f"{self.base}; d={self.degree}"


def point_class(p: CurvePoint) -> PicClass:
    """The degree-1 class of a single point."""
    return PicClass(MumfordDivisor.from_point(p), 1)


def reduce_class(curve: HyperellipticCurve, points) -> PicClass:
    """Canonical form of a formal sum of points, given as an iterable of
    (CurvePoint, multiplicity) pairs."""
    total = None
    degree = 0
    for point, mult in points:
        degree += mult
        if point.at_infinity:
            continue
        piece = scalar_mul(curve, MumfordDivisor.from_point(point), mult)
        total = piece if total is None else cantor_add(curve, total, piece)
    return PicClass(MumfordDivisor.zero(curve) if total is None else total, degree)


def canonical_class(curve: HyperellipticCurve) -> PicClass:
    """K = 2*[infinity] for the quintic model."""
    return PicClass(MumfordDivisor.zero(curve), 2)


def h0(curve: HyperellipticCurve, d: PicClass) -> int:
    """Genus-2 closed form for the dimension of global sections.

    Degree 0 detects triviality, degree 1 effectivity (the reduced base
    must not need two affine points), degree 2 is 2 for the canonical
    class and 1 otherwise (every degree-2 class is effective), and from
    degree 3 on Riemann-Roch gives d - 1 outright.
    """
    deg = d.degree
    if deg < 0:
        return 0
    if deg == 0:
        return 1 if d.base.is_zero else 0
    if deg == 1:
        return 1 if d.base.u.degree <= 1 else 0
    if deg == 2:
        return 2 if d.base.is_zero else 1
    return deg - 1


def km2_points(curve: HyperellipticCurve, M: PicClass) -> tuple[CurvePoint, CurvePoint]:
    """The unique effective pair (q1, q2) with [q1 + q2] = K + 2M.

    Requires 2M nonzero; when 2M = 0 the class is canonical and moves in
    a pencil, so no unique pair exists (OrderTwo).  When the pair is a
    conjugate pair over a quadratic extension, DoesNotSplit is raised.
    """
    if M.degree != 0:
        raise WrongDegree(f"expected degree 0, got {M.degree}")
    double = scalar_mul(curve, M.base, 2)
    if double.u.degree == 0:
        raise OrderTwo("K + 2M is the canonical class")
    pts = double.points() + [curve.infinity()]
    q1, q2 = pts[0], pts[1]
    if reduce_class(curve, ((q1, 1), (q2, 1))) != PicClass(double, 2):
        raise InvariantViolated("effective pair does not reduce to K + 2M")
    return q1, q2


def theta_translate_intersection(curve: HyperellipticCurve, M: PicClass) -> tuple[PicClass, PicClass]:
    """The two degree-1 classes on both translates of the theta divisor
    by M and by -M; they are exchanged by Serre duality L -> K - L."""
    q1, q2 = km2_points(curve, M)
    first = M + point_class(involution(q1))
    second = M + point_class(involution(q2))
    ordered = sorted((first, second), key=PicClass._key)
    return (ordered[0], ordered[1])


def two_torsion(curve: HyperellipticCurve) -> list[PicClass]:
    """All 16 classes killed by doubling, in closed form.

    2[(e, 0)] = 2[infinity] at every finite Weierstrass point, so J[2] is
    the sums of at most two of them: v = 0 and u a product of at most two
    distinct factors x - e of f (Mumford, Tata Lectures on Theta II,
    ch. IIIa).  No Cantor addition is needed.  Each root is checked
    f(e) = 0, so every such u divides v^2 - f = -f, and the pairs are built
    through the slots.
    """
    F, f = curve.field, curve.f
    roots = [w.x for w in weierstrass_points(curve) if not w.at_infinity]
    if len(set(roots)) != 5:
        raise InvariantViolated("f does not have five distinct Weierstrass roots")
    if any(f(e) for e in roots):
        raise ValueError("u does not divide v^2 - f")
    one = F.one
    us = [(one,)] + [(F(-e), one) for e in roots]
    us += [(F(e1 * e2), F(-e1 - e2), one) for e1, e2 in combinations(roots, 2)]
    if len(set(us)) != 16:
        raise InvariantViolated("Weierstrass roots gave fewer than 16 two-torsion classes")
    us.sort(key=lambda u: (len(u), u))  # PicClass._key order
    zero = Poly(F, ())
    return [PicClass(MumfordDivisor.from_checked(curve, Poly.from_checked(F, u), zero), 0)
            for u in us]


def curve_points(curve: HyperellipticCurve) -> list[CurvePoint]:
    """All points over a small prime field, in (x, y) order, infinity last.

    y runs over the square roots of f(x) in the field's root table; each
    point is checked y^2 = f(x) in ints and built through the slots."""
    p = _enumeration_field(curve).p
    roots = _square_roots(p)
    new = object.__new__
    set_curve, set_x = CurvePoint.curve.__set__, CurvePoint.x.__set__
    set_y, set_inf = CurvePoint.y.__set__, CurvePoint.at_infinity.__set__
    points = []
    for x, z in enumerate(_f_values(curve.f, p)):
        for y in roots[z]:
            if (y * y - z) % p:
                raise InvariantViolated(f"({x}, {y}) is not on the curve")
            point = new(CurvePoint)
            set_curve(point, curve)
            set_x(point, x)
            set_y(point, y)
            set_inf(point, False)
            points.append(point)
    points.append(curve.infinity())
    return points


def _enumeration_field(curve: HyperellipticCurve) -> PrimeField:
    F = curve.field
    if not isinstance(F, PrimeField) or F.p > ENUMERATION_FIELD_BOUND:
        raise FieldTooLarge(
            f"enumeration needs a prime field with p <= {ENUMERATION_FIELD_BOUND}"
        )
    return F


# Only reached after _enumeration_field, so each of these caches holds at
# most one entry per odd p <= ENUMERATION_FIELD_BOUND.
@cache
def _square_roots(p: int) -> tuple[tuple[int, ...], ...]:
    """roots[z] is the ascending tuple of the y in F_p with y^2 = z."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return tuple(tuple(ys) for ys in roots)


def _f_values(f: Poly, p: int) -> list[int]:
    """f(x) for x = 0..p-1, by Horner on the monic quintic's int coefficients."""
    c0, c1, c2, c3, c4 = f.coeffs[:5]
    return [(((((x + c4) * x + c3) * x + c2) * x + c1) * x + c0) % p for x in range(p)]


@cache
def _poly_table(p: int) -> tuple[Poly, ...]:
    """Every u and v a reduced pair over F_p can hold, by index:
    v0 + v1*x at p*v0 + v1 (below p^2), then the monic u: 1 at p^2,
    x + u0 at p^2 + 1 + u0 and x^2 + u1*x + u0 at p^2 + p + 1 + p*u0 + u1.
    Within each degree, index order is MumfordDivisor._key order."""
    F = PrimeField(p)
    vs = [Poly(F, (v0, v1)) for v0 in range(p) for v1 in range(p)]
    us = [Poly(F, (1,))] + [Poly(F, (u0, 1)) for u0 in range(p)]
    us += [Poly(F, (u0, u1, 1)) for u0 in range(p) for u1 in range(p)]
    return tuple(vs + us)


@cache
def _all_reduced(curve: HyperellipticCurve) -> tuple[array, array]:
    """Every reduced Mumford pair over a small prime field, cached per curve
    as two arrays of _poly_table indices (u, v), in MumfordDivisor._key order.

    v is solved for.  u = 1 has v = 0, and u = x - x0 has v = y for each
    square root y of f(x0).  A monic quadratic u with f = r1*x + r0 (mod u)
    has v^2 = (2 v0 v1 - s u1)*x + (v0^2 - s u0) (mod u), s = v1^2.  With
    v1 = 0 that needs r1 = 0 and v0^2 = r0.  With v1 != 0 it needs
    v0 = (r1 + s u1) / (2 v1) and, substituted, D s^2 + B s + r1^2 = 0
    with D = u1^2 - 4 u0, B = 2 r1 u1 - 4 r0: one root-table lookup per u,
    so O(p^2) int work.  D = B = r1 = 0 would mean (x - a)^2 | f.  Every
    pair found is checked by both congruences in ints.
    """
    p = _enumeration_field(curve).p
    roots = _square_roots(p)
    inv = [0] + [pow(a, -1, p) for a in range(1, p)]
    c0, c1, c2, c3, c4 = curve.f.coeffs[:5]
    values = _f_values(curve.f, p)
    us, vs = array("H", [p * p]), array("H", [0])
    base = p * p + 1
    for u0 in range(p):
        x0 = -u0 % p
        z = values[x0]
        for y in roots[z]:
            if (y * y - z) % p:
                raise InvariantViolated(f"v = {y} does not solve v^2 = f({x0})")
            us.append(base + u0)
            vs.append(p * y)
    base += p
    for u0 in range(p):
        for u1 in range(p):
            # f mod u = r1*x + r0, by Horner with x^2 = -u1*x - u0; the first
            # line is the step from (r1, r0) = (1, c4) to c3
            r1, r0 = c4 - u1, c3 - u0
            r1, r0 = (r0 - r1 * u1) % p, (c2 - r1 * u0) % p
            r1, r0 = (r0 - r1 * u1) % p, (c1 - r1 * u0) % p
            r1, r0 = (r0 - r1 * u1) % p, (c0 - r1 * u0) % p
            found = [(v0, 0) for v0 in roots[r0]] if r1 == 0 else []
            d = (u1 * u1 - 4 * u0) % p
            b = (2 * r1 * u1 - 4 * r0) % p
            squares = ()
            if d:
                rt = roots[(b * b - 4 * d * r1 * r1) % p]
                if rt:
                    h, r = inv[2 * d % p], rt[0]
                    squares = ((r - b) * h % p, (-r - b) * h % p) if r else (-b * h % p,)
            elif b:
                squares = (-r1 * r1 * inv[b] % p,)
            elif r1 == 0:
                raise InvariantViolated(f"(x - a)^2 divides f for u = x^2 + {u1}*x + {u0}")
            for s in squares:
                if s:
                    for v1 in roots[s]:
                        found.append(((r1 + s * u1) * inv[2 * v1 % p] % p, v1))
            if not found:
                continue
            found.sort()
            for v0, v1 in found:
                s = v1 * v1
                if (2 * v0 * v1 - s * u1 - r1) % p or (v0 * v0 - s * u0 - r0) % p:
                    raise InvariantViolated(f"v = {v1}*x + {v0} does not solve v^2 = f "
                                            f"mod x^2 + {u1}*x + {u0}")
                us.append(base + p * u0 + u1)
                vs.append(p * v0 + v1)
    return us, vs


def enumerate_pic(curve: HyperellipticCurve, degree: int) -> list[PicClass]:
    """The complete list of degree-d classes over a small prime field.

    Each pair from _all_reduced was checked when it was found, so its
    MumfordDivisor and PicClass are built through the slots."""
    us, vs = _all_reduced(curve)
    table = _poly_table(curve.field.p)
    new = object.__new__
    set_curve, set_u, set_v = (MumfordDivisor.curve.__set__, MumfordDivisor.u.__set__,
                               MumfordDivisor.v.__set__)
    set_base, set_degree = PicClass.base.__set__, PicClass.degree.__set__
    classes = []
    append = classes.append
    for ui, vi in zip(us, vs):
        base = new(MumfordDivisor)
        set_curve(base, curve)
        set_u(base, table[ui])
        set_v(base, table[vi])
        cls = new(PicClass)
        set_base(cls, base)
        set_degree(cls, degree)
        append(cls)
    return classes


def parse_class(curve: HyperellipticCurve, text: str) -> PicClass:
    """Parse 'u=<poly>; v=<poly>' with an optional '; d=<degree>'."""
    parts = _key_value_parts(text)
    degree = int(parts.pop("d", "0"))
    if set(parts) != {"u", "v"}:
        raise ValueError(f"class text needs 'u' and 'v': {text!r}")
    base = MumfordDivisor(curve, parse_poly(parts["u"], curve.field, max_degree=2),
                          parse_poly(parts["v"], curve.field, max_degree=2))
    return PicClass(base, degree)


def _key_value_parts(text: str) -> dict[str, str]:
    parts: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key in parts:
            raise ValueError(f"repeated key {key!r}: {text!r}")
        parts[key] = value.strip()
    return parts
