"""Exact scalars: cyclotomic field elements as integer vectors.

Cyclo represents an element of Q(zeta_N) as num / den: num is a tuple of
phi(N) ints, the coordinates in the power basis 1, zeta, ...,
zeta^(phi(N)-1), and den > 0 is one common denominator with
gcd(num..., den) = 1.  The N-th cyclotomic polynomial Phi_N is monic with
integer coefficients: x^N - 1 divided exactly (polys.quo_rem) by Phi_d
for each proper divisor d of N.  So reducing modulo it is an integer long
division, which _reduce runs on Phi_N's sparse tail, cached per N.
Because the power basis is a Q-basis and (num, den) is normalised, equal
elements of one field have identical (num, den), and an element is
rational exactly when every coordinate past the constant vanishes.

Sums of powers of zeta (_from_terms) and promote are index maps
(zeta^k -> x^k, x^j -> x^(j*M/N)) followed by one reduction, and a
product is a sparse integer convolution followed by one reduction.  Only
inverse leaves the integers, for one extended Euclid over Q (polys.xgcd
of Phi_N and the trimmed num), which carries only the cofactor t of num;
deg t < phi(N), so den * t is the inverse with no further reduction.  A
cosecant needs no inverse: for a root of unity w != 1 with w^N = 1,
1/(w - 1) = (1/N) sum_{j<N} j w^j, so cyclo_csc is an index map and one
reduction like cyclo_sin.

float() is a high-precision floating evaluation (mpmath, 160-bit
mantissa, imported on first use) that serves as the independent
cross-check oracle; it never feeds back into the exact arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ThetaLabError
from .fields import QQ
from .polys import horner, quo_rem, trim, xgcd
from .value import Value

ORACLE_PRECISION = 160  # bits of mantissa for the floating oracle


class NotRational(ThetaLabError):
    """The cyclotomic element is irrational."""


@lru_cache(maxsize=None)
def _phi_ints(n: int) -> tuple[int, ...]:
    """Phi_n low to high as monic ints: x^n - 1 divided exactly by Phi_d
    for every proper divisor d of n.  Every Cyclo construction path comes
    here first, so this is where a modulus < 1 is rejected."""
    if n < 1:
        raise ValueError("modulus must be positive")
    c = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            c = quo_rem(c, _phi_ints(d), QQ)[0]
    return tuple(c)


@lru_cache(maxsize=None)
def _reducer(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the nonzero (i, c_i) with i < phi(n) of Phi_n)."""
    phi_n = _phi_ints(n)
    return len(phi_n) - 1, tuple((i, c) for i, c in enumerate(phi_n[:-1]) if c)


def _reduce(n: int, c: list[int]) -> list[int]:
    """c mod Phi_n as a list of phi(n) ints, by one long division; c has
    at least phi(n) entries and is overwritten."""
    phi, tail = _reducer(n)
    for k in range(len(c) - 1, phi - 1, -1):
        t = c[k]
        if t:
            base = k - phi
            for i, p in tail:
                c[base + i] -= t * p
    del c[phi:]
    return c


def _ints(coeffs) -> tuple[list[int], int]:
    """Rationals as (numerators over their common denominator, it)."""
    fs = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs], den


class Cyclo(Value):
    """An element num / den of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("modulus", "num", "den")

    def __init__(self, modulus: int, num, den: int) -> None:
        """num / den from at most phi(modulus) ints, padded with zeros, and
        den >= 1, stored in lowest terms."""
        phi, _ = _reducer(modulus)
        if len(num) > phi:
            raise ValueError("coefficient vector longer than phi(N)")
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(*num, den)
        num = tuple(num) if g == 1 else tuple(c // g for c in num)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "num", num + (0,) * (phi - len(num)))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def _from_terms(cls, modulus: int, terms, den: int) -> Cyclo:
        """(sum of c * zeta^e over the (e, c) in terms) / den."""
        _reducer(modulus)  # rejects a modulus < 1 before the index map
        c = [0] * modulus
        for e, v in terms:
            c[e % modulus] += v
        return cls(modulus, _reduce(modulus, c), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(N) power-basis coordinates as rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def from_rational(cls, value) -> Cyclo:
        value = Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    def promote(self, modulus: int) -> Cyclo:
        """Embed into Q(zeta_M) for a multiple M of the current modulus."""
        if modulus == self.modulus:
            return self
        _reducer(modulus)  # rejects a modulus < 1 before the divisibility test
        if modulus % self.modulus != 0:
            raise ValueError("can only embed into a multiple of the modulus")
        step = modulus // self.modulus
        terms = ((j * step, c) for j, c in enumerate(self.num) if c)
        return Cyclo._from_terms(modulus, terms, self.den)

    @staticmethod
    def _common(a: Cyclo, b) -> tuple[Cyclo, Cyclo]:
        if isinstance(b, (int, Fraction)):
            b = Cyclo.from_rational(b)
        elif not isinstance(b, Cyclo):
            raise TypeError(f"cannot combine Cyclo with {type(b).__name__}")
        n = lcm(a.modulus, b.modulus)
        return a.promote(n), b.promote(n)

    def __add__(self, other) -> Cyclo:
        a, b = Cyclo._common(self, other)
        da, db = a.den, b.den
        num = [x * db + y * da for x, y in zip(a.num, b.num)]
        return Cyclo(a.modulus, num, da * db)

    def __mul__(self, other) -> Cyclo:
        a, b = Cyclo._common(self, other)
        terms = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return Cyclo(a.modulus, _reduce(a.modulus, out), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> Cyclo:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # num is zero-padded to phi(N), and xgcd reads its last entry as the
        # lead coefficient, so it is trimmed first
        g, t = xgcd(_phi_ints(self.modulus), trim(self.num, QQ), QQ)
        if len(g) != 1:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        # xgcd gives t * num = g = 1 mod Phi_N with deg t < phi(N), so
        # den * t is the inverse, already reduced
        num, den = _ints(t)
        return Cyclo(self.modulus, [c * self.den for c in num], den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise NotRational(f"{self!r} has nonzero nonconstant coefficients")
        return Fraction(self.num[0], self.den)

    def __float__(self) -> float:
        """The real part of the value at zeta_N = exp(2 pi i / N), evaluated
        with an ORACLE_PRECISION-bit mantissa."""
        import mpmath  # only floating output needs it; keeps CLI start-up light

        with mpmath.workprec(ORACLE_PRECISION):
            z = mpmath.exp(2j * mpmath.pi / self.modulus)
            return float((horner(self.num, z) / self.den).real)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, Cyclo)):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # canonical modulus is not tracked across embeddings

    def __repr__(self) -> str:
        return f"Cyclo({self.modulus}, {[str(c) for c in self.coeffs]})"


def _sine_frame(m: int) -> tuple[int, int, int]:
    """(N, a, q) with N = lcm(2m, 4), e^(i*pi/m) = zeta_N^a and 1/i = zeta_N^q."""
    if m < 1:
        raise ValueError("m must be positive")
    n = lcm(2 * m, 4)
    return n, n // (2 * m), 3 * n // 4


def cyclo_sin(k: int, m: int) -> Cyclo:
    """Exact sin(k*pi/m) in Q(zeta_N) with N = lcm(2m, 4).

    sin t = (e^(it) - e^(-it)) / 2i with e^(i*pi/m) = zeta_N^a, a = N/2m,
    and 1/i = zeta_N^(3N/4), so sin(k*pi/m) = (zeta_N^(3N/4 + ak) -
    zeta_N^(3N/4 - ak)) / 2: one index map and one reduction.
    """
    n, a, q = _sine_frame(m)
    return Cyclo._from_terms(n, ((q + a * k, 1), (q - a * k, -1)), 2)


def cyclo_csc(k: int, m: int) -> Cyclo:
    """Exact 1/sin(k*pi/m) in Q(zeta_N) with N = lcm(2m, 4), no inverse taken.

    With a and q as in cyclo_sin, sin(k*pi/m) = zeta_N^(q - ak) (w - 1) / 2
    for w = zeta_N^(2ak), and 1/(w - 1) = (1/N) sum_{j<N} j w^j for every
    w != 1 with w^N = 1 (cyclotomic units; Washington, Introduction to
    Cyclotomic Fields, ch. 8).  So 1/sin(k*pi/m) is (2/N) sum_{j<N} j
    zeta_N^(ak - q + 2akj): one index map and one reduction.
    """
    n, a, q = _sine_frame(m)
    if k % m == 0:
        raise ZeroDivisionError(f"sin({k}*pi/{m}) is zero")
    return Cyclo._from_terms(n, ((a * k - q + 2 * a * k * j, 2 * j) for j in range(1, n)), n)
