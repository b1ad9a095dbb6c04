"""Exact scalars: cyclotomic field elements over fractions.Fraction.

Cyclo represents an element of Q(zeta_N) in the power basis 1, zeta, ...,
zeta^(phi(N)-1) reduced modulo the N-th cyclotomic polynomial; because
the power basis is a Q-basis, equal elements of one field have identical
coefficient vectors, and an element is rational exactly when every
coefficient past the constant vanishes.

A high-precision floating evaluation (mpmath, 160-bit mantissa) serves as
the independent cross-check oracle; it never feeds back into the exact
arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath

from .errors import ThetaLabError
from .fields import QQ
from .polys import Poly, xgcd

ORACLE_PRECISION = 160  # bits of mantissa for the floating oracle


class NotRational(ThetaLabError):
    """The cyclotomic element is irrational."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """Phi_n over Q, via Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d."""
    if n < 1:
        raise ValueError("modulus must be positive")
    x = Poly.x(QQ)
    num = x ** n - 1
    for d in range(1, n):
        if n % d == 0:
            num //= cyclotomic_polynomial(d)
    return num


class Cyclo:
    """An element of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs) -> None:
        phi = euler_phi(modulus)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            raise ValueError("coefficient vector longer than phi(N)")
        cs += [Fraction(0)] * (phi - len(cs))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    @classmethod
    def from_rational(cls, value) -> Cyclo:
        return cls(1, (Fraction(value),))

    @classmethod
    def from_poly(cls, modulus: int, poly: Poly) -> Cyclo:
        return cls(modulus, (poly % cyclotomic_polynomial(modulus)).coeffs)

    @classmethod
    def zeta(cls, modulus: int, power: int = 1) -> Cyclo:
        """zeta_N^power as a canonical element."""
        x = Poly.x(QQ)
        return cls.from_poly(modulus, x ** (power % modulus))

    def _poly(self) -> Poly:
        return Poly(QQ, self.coeffs)

    def promote(self, modulus: int) -> Cyclo:
        """Embed into Q(zeta_M) for a multiple M of the current modulus."""
        if modulus == self.modulus:
            return self
        if modulus % self.modulus != 0:
            raise ValueError("can only embed into a multiple of the modulus")
        step = Poly.x(QQ) ** (modulus // self.modulus)
        return Cyclo.from_poly(modulus, self._poly().compose(step))

    @staticmethod
    def _common(a: Cyclo, b) -> tuple[Cyclo, Cyclo]:
        if isinstance(b, (int, Fraction)):
            b = Cyclo.from_rational(b)
        if not isinstance(b, Cyclo):
            raise TypeError(f"cannot combine Cyclo with {type(b).__name__}")
        n = lcm(a.modulus, b.modulus)
        return a.promote(n), b.promote(n)

    def __add__(self, other) -> Cyclo:
        a, b = Cyclo._common(self, other)
        return Cyclo.from_poly(a.modulus, a._poly() + b._poly())

    __radd__ = __add__

    def __neg__(self) -> Cyclo:
        return Cyclo(self.modulus, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Cyclo:
        return self + (-Cyclo._common(self, other)[1])

    def __rsub__(self, other) -> Cyclo:
        return (-self) + other

    def __mul__(self, other) -> Cyclo:
        a, b = Cyclo._common(self, other)
        return Cyclo.from_poly(a.modulus, a._poly() * b._poly())

    __rmul__ = __mul__

    def inverse(self) -> Cyclo:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi_n = cyclotomic_polynomial(self.modulus)
        g, s, _ = xgcd(self._poly(), phi_n)
        if g.degree != 0:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        return Cyclo.from_poly(self.modulus, s * Poly.constant(QQ, QQ.inv(g[0])))

    def __truediv__(self, other) -> Cyclo:
        a, b = Cyclo._common(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> Cyclo:
        return Cyclo._common(self, other)[1] * self.inverse()

    def __pow__(self, n: int) -> Cyclo:
        if n < 0:
            return self.inverse() ** (-n)
        acc = Cyclo.from_rational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise NotRational(f"{self!r} has nonzero nonconstant coefficients")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def approx(self, prec: int = ORACLE_PRECISION) -> mpmath.mpc:
        """Honest floating value via zeta_N = exp(2 pi i / N) at high precision."""
        with mpmath.workprec(prec):
            z = mpmath.exp(2j * mpmath.pi / self.modulus)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
            return acc

    def __float__(self) -> float:
        return float(self.approx().real)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # canonical modulus is not tracked across embeddings

    def __repr__(self) -> str:
        return f"Cyclo({self.modulus}, {[str(c) for c in self.coeffs]})"


def cyclo_sin(k: int, m: int) -> Cyclo:
    """Exact sin(k*pi/m) in Q(zeta_N) with N = lcm(2m, 4).

    Uses sin t = (e^(it) - e^(-it)) / 2i with e^(i*pi/m) = zeta_N^(N/2m)
    and i = zeta_N^(N/4).
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = lcm(2 * m, 4)
    a = n // (2 * m)
    k = k % (2 * m)
    plus = Cyclo.zeta(n, a * k)
    minus = Cyclo.zeta(n, (-a * k) % n)
    two_i = Cyclo.zeta(n, n // 4) * 2
    return (plus - minus) / two_i

