"""Base fields for exact arithmetic: the rationals and odd prime fields.

Elements are plain values (Fraction for Q, least nonnegative int residues
for F_p), which keeps polynomials and divisors hashable; callers combine
them with Python's + - * and normalise the result with field(value).  A
field object only normalises, inverts and takes square roots, and keeps
no caches: a PrimeField holds only p.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all twelve bases (Sorenson-Webster 2015).
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first twelve prime bases, which is
    a proof of primality only for n < 318665857834031151167461 (psi_12,
    Sorenson-Webster); ValueError for larger n."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is proven only below {_MR_BOUND}, got {n}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent larger in size than the
    digit limit Python sets for int strings: '1e30000000' would otherwise
    build a 30-million-digit integer before anything could reject it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    m = _EXPONENT.search(text)
    if m and limit and abs(int(m.group(1))) > limit:
        raise ValueError(f"exponent of {text.strip()!r} exceeds {limit}")
    return Fraction(text)


class RationalField:
    """The field Q; elements are fractions.Fraction in lowest terms."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def sqrt(self, a):
        """Exact square root, or None if a is not a rational square."""
        a = Fraction(a)
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn = _isqrt_exact(num)
        rd = _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        return Fraction(rn, rd)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


def _isqrt_exact(n: int) -> int | None:
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


class PrimeField:
    """The field F_p; elements are ints reduced to 0..p-1."""

    zero = 0
    one = 1

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __call__(self, value) -> int:
        """value mod p for an int (bool included) or a Fraction; a float or
        any other type is refused, since int() would truncate it."""
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot map {type(value).__name__} {value!r} into {self!r}")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def sqrt(self, a):
        """The smaller square root of a, or None if a is a nonresidue, by Euler's
        criterion and Tonelli-Shanks (Cohen, Alg. 1.5.1); nothing is cached."""
        p, a = self.p, a % self.p
        if a == 0:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s, q odd
        q = (p - 1) >> s
        root, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
        if t != 1:
            z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) != 1)
            c, m = pow(z, q, p), s
            while t != 1:
                i, t2 = 1, t * t % p
                while t2 != 1:
                    i, t2 = i + 1, t2 * t2 % p
                b = pow(c, 1 << (m - i - 1), p)
                root, c, m = root * b % p, b * b % p, i
                t = t * c % p
        return min(root, p - root)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()


def field_from_spec(spec) -> RationalField | PrimeField:
    """Parse a field descriptor: 'Q' or 'Fp:<p>'."""
    if isinstance(spec, str):
        text = spec.strip()
        if text == "Q":
            return QQ
        if text.startswith("Fp:"):
            return PrimeField(int(text[3:]))
    raise ValueError(f"unrecognized field spec: {spec!r}")
