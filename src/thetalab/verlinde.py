"""Genus-2 Verlinde numbers of the rank-2 symplectic group Sp(4), exactly.

At level k, n = k + 3 (k plus the dual Coxeter number 3) and the weights
are the pairs s, t >= 1 with s + t <= k + 2.  Beauville ("Conformal blocks,
fusion rules and the Verlinde formula", 1996) gives p(k) = h^0(M_2, Xi^k) =
4n^2 * sum S(s, t)^-2, S(s, t) = 2^4 sin(pi(s+t)/n) sin(pi t/n) sin(pi s/2n)
sin(pi(s+2t)/2n).  S(s, t)^-1 is 2^-4 times four exact cosecants, so the sum
is taken in the cyclotomic field with no inverse and only then collapsed to
a rational; a failed collapse (NotRational / NotInteger) is an arithmetic bug.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ThetaLabError
from .exact import Cyclo, cyclo_csc, cyclo_sin


class NotInteger(ThetaLabError):
    """A sum that must be an integer is not."""


def weights(level: int) -> list[tuple[int, int]]:
    """The pairs (s, t) with s, t >= 1 and s + t <= level + 2, ordered by
    (s + t, min(s, t), s); at level 2 that is the order `theta-lab
    verlinde` prints its table in."""
    if level < 0:
        raise ValueError("level must be non-negative")
    pairs = [(s, t) for s in range(1, level + 2) for t in range(1, level + 3 - s)]
    return sorted(pairs, key=lambda p: (p[0] + p[1], min(p), p[0]))


def _sine_product(s: int, t: int, level: int, factor) -> Cyclo:
    """The product of factor(k, m) over the four sines sin(k*pi/m) of S(s, t)."""
    n = level + 3
    return factor(s + t, n) * factor(t, n) * factor(s, 2 * n) * factor(s + 2 * t, 2 * n)


def s_factor(s: int, t: int) -> Cyclo:
    """The level-2 sine product S(s, t), exactly.  All four arguments lie
    strictly inside (0, pi) on weights(2), so S(s, t) is never zero."""
    return 16 * _sine_product(s, t, 2, cyclo_sin)


def verlinde(level: int) -> int:
    """p(level) = 4n^2 * the sum of S(s, t)^-2 over weights(level), with
    n = level + 3 and S(s, t)^-1 = 2^-4 * the product of the four cosecants."""
    total = Cyclo.from_rational(0)
    for s, t in weights(level):
        term = _sine_product(s, t, level, cyclo_csc)
        total = total + term * term
    n = level + 3
    value = total.to_rational() * Fraction(4 * n * n, 2 ** 8)
    if value.denominator != 1:
        raise NotInteger(f"p({level}) evaluated to {value}")
    return int(value)


def hilbert_values() -> tuple[int, int, int]:
    """(p(0), p(1), p(2)), each from the Verlinde formula."""
    return (verlinde(0), verlinde(1), verlinde(2))


def theta_eigendims(n: int, g: int) -> tuple[int, int]:
    """Dimensions (((2n)^g + 2^g)/2, ((2n)^g - 2^g)/2) of the two
    eigenspaces of the canonical involution acting on the sections of 2n
    times a principal polarization on a g-dimensional Jacobian
    (Birkenhake-Lange, Complex Abelian Varieties, section 4.6)."""
    if n < 1:
        raise ValueError("n must be positive")
    if g < 2:
        raise ValueError("g must be at least 2")
    half = 2 ** (g - 1)
    bulk = half * n ** g
    return (bulk + half, bulk - half)
