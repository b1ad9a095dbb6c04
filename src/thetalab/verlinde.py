"""Level-2 Verlinde numbers for the rank-2 symplectic group, exactly.

The six admissible weight pairs (s, t) with s, t >= 1 and s + t <= 4 feed
a product of four exact sines.  Its inverse is the product of the four
exact cosecants, so the inverse squares are summed in the cyclotomic
field with no inverse taken, and only then collapsed to a rational.  A
failed collapse (NotRational / NotInteger) is a loud arithmetic bug, never a
rounding issue.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ThetaLabError
from .exact import Cyclo, cyclo_csc, cyclo_sin
from .value import Value


class NotInteger(ThetaLabError):
    """A sum that must be an integer is not."""


class VerlindePair(Value):
    __slots__ = ("s", "t")

    def __init__(self, s: int, t: int) -> None:
        super().__init__(s, t)
        if self.s < 1 or self.t < 1 or self.s + self.t > 4:
            raise ValueError(f"inadmissible pair ({self.s}, {self.t})")


def admissible_pairs() -> tuple[VerlindePair, ...]:
    """All pairs s, t >= 1 with s + t <= 4, in a fixed order."""
    return (
        VerlindePair(1, 1),
        VerlindePair(1, 2),
        VerlindePair(2, 1),
        VerlindePair(1, 3),
        VerlindePair(3, 1),
        VerlindePair(2, 2),
    )


def _sine_product(pair: VerlindePair, factor) -> Cyclo:
    """The product of factor(k, m) over the four sines sin(k*pi/m) of S(s, t)."""
    s, t = pair.s, pair.t
    product = Cyclo.from_rational(1)
    for k, m in ((s + t, 5), (t, 5), (s, 10), (s + 2 * t, 10)):
        product = product * factor(k, m)
    return product


def s_factor(pair: VerlindePair) -> Cyclo:
    """The sine product S(s, t), exactly.

    S(s, t) = 2^4 sin(pi(s+t)/5) sin(pi t/5) sin(pi s/10) sin(pi(s+2t)/10),
    the positive-root character product for the rank-2 symplectic Weyl
    alcove at level 2.  All four arguments lie strictly inside (0, pi) on
    admissible pairs, so S(s, t) is never zero.
    """
    return 16 * _sine_product(pair, cyclo_sin)


def verlinde_p2() -> int:
    """The dimension 2^2 * 5^2 * sum of S(s, t)^-2 over admissible pairs,
    with S(s, t)^-1 = 2^-4 * the product of the four cosecants."""
    total = Cyclo.from_rational(0)
    for pair in admissible_pairs():
        term = _sine_product(pair, cyclo_csc)
        total = total + term * term
    value = total.to_rational() * Fraction(100, 256)
    if value.denominator != 1:
        raise NotInteger(f"p(2) evaluated to {value}")
    return int(value)


def hilbert_values() -> tuple[int, int, int]:
    """(p(0), p(1), p(2)); the first two are pinned, the third computed."""
    return (1, 10, verlinde_p2())


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
