"""Dense univariate polynomials over an exact field: the one polynomial
kernel, on coefficient lists, and Poly, the value that holds a polynomial.

The kernel is the module functions trim, add, sub, mul, scale, quo_rem,
powmod, gcd, xgcd, derivative and horner.  A polynomial is a coefficient
list, low to high, with no trailing zeros; the zero polynomial is [].
Over F_p the coefficients are ints reduced mod p, over Q they are
Fractions (or ints): F.characteristic is 0 over Q, so nothing is reduced
there, and lead coefficients are inverted by F.inv.  Every function but
horner returns a list in that form.  Inputs must already be trimmed,
since quo_rem, gcd and xgcd read the lead coefficient as the last entry:
a Poly's coefficient tuple is, and a zero-padded vector such as Cyclo.num
goes through trim first.  quo_rem and powmod divide only by a monic
polynomial, and powmod raises ValueError for n < 0.  gcd and xgcd take a
monic first argument and return a monic gcd; xgcd(a, b) returns (g, t)
with t*b = g mod a, the one Bezout cofactor its callers use.  mul and
quo_rem skip every zero factor, since Euclid's quotients and remainders
on sparse inputs such as sines are mostly zeros, and mul starts each
slot of the product at F.zero, so a slot that no product reaches is
still a Fraction over Q.  horner(a, x) is the value a(x) at any x that
combines with the coefficients by + and * (an int, a Fraction, an mpmath
number), and it reduces nothing: the caller normalises it.

Poly is a plain Value with no arithmetic, used where a polynomial is
parsed, printed, evaluated (by horner) or stored.  Its constructor
normalises each coefficient through the field and drops trailing zeros,
so equal polynomials have equal coefficient tuples (in kernel form), and
Poly is equal and hashed by (field, coeffs).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .value import Value


class Poly(Value):
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()) -> None:
        cs = [field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def lc(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        return self.field(horner(self.coeffs, x))

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == self.field.zero:
                continue
            neg = isinstance(c, Fraction) and c < 0
            mag = -c if neg else c
            if i == 0:
                term = str(mag)
            elif mag == self.field.one:
                term = "x" if i == 1 else f"x^{i}"
            else:
                term = f"{mag}*x" if i == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)


def trim(coeffs, F) -> list:
    """Any coefficient sequence put in kernel form: reduced mod p over F_p,
    with no trailing zeros."""
    p = F.characteristic
    out = [c % p for c in coeffs] if p else list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def add(a, b, F) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out, F)


def sub(a, b, F) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out, F)


def mul(a, b, F) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                if y:
                    out[k] += x * y
    return trim(out, F)


def scale(a, c, F) -> list:
    return trim([x * c for x in a], F)


def quo_rem(a, m, F) -> tuple[list, list]:
    """Quotient and remainder of a by a monic m."""
    p = F.characteristic
    dm = len(m) - 1
    tail = m[:dm]
    rem = list(a)
    quo = [0] * max(len(rem) - dm, 0)
    for k in range(len(rem) - 1 - dm, -1, -1):
        c = rem[k + dm] % p if p else rem[k + dm]
        quo[k] = c
        if c:
            for i, y in enumerate(tail, k):
                if y:
                    rem[i] -= c * y
    return quo, trim(rem[:dm], F)


def powmod(a, n, m, F) -> list:
    """a^n mod a monic m, for n >= 0, by square and multiply from the top bit."""
    if n < 0:
        raise ValueError("powmod takes an exponent n >= 0")
    a = quo_rem(a, m, F)[1]
    acc = a if n else quo_rem([F.one], m, F)[1]
    for bit in bin(n)[3:]:
        acc = quo_rem(mul(acc, acc, F), m, F)[1]
        if bit == "1":
            acc = quo_rem(mul(acc, a, F), m, F)[1]
    return acc


def gcd(a, b, F) -> list:
    """gcd of a monic a and any b, monic."""
    while b:
        a, b = scale(b, F.inv(b[-1]), F), a
        b = quo_rem(b, a, F)[1]
    return a


def xgcd(a, b, F) -> tuple[list, list]:
    """(g, t) with g = gcd(a, b), monic, and t*b = g mod a, for a monic a:
    Euclid's remainders and the cofactors of b alone, not those of a.
    Each remainder is made monic, with its cofactor, before dividing by it."""
    r0, t0 = a, []
    r1, t1 = b, [F.one]
    while r1:
        inv = F.inv(r1[-1])
        r1, t1 = scale(r1, inv, F), scale(t1, inv, F)
        q, r = quo_rem(r0, r1, F)
        r0, t0, r1, t1 = r1, t1, r, sub(t0, mul(q, t1, F), F)
    return r0, t0


def derivative(a, F) -> list:
    return trim([i * c for i, c in enumerate(a)][1:], F)


def horner(a, x):
    """a(x) = sum of a[i] * x^i, unreduced."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


_TERM = re.compile(
    r"^(?P<sign>-)?(?P<coeff>\d+(?:/\d+)?)?(?:\*?(?P<var>x)(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str, field, max_degree: int) -> Poly:
    """Parse the canonical printed form, e.g. 'x^2 - 3*x + 5/2'.  A term of
    degree above max_degree is rejected before the dense list is built."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    compact = compact.replace("-", "+-")
    if compact.startswith("+"):
        compact = compact[1:]
    coeffs: dict[int, Fraction] = {}
    for raw in compact.split("+"):
        m = _TERM.match(raw) if raw else None
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"malformed term {raw!r} in {text!r}")
        c = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("sign"):
            c = -c
        if m.group("var") is None:
            exp = 0
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
        if exp > max_degree:
            raise ValueError(f"term {raw!r} has degree above {max_degree}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    size = max(coeffs) + 1
    out = [Fraction(0)] * size
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)
