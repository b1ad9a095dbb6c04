"""Dense univariate polynomials over an exact field.

Coefficients are stored low to high with no trailing zeros, so equal
polynomials have equal coefficient tuples; Poly is a plain Value, equal
and hashed by (field, coeffs).  Arithmetic combines two polynomials over
the same field and never coerces a number to a constant.
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

    def _coerce(self, other) -> Poly | None:
        if not isinstance(other, Poly):
            return None
        if other.field != self.field:
            raise ValueError("mixed fields")
        return other

    def __neg__(self) -> Poly:
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] - other[i] for i in range(n)])

    def __mul__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly(self.field, ())
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(self.field, out)

    def __divmod__(self, other) -> tuple[Poly, Poly]:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(F, ()), self
        quo = [F.zero] * (dq + 1)
        inv_lc = F.inv(other.lc())
        # rem accumulates unreduced; over F_p each entry stays below (deg + 2) p^2
        for k in range(dq, -1, -1):
            c = F(rem[k + other.degree] * inv_lc)
            quo[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= c * oc
        return Poly(F, quo), Poly(F, rem)

    def __mod__(self, other) -> Poly:
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return self.field(acc)

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        inv_lc = self.field.inv(self.lc())
        return Poly(self.field, [c * inv_lc for c in self.coeffs])

    def derivative(self) -> Poly:
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def divides(self, other: Poly) -> bool:
        return (other % self).is_zero

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


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with g = s*a + t*b and g monic."""
    F = a.field
    one = Poly(F, (F.one,))
    zero = Poly(F, ())
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv_lc = F.inv(r0.lc())
    scale = Poly(F, (inv_lc,))
    return r0.monic(), s0 * scale, t0 * scale


_TERM = re.compile(
    r"^(?P<sign>-)?(?P<coeff>\d+(?:/\d+)?)?(?:\*?(?P<var>x)(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str, field, max_degree: int | None = None) -> Poly:
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
        if max_degree is not None and exp > max_degree:
            raise ValueError(f"term {raw!r} has degree above {max_degree}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    size = max(coeffs) + 1
    out = [Fraction(0)] * size
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)
