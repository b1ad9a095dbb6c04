"""Workload `cyclotomic`: exact sines in Q(zeta_N) and arithmetic on them.

One op is `cyclo_sin(k, m)` followed by a product, an inverse, or a sum
with an earlier sine of another modulus (which promotes both to the lcm).
m cycles through 1..40 in a seeded order, so every run pays for the same
spread of N = lcm(2m, 4); k and the partners are seeded too.  Partners
are chosen so that the lcm is again one of those N.  The oracle evaluates the returned power-basis
coefficients at exp(2 pi i / N) with mpmath and compares with the mpmath
sine, and checks Niven's rational values exactly.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import mpmath

import thetalab.exact as ex

M_RANGE = range(1, 41)
MODULI = {lcm(2 * m, 4) for m in M_RANGE}
PREC = 256  # bits for the oracle sines; evaluation adds the coefficient size
POOL = 8
KINDS = ("mul", "inverse", "sum")
WARM_UP = ((5, "mul"), (12, "inverse"), (30, "sum"))  # same cost for every seed
# sin(r pi) for the r in [0, 2) where it is rational (Niven)
RATIONAL = {Fraction(0): 0, Fraction(1): 0, Fraction(1, 2): 1, Fraction(3, 2): -1,
            Fraction(1, 6): Fraction(1, 2), Fraction(5, 6): Fraction(1, 2),
            Fraction(7, 6): Fraction(-1, 2), Fraction(11, 6): Fraction(-1, 2)}


def mp_sin(k, m):
    with mpmath.workprec(PREC):
        return mpmath.sin(mpmath.pi * k / m)


def evaluate(c):
    """The value of a Cyclo from its modulus and coefficients alone."""
    bits = max((max(abs(q.numerator), q.denominator).bit_length() for q in c.coeffs), default=0)
    with mpmath.workprec(PREC + bits):
        z = mpmath.expjpi(mpmath.mpf(2) / c.modulus)
        acc = mpmath.mpc(0)
        for q in reversed(c.coeffs):
            acc = acc * z + mpmath.mpf(q.numerator) / q.denominator
        return acc


def close(c, expected):
    with mpmath.workprec(PREC):
        return abs(evaluate(c) - expected) <= mpmath.mpf(2) ** -128 * max(1, abs(expected))


class Cyclotomic:
    def __init__(self, rng, root, fault=False):
        self.rng = rng
        self.pool = []  # (Cyclo, mpmath value, N) of earlier sines
        if fault:
            from tracer import patch
            original = ex.cyclo_sin
            patch(original, lambda k, m: original(k, m) + 1)
        for m, kind in WARM_UP:
            run, check = self._op(m, rng.randrange(1, m), kind)
            check(run(), None)
        self.pool.clear()

    def ops(self, in_process=True):
        """Rounds over all m in a seeded order; m's second operation turns
        through KINDS from round to round, so every run has the same mix."""
        rng = self.rng
        for rnd in itertools.count():
            order = list(M_RANGE)
            rng.shuffle(order)
            for m in order:
                yield self._op(m, rng.randrange(2 * m), KINDS[(m + rnd) % len(KINDS)])

    def _op(self, m, k, kind):
        n = lcm(2 * m, 4)
        value = mp_sin(k, m)
        if kind == "inverse" and k % m == 0:
            kind = "mul"
        partners = [e for e in self.pool if lcm(n, e[2]) in MODULI
                    and (kind != "sum" or e[2] != n)]
        partner = self.rng.choice(partners) if partners else None
        if partner is None and kind != "inverse":
            kind = "square"

        def run():
            x = ex.cyclo_sin(k, m)
            if kind == "mul":
                return x, x * partner[0]
            if kind == "sum":
                return x, x + partner[0]
            if kind == "inverse":
                return x, x.inverse()
            return x, x * x

        def check(out, exc):
            if exc is not None:
                return False
            x, y = out
            self.pool = (self.pool + [(x, value, n)])[-POOL:]
            with mpmath.workprec(PREC):
                if kind == "mul":
                    expected = value * partner[1]
                elif kind == "sum":
                    expected = value + partner[1]
                elif kind == "inverse":
                    expected = 1 / value
                else:
                    expected = value * value
            return self._exact(x, k, m) and close(x, value) and close(y, expected)
        return run, check

    @staticmethod
    def _exact(x, k, m):
        """Rational exactly when Niven says so, and then the right rational."""
        exact = RATIONAL.get(Fraction(k, m) % 2)
        rational = all(q == 0 for q in x.coeffs[1:])
        if exact is None:
            return not rational
        return rational and (x.coeffs[0] if x.coeffs else 0) == exact
