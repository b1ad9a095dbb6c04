"""Reconstruction of a degree-10 Hilbert polynomial from three values.

The polynomial is constrained to the shape

    p(n) = gamma * (n+1)(n+2)(n+3)^2(n+4)(n+5) * (M^2 - sigma*M + pi),
    M = (n+3)^2,

which has the built-in symmetry p(n) = p(-6-n) and vanishes at
-1, ..., -5.  Writing the unknowns as (gamma, gamma*sigma, gamma*pi)
makes the three value constraints an exact linear system; the quadratic
roots themselves are never extracted.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ThetaLabError
from .value import Value


class SingularSystem(ThetaLabError):
    """The interpolation system has no unique solution."""


class NonIntegralChern(ThetaLabError):
    """10! times the leading coefficient is not an integer."""


def _frame(n):
    return (n + 1) * (n + 2) * (n + 3) ** 2 * (n + 4) * (n + 5)


class HilbertFit(Value):
    __slots__ = ("gamma", "sigma", "pi", "chern_degree")

    def evaluate(self, n) -> Fraction:
        m = Fraction((n + 3) ** 2)
        return self.gamma * _frame(Fraction(n)) * (m * m - self.sigma * m + self.pi)


def _solve3(rows, rhs):
    a = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for i in range(3):
        pivot = next((k for k in range(i, 3) if a[k][i] != 0), None)
        if pivot is None:
            raise SingularSystem("no pivot in interpolation system")
        a[i], a[pivot] = a[pivot], a[i]
        for k in range(3):
            if k != i and a[k][i] != 0:
                factor = a[k][i] / a[i][i]
                a[k] = [u - factor * v for u, v in zip(a[k], a[i])]
    return [a[i][3] / a[i][i] for i in range(3)]


def fit_hilbert(p0, p1, p2) -> HilbertFit:
    """Solve for (gamma, sigma, pi) from the values at n = 0, 1, 2."""
    rows = []
    for n in (0, 1, 2):
        m = (n + 3) ** 2
        c = _frame(n)
        rows.append((c * m * m, -c * m, c))
    gamma, g_sigma, g_pi = _solve3(rows, (p0, p1, p2))
    if gamma == 0:
        raise SingularSystem("leading coefficient vanished")
    chern = factorial(10) * gamma
    if chern.denominator != 1:
        raise NonIntegralChern(f"10! * gamma = {chern}")
    return HilbertFit(gamma, g_sigma / gamma, g_pi / gamma, int(chern))


def canonical_power() -> int:
    """The ample power whose inverse is the canonical bundle of the moduli
    space: minus the adjoint Dynkin index of the rank-2 symplectic group.
    Equals twice the symmetry center of the fitted polynomial."""
    return -6
