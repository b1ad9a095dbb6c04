"""Reconstruction of a degree-10 Hilbert polynomial from three values.

The polynomial is constrained to the shape

    p(n) = gamma * (n+1)(n+2)(n+3)^2(n+4)(n+5) * (M^2 - sigma*M + pi),
    M = (n+3)^2,

which has the built-in symmetry p(n) = p(-6-n) and vanishes at
-1, ..., -5.  p(n) divided by the frame is the quadratic
gamma*M^2 - gamma*sigma*M + gamma*pi in M, so the values at n = 0, 1, 2
(M = 9, 16, 25) fix its coefficients by Lagrange interpolation; the
quadratic roots themselves are never extracted.
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


def fit_hilbert(p0, p1, p2) -> HilbertFit:
    """Solve for (gamma, sigma, pi) from the values at n = 0, 1, 2.

    The Lagrange basis polynomial of M_i is (M - M_j)(M - M_k) over
    (M_i - M_j)(M_i - M_k), so the value q_i = p(n_i) / frame(n_i) adds
    w = q_i / ((M_i - M_j)(M_i - M_k)) times (1, M_j + M_k, M_j * M_k) to
    (gamma, gamma*sigma, gamma*pi)."""
    ms = (9, 16, 25)  # M = (n+3)^2 at n = 0, 1, 2
    gamma = g_sigma = g_pi = Fraction(0)
    for n, p in enumerate((p0, p1, p2)):
        mj, mk = (ms[j] for j in range(3) if j != n)
        w = Fraction(p) / (_frame(n) * (ms[n] - mj) * (ms[n] - mk))
        gamma += w
        g_sigma += w * (mj + mk)
        g_pi += w * mj * mk
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
