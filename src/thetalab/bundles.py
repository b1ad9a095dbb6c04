"""Rank/degree bookkeeping for vector bundles on a smooth curve of genus g.

A BundleSymbol carries no cohomology, only the (rank, degree, genus)
triple; chi is Riemann-Roch, slopes are exact rationals, and the tensor
algebra follows the standard multilinear rank/degree rules.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ThetaLabError
from .value import Value


class UnsupportedGenus(ThetaLabError):
    """The requested invariant chain is only defined at genus 2."""


class BundleSymbol(Value):
    __slots__ = ("rank", "degree", "genus")

    def __init__(self, rank: int, degree: int, genus: int = 2) -> None:
        super().__init__(rank, degree, genus)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.genus < 2:
            raise ValueError("genus must be at least 2")

    def _same_genus(self, other: BundleSymbol) -> None:
        if self.genus != other.genus:
            raise ValueError("mixed genera")

    def tensor(self, other: BundleSymbol) -> BundleSymbol:
        self._same_genus(other)
        return BundleSymbol(
            self.rank * other.rank,
            self.rank * other.degree + other.rank * self.degree,
            self.genus,
        )

    def hom(self, other: BundleSymbol) -> BundleSymbol:
        return self.dual().tensor(other)

    def dual(self) -> BundleSymbol:
        return BundleSymbol(self.rank, -self.degree, self.genus)

    def sym2(self) -> BundleSymbol:
        r, d = self.rank, self.degree
        return BundleSymbol(r * (r + 1) // 2, d * (r + 1), self.genus)


def chi(b: BundleSymbol) -> int:
    """Euler characteristic by Riemann-Roch: deg + rank(1 - g)."""
    return b.degree + b.rank * (1 - b.genus)


def slope(b: BundleSymbol) -> Fraction:
    return Fraction(b.degree, b.rank)


def moduli_dim(n: int, g: int) -> int:
    """Dimension n(2n+1)(g-1) of the moduli of rank-2n symplectic bundles."""
    if n < 1:
        raise ValueError("n must be positive")
    if g < 2:
        raise ValueError("g must be at least 2")
    return n * (2 * n + 1) * (g - 1)


def theta_self_intersection(multiple: int, g: int) -> int:
    """(m Theta)^g = m^g * g! for a principal polarization on a
    g-dimensional abelian variety."""
    return multiple ** g * factorial(g)


class RaynaudInvariants(Value):
    __slots__ = ("mukai_rank", "duplication_degree", "theta_self_int_2theta",
                 "pullback_degree_on_Y", "slope_Ec")


def raynaud_invariants(g: int = 2) -> RaynaudInvariants:
    """The invariant chain of the rank-4 Fourier-Mukai bundle on a
    2-dimensional Jacobian restricted along duplication.

    rank = (2 Theta)^g / g!, duplication has degree 2^(2g) (the order of
    the 2-torsion subgroup), the restricted polarization degree on an
    embedded curve is 2g, and the slope of the descended bundle is the
    pullback degree divided by the covering degree and the rank.
    """
    if g != 2:
        raise UnsupportedGenus(f"invariant chain defined only at genus 2, got {g}")
    theta2 = theta_self_intersection(2, g)
    mukai_rank = theta2 // factorial(g)
    duplication_degree = 2 ** (2 * g)
    pullback_degree = duplication_degree * 2 * g
    slope_ec = Fraction(pullback_degree, duplication_degree) / mukai_rank
    return RaynaudInvariants(mukai_rank, duplication_degree, theta2, pullback_degree, slope_ec)
