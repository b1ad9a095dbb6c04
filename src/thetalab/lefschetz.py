"""Holomorphic fixed-point bookkeeping for involutions with isolated
fixed points on a curve, and the eigenspace splitting it determines.

For an involution gamma with local model z -> -z at each fixed point p,
det(I - d gamma_p) = 2 and the fixed-point formula reads

    (h0_+ - h0_-) - (h1_+ - h1_-) = sum_p trace_p / 2,

so a scenario is its table of fibre traces, one per fixed point.
Together with h1_+ + h1_- = h1 this pins the eigenspace dimensions of H1
once the invariant part of H0 is known; a solution that is negative,
fractional, or too large is reported as Infeasible, which is itself
meaningful output (it rejects a wrong trace table).

The pinned scenarios, named in the one table that `scenarios` returns,
describe two rank-2 bundles E_e, E_f attached to a marked Weierstrass
point w on a genus-2 hyperelliptic curve.  The lifted involution acts on
the fibre of either bundle by diag(1, -1) over the five fixed points
other than w and by a scalar over w, and on the fibre of O(-w) by -1
away from w and +1 at w.  Traces of the derived bundles follow by
multilinear algebra: sym2 of diag(a, b) has trace a^2 + ab + b^2, and a
Hom of +-1-diagonal actions has trace equal to the product of the two
traces.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .bundles import BundleSymbol, chi
from .errors import ThetaLabError
from .value import Value


class Infeasible(ThetaLabError):
    """No nonnegative integer eigenspace split exists."""


class LefschetzScenario(Value):
    __slots__ = ("traces", "h0_total", "h1_total", "h0_plus")

    def __init__(self, traces, h0_total: int, h1_total: int, h0_plus: int) -> None:
        super().__init__(tuple(map(Fraction, traces)), h0_total, h1_total, h0_plus)
        if min(self.h0_total, self.h1_total, self.h0_plus, 0) < 0:
            raise ValueError("cohomology dimensions must be nonnegative")
        if self.h0_plus > self.h0_total:
            raise ValueError("h0_plus cannot exceed h0_total")


def lefschetz_number(s: LefschetzScenario) -> Fraction:
    return sum(s.traces, Fraction(0)) / 2


def split_eigendims(s: LefschetzScenario) -> tuple[int, int]:
    """The unique (h1_plus, h1_minus) solving the fixed-point identity,
    or Infeasible when no nonnegative integer solution exists."""
    number = lefschetz_number(s)
    # (2*h0_plus - h0_total) - number = h1_plus - h1_minus
    difference = (2 * s.h0_plus - s.h0_total) - number
    twice_plus = s.h1_total + difference
    if twice_plus.denominator != 1 or twice_plus.numerator % 2 != 0:
        raise Infeasible(f"parity mismatch: 2*h1_plus = {twice_plus}")
    h1_plus = twice_plus.numerator // 2
    if not 0 <= h1_plus <= s.h1_total:
        raise Infeasible(f"h1_plus = {h1_plus} outside 0..{s.h1_total}")
    return (h1_plus, s.h1_total - h1_plus)


# E_e and E_f: rank 2, degree -1.  The degree is the one the report rows
# "sym2 split" (h1 = 6, split (1, 5)) and "hom(O(-w),E_e) split" (h1 = 2,
# split (1, 1)) need; degree 0 would give h1 = 3 and h1 = 1.
_EXT_RANK2 = BundleSymbol(2, -1)
_LINE_MINUS_W = BundleSymbol(1, -1)  # O(-w)

# The two candidate trace tables for sym2 of a lifted extension bundle:
# diag(1, -1) fibres contribute trace 1 and scalar fibres trace 3, and the
# scalar slot sits either at the marked point (listed last, as in every
# table here) or at the other five.
SYM2_TABLES = ((1, 1, 1, 1, 1, 3), (3, 3, 3, 3, 3, 1))


def select_sym2() -> tuple[LefschetzScenario, LefschetzScenario]:
    """(feasible, rejected): the sym2 table that admits a split and the one
    that does not.  Infeasible unless exactly one of them splits."""
    h1 = -chi(_EXT_RANK2.sym2())
    feasible, rejected = [], []
    for traces in SYM2_TABLES:
        table = LefschetzScenario(traces, 0, h1, 0)
        try:
            split_eigendims(table)
        except Infeasible:
            rejected.append(table)
        else:
            feasible.append(table)
    if len(feasible) != 1:
        raise Infeasible(f"{len(feasible)} of {len(SYM2_TABLES)} sym2 trace tables "
                         "admit a split, not 1")
    return feasible[0], rejected[0]


def hom_ee_scenario() -> LefschetzScenario:
    """Hom between the two distinct extension bundles E_f, E_e: fibre
    traces 0*0 = 0 away from the marked point and 2*2 = 4 at it; no
    global maps between distinct stable bundles of equal slope."""
    h1 = -chi(_EXT_RANK2.hom(_EXT_RANK2))
    return LefschetzScenario((0, 0, 0, 0, 0, 4), h0_total=0, h1_total=h1, h0_plus=0)


def hom_ow_scenario() -> LefschetzScenario:
    """Hom(O(-w), E_e): fibre traces (-1)*0 = 0 away from the marked
    point and (+1)*2 = 2 at it; the one global section is equivariant."""
    h0 = 1
    h1 = h0 - chi(_LINE_MINUS_W.hom(_EXT_RANK2))
    return LefschetzScenario((0, 0, 0, 0, 0, 2), h0_total=h0, h1_total=h1, h0_plus=1)


def scenarios() -> dict:
    """The pinned scenarios by name, as thunks; the two sym2 entries share
    one selection, made at most once per table unless it fails."""
    sym2 = cache(select_sym2)
    return {
        "sym2": lambda: sym2()[0],
        "sym2-rejected": lambda: sym2()[1],
        "hom-ee": hom_ee_scenario,
        "hom-ow": hom_ow_scenario,
    }
