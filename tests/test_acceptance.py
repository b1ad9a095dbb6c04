"""Acceptance gate: the eleven headline checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Everything here is either exact arithmetic or an
explicitly stated floating tolerance.
"""
import random
from fractions import Fraction

import pytest

from thetalab import bundles, cli, hilbert, lefschetz, report, verlinde
from thetalab import hyperelliptic as hy

import oracles
from conftest import canonical_class

CURVE13 = hy.parse_curve("field=Fp:13; f=0,-1,0,0,0")
PIC13 = hy.enumerate_pic(CURVE13, 0)
ZERO13 = hy.PicClass(hy.MumfordDivisor.zero(CURVE13), 0)


def test_c01_verlinde_exactness():
    assert verlinde.verlinde(2) == 58
    total = sum(1.0 / float(verlinde.s_factor(s, t)) ** 2
                for s, t in verlinde.weights(2))
    assert abs(100.0 * total - 58.0) < 1e-6


def test_c02_basepoint_count():
    fit = hilbert.fit_hilbert(1, 10, 58)
    assert fit.gamma == Fraction(1, 604800)
    assert fit.chern_degree == 6
    for n in range(-5, 0):
        assert fit.evaluate(n) == 0
    # the 10th difference over 11 consecutive n is 10! * gamma, the base points
    values = [fit.evaluate(n) for n in range(11)]
    for _ in range(10):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values == [6]
    # p(n) - p(-6 - n) has degree <= 10, so 11 zeros make it vanish identically
    for n in range(11):
        assert fit.evaluate(n) == fit.evaluate(-6 - n)


def test_c03_lefschetz_splittings():
    chosen, rejected = lefschetz.select_sym2()
    assert lefschetz.split_eigendims(chosen) == (1, 5)
    with pytest.raises(lefschetz.Infeasible):
        lefschetz.split_eigendims(rejected)
    assert lefschetz.split_eigendims(lefschetz.hom_ee_scenario()) == (1, 3)
    assert lefschetz.split_eigendims(lefschetz.hom_ow_scenario()) == (1, 1)

    rng = random.Random(20260825)
    for _ in range(1000):
        points = [
            (Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
             Fraction(rng.choice((1, 2, 3, -2))))
            for _ in range(rng.randint(1, 6))
        ]
        h0_total = rng.randint(0, 4)
        h0_plus = rng.randint(0, h0_total)
        h1_total = rng.randint(0, 8)
        scenario = lefschetz.LefschetzScenario(
            tuple(2 * t / d for t, d in points),
            h0_total=h0_total, h1_total=h1_total, h0_plus=h0_plus)
        number = sum((t / d for t, d in points), Fraction(0))
        twice = h1_total + (2 * h0_plus - h0_total) - number
        feasible = (twice.denominator == 1 and twice.numerator % 2 == 0
                    and 0 <= twice.numerator // 2 <= h1_total)
        try:
            plus, minus = lefschetz.split_eigendims(scenario)
        except lefschetz.Infeasible:
            assert not feasible
        else:
            assert feasible
            assert plus + minus == h1_total
            assert (plus - minus) == (2 * h0_plus - h0_total) - number


def test_c04_theta_eigendims():
    assert verlinde.theta_eigendims(2, 2) == (10, 6)
    for n in range(1, 11):
        plus, minus = verlinde.theta_eigendims(n, 2)
        assert plus + minus == (2 * n) ** 2


def test_c05_jacobian_group_law():
    rng = random.Random(20260825)
    pool = [d for d in [c.base for c in hy.enumerate_pic(CURVE13, 0)] if d.u.degree == 2]
    checked = 0
    while checked < 50:
        a, b = rng.choice(pool), rng.choice(pool)
        expected = oracles.chord_add(CURVE13, a, b)
        if expected is None:
            continue
        result = hy.cantor_add(CURVE13, a, b)
        assert (result.u, result.v) == expected
        checked += 1

    for _ in range(200):
        a, b, c = (rng.choice(PIC13) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + (-a) == ZERO13
        assert a + ZERO13 == a

    assert len(PIC13) == oracles.jacobian_order(13, [0, -1, 0, 0, 0, 1]) == 144


def test_c06_riemann_roch_suite():
    K = canonical_class(CURVE13)
    for degree in range(5):
        for d in hy.enumerate_pic(CURVE13, degree):
            assert hy.h0(CURVE13, d) - hy.h0(CURVE13, K - d) == degree - 1
    assert hy.h0(CURVE13, K) == 2
    for w in hy.weierstrass_points(CURVE13):
        assert hy.h0(CURVE13, K + hy.point_class(w)) == 2
    effective = [d for d in hy.enumerate_pic(CURVE13, 1) if hy.h0(CURVE13, d) > 0]
    assert len(effective) == len(hy.curve_points(CURVE13)) == 14


def test_c07_theta_translate_intersection():
    rng = random.Random(20260825)
    deg1 = hy.enumerate_pic(CURVE13, 1)
    K = canonical_class(CURVE13)
    candidates = [M for M in PIC13 if 2 * M != ZERO13]
    for M in rng.sample(candidates, 20):
        pair = hy.theta_translate_intersection(CURVE13, M)
        brute = {
            L for L in deg1
            if hy.h0(CURVE13, L + M) >= 1 and hy.h0(CURVE13, K - L + M) >= 1
        }
        assert set(pair) == brute
        assert K - pair[0] == pair[1]
    with pytest.raises(hy.OrderTwo):
        hy.theta_translate_intersection(CURVE13, ZERO13)
    nonzero_torsion = next(t for t in hy.two_torsion(CURVE13) if t != ZERO13)
    with pytest.raises(hy.OrderTwo):
        hy.theta_translate_intersection(CURVE13, nonzero_torsion)


def test_c08_two_torsion_group():
    torsion = hy.two_torsion(CURVE13)
    assert len(torsion) == len(set(torsion)) == 16
    for t in torsion:
        assert 2 * t == ZERO13
        assert -t == t
    ws = hy.weierstrass_points(CURVE13)
    gens = [hy.point_class(w) - hy.point_class(ws[-1]) for w in ws[:4]]
    seen = set()
    for mask in range(16):
        total = ZERO13
        for bit, gen in enumerate(gens):
            if mask >> bit & 1:
                total = total + gen
        seen.add(total)
    # 16 distinct subset sums of four order-2 generators: free of rank 4 over Z/2
    assert seen == set(torsion)
    assert len(seen) == 16


def test_c09_bookkeeping_chain():
    assert bundles.chi(bundles.BundleSymbol(4, 8)) == 4
    assert bundles.slope(bundles.BundleSymbol(3, 5)) == Fraction(5, 3)
    f = bundles.BundleSymbol(3, 5)
    assert bundles.slope(bundles.BundleSymbol(1, 2)) > bundles.slope(f)
    assert bundles.slope(bundles.BundleSymbol(1, 1)) < bundles.slope(f)
    assert bundles.moduli_dim(2, 2) == 10
    inv = bundles.raynaud_invariants(2)
    assert (inv.mukai_rank, inv.duplication_degree,
            inv.pullback_degree_on_Y, inv.slope_Ec) == (4, 16, 64, 1)
    assert inv.theta_self_int_2theta == 8


def test_c10_pencil_trick_chain():
    K = canonical_class(CURVE13)
    x = hy.point_class(CURVE13.point(2, 2))
    assert hy.h0(CURVE13, K + x) == 2
    assert hy.h0(CURVE13, 2 * K + x) == 4
    assert hy.h0(CURVE13, 3 * K + 2 * x) == 7
    kernel = 2  # = h0(K + x), the kernel of the multiplication map
    image = 2 * 4 - kernel
    assert image == 6
    assert hy.h0(CURVE13, 3 * K + 2 * x) - image == 1


def test_c11_cli_report(capsys, monkeypatch):
    assert cli.main(["report"]) == 0
    clean = capsys.readouterr().out
    assert clean.splitlines()[-1] == "21 rows, 21 match, 0 mismatch"

    monkeypatch.setitem(report.EXPECTED, "gamma", "1/604801")
    assert cli.main(["report"]) == 1
    faulty = capsys.readouterr().out
    flipped = [
        line for line in faulty.splitlines()[1:-1] if "  mismatch" in line
    ]
    assert len(flipped) == 1
    assert flipped[0].startswith("gamma")
