"""Reduced-pair and point enumeration against the p^4 scan and the
Tonelli-Shanks point list, on seeded curves over every odd prime field it
accepts, and the size of the class cache."""
import random
import tracemalloc
from array import array

import pytest

from thetalab import hyperelliptic as hy
from thetalab.fields import PrimeField
from thetalab.polys import Poly

import oracles

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _expand(roots, p, tail=(1,)):
    """Coefficients, low to high, of tail * prod (x - r) mod p."""
    coeffs = list(tail)
    for r in roots:
        coeffs = [(a - r * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _seeded_curves(p):
    """A random squarefree quintic over F_p, and one with as many roots in
    F_p as it can have: five distinct ones, or 0, 1, 2 times x^2 + 1 at p = 3."""
    rng = random.Random(7000 + p)
    while True:
        try:
            generic = hy.new_curve(f"Fp:{p}", [rng.randrange(p) for _ in range(5)])
            break
        except hy.NotSquarefree:
            pass
    if p == 3:
        split = _expand([0, 1, 2], p, tail=(1, 0, 1))
    else:
        split = _expand(rng.sample(range(p), 5), p)
    return generic, hy.new_curve(f"Fp:{p}", split[:5])


def _pairs(curve):
    return [c.base for c in hy.enumerate_pic(curve, 0)]


class TestReducedPairs:
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_matches_p4_scan(self, p):
        for curve in _seeded_curves(p):
            bases = _pairs(curve)
            pairs = [(d.u.coeffs, d.v.coeffs) for d in bases]
            assert pairs == list(oracles.ref_all_reduced(p, curve.f.coeffs))
            assert len(pairs) == oracles.jacobian_order(p, curve.f.coeffs)
            assert bases == [hy.MumfordDivisor(curve, d.u, d.v) for d in bases]

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_curves_reach_both_branches(self, p):
        """v = v0 on a quadratic u (the v1 = 0 branch) and u = (x - a)^2."""
        quadratic = [d for curve in _seeded_curves(p)
                     for d in _pairs(curve) if d.u.degree == 2]
        assert any(d.v.degree < 1 for d in quadratic)
        assert any((d.u[1] ** 2 - 4 * d.u[0]) % p == 0 for d in quadratic)

    def test_curves_over_one_field_share_polynomials(self):
        """u and v come from one table per field, not one Poly per pair."""
        first = _pairs(hy.new_curve("Fp:11", [3, 1, 0, 2, 0]))
        second = _pairs(hy.new_curve("Fp:11", [5, 0, 7, 1, 0]))
        for attr in ("u", "v"):
            seen = {getattr(d, attr): getattr(d, attr) for d in first}
            shared = [getattr(d, attr) for d in second if getattr(d, attr) in seen]
            assert len(shared) > 1
            assert all(seen[poly] is poly for poly in shared)

    def test_a_bad_root_table_raises(self, monkeypatch):
        """Every pair is checked in ints as it is found."""
        roots = hy._square_roots

        def shifted(p):
            return tuple(tuple((y + 1) % p for y in ys) for ys in roots(p))
        curve = hy.new_curve("Fp:13", [1, 2, 3, 4, 5])
        monkeypatch.setattr(hy, "_square_roots", shifted)
        with pytest.raises(hy.InvariantViolated):
            hy._all_reduced.__wrapped__(curve)
        with pytest.raises(hy.InvariantViolated):
            hy.curve_points(curve)

    def test_a_double_root_raises(self):
        """D = B = r1 = 0 at u = x^2 means x^2 divides f, which the solver
        refuses instead of skipping; HyperellipticCurve never lets it in."""
        curve = object.__new__(hy.HyperellipticCurve)
        object.__setattr__(curve, "f", Poly(PrimeField(7), _expand([0, 0, 1, 2, 3], 7)))
        with pytest.raises(hy.InvariantViolated, match="divides f"):
            hy._all_reduced.__wrapped__(curve)


class TestClassCache:
    def test_holds_two_byte_indices(self):
        cached = hy._all_reduced(hy.new_curve("Fp:37", [3, 1, 4, 1, 5]))
        assert len(cached) == 2
        assert all(isinstance(a, array) and a.itemsize == 2 for a in cached)
        assert len(cached[0]) == len(cached[1]) == 1562

    def test_ten_new_curves_cost_at_most_8_bytes_a_pair(self):
        hy.enumerate_pic(hy.new_curve("Fp:37", [3, 1, 4, 1, 5]), 0)  # the F37 tables
        rng = random.Random(37037)
        curves = set()
        while len(curves) < 10:
            try:
                curves.add(hy.new_curve("Fp:37", [rng.randrange(37) for _ in range(5)]))
            except hy.NotSquarefree:
                pass
        misses = hy._all_reduced.cache_info().misses
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs = sum(len(hy._all_reduced(curve)[0]) for curve in curves)
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert hy._all_reduced.cache_info().misses == misses + 10
        assert cost / pairs <= 8


class TestCurvePoints:
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_matches_tonelli_shanks(self, p):
        for curve in _seeded_curves(p):
            points = hy.curve_points(curve)
            assert points == oracles.ref_curve_points(curve)
            assert all(type(q.x) is int and type(q.y) is int for q in points[:-1])
