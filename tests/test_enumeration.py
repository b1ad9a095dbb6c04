"""Reduced-pair enumeration against the p^4 scan, on seeded curves over
every odd prime field it accepts."""
import random

import pytest

from thetalab import hyperelliptic as hy

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


class TestReducedPairs:
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_matches_p4_scan(self, p):
        for curve in _seeded_curves(p):
            pairs = [(d.u.coeffs, d.v.coeffs) for d in hy._all_reduced(curve)]
            assert pairs == list(oracles.ref_all_reduced(p, curve.f.coeffs))
            assert len(pairs) == oracles.jacobian_order(p, curve.f.coeffs)

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_curves_reach_both_branches(self, p):
        """v = v0 on a quadratic u (the v1 = 0 branch) and u = (x - a)^2."""
        quadratic = [d for curve in _seeded_curves(p)
                     for d in hy._all_reduced(curve) if d.u.degree == 2]
        assert any(d.v.degree < 1 for d in quadratic)
        assert any((d.u[1] ** 2 - 4 * d.u[0]) % p == 0 for d in quadratic)

    def test_curves_over_one_field_share_polynomials(self):
        """u and v come from one table per field, not one Poly per pair."""
        first = hy._all_reduced(hy.new_curve("Fp:11", [3, 1, 0, 2, 0]))
        second = hy._all_reduced(hy.new_curve("Fp:11", [5, 0, 7, 1, 0]))
        for attr in ("u", "v"):
            seen = {getattr(d, attr): getattr(d, attr) for d in first}
            shared = [getattr(d, attr) for d in second if getattr(d, attr) in seen]
            assert len(shared) > 1
            assert all(seen[poly] is poly for poly in shared)
