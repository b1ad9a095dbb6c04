"""Workload `enumerate`: exhaustive class and point enumeration over F_p, p <= 37.

One op is `enumerate_pic` at a seeded degree, then `curve_points`, then
`two_torsion` when f splits (every SPLIT_EVERY-th new curve is built from
five distinct roots).  Ops come in blocks of BLOCK: one on a curve new to
the process and the rest on curves already enumerated, rebuilt from their
coefficients as a fresh caller would.  New and revisited curves each cycle
through PRIMES in seeded orders, so every run sees the same mix of field
sizes, and the set of distinct curves (and any cache of them) grows
through the run.  Oracles: |Pic^d| is the Jacobian order from point counts
over F_p and F_p^2, every class is a distinct reduced pair of degree d, the
points are the F_p-points, and J[2] has 16 distinct classes killed by 2.
"""
from __future__ import annotations

import modp
import thetalab.hyperelliptic as hy

PRIMES = (17, 19, 23, 29, 31, 37)
BLOCK = 8
SPLIT_EVERY = len(PRIMES)


class Enumeration:
    def __init__(self, rng, root, fault=False):
        self.rng = rng
        self.curves = {}  # p -> [(p, f, split)] already enumerated
        self._facts = {}  # (p, f) -> (#C(F_p), |J(F_p)|)
        self._seen = {}  # (p, f) -> hash of the validated set of classes
        if fault:
            from tracer import patch
            original = hy.enumerate_pic
            patch(original, lambda c, d: original(c, d)[:-1])
        warm = (PRIMES[0], modp.split_quintic(rng, PRIMES[0]))
        run, check = self._op(*warm, split=True)
        check(run(), None)

    def ops(self, in_process=True):
        rng = self.rng
        revisit = self._cycle()
        made = 0
        for p in self._cycle():
            split = made % SPLIT_EVERY == 0
            f = modp.split_quintic(rng, p) if split else modp.random_quintic(rng, p)
            made += 1
            self.curves.setdefault(p, []).append((p, f, split))
            yield self._op(p, f, split)
            for _ in range(BLOCK - 1):
                yield self._op(*rng.choice(self.curves.get(next(revisit)) or self.curves[p]))

    def _cycle(self):
        """PRIMES over and over, each round in a seeded order."""
        while True:
            primes = list(PRIMES)
            self.rng.shuffle(primes)
            yield from primes

    def _op(self, p, f, split):
        degree = self.rng.randrange(-2, 5)
        curve = hy.new_curve(f"Fp:{p}", f[:5])

        def run():
            classes = hy.enumerate_pic(curve, degree)
            points = hy.curve_points(curve)
            return classes, points, hy.two_torsion(curve) if split else None

        def check(out, exc):
            if exc is not None:
                return False
            classes, points, torsion = out
            n1, order = self._fact(p, f)
            pairs = frozenset((tuple(c.base.u.coeffs), tuple(c.base.v.coeffs)) for c in classes)
            key = (p, tuple(f))
            if key in self._seen:  # same set as the validated first answer
                ok = hash(pairs) == self._seen[key] and len(classes) == len(pairs)
            else:
                ok = len(classes) == order == len(pairs) and all(
                    modp.valid_pair(f, list(u), list(v), p) for u, v in pairs)
                self._seen[key] = hash(pairs) if ok else None
            ok = ok and all(c.degree == degree for c in classes)
            affine = {(q.x, q.y) for q in points[:-1]}
            ok = ok and (len(points) == n1 == len(affine) + 1 and points[-1].at_infinity
                         and all((y * y - modp.peval(f, x, p)) % p == 0 for x, y in affine))
            if torsion is not None:
                halves = {(tuple(t.base.u.coeffs), tuple(t.base.v.coeffs)) for t in torsion}
                ok = ok and len(torsion) == len(halves) == 16 and all(
                    modp.cantor_add(f, (list(u), list(v)), (list(u), list(v)), p) == modp.ZERO
                    for u, v in halves)
            return ok
        return run, check

    def _fact(self, p, f):
        key = (p, tuple(f))
        if key not in self._facts:
            n1, n2 = modp.count_points(f, p)
            self._facts[key] = (n1, modp.jacobian_order(p, n1, n2))
        return self._facts[key]
