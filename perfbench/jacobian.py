"""Workload `jacobian`: Cantor arithmetic on seeded genus-2 curves over F_p.

Curves cycle through four field sizes: the reference curve y^2 = x^5 - x
over F13, a random curve over F_p with 17 <= p <= 37, p near 10^4 and p
near 10^6.  Each curve is new to the process and gets BATCH ops, so every
curve pays its own first-use cost (the lazy square-root table of its
field).  Classes are built with the benchmark's own arithmetic (modp).
Oracles: chord or own-Cantor addition, the (a+b)-b == a round trip,
order*a == 0 with the order from point counts (p <= 37), own scalar
multiples otherwise, and the genus-2 h0 and theta-translate rules.
"""
from __future__ import annotations

import itertools

import modp
import thetalab.hyperelliptic as hy
from thetalab.polys import Poly

REFERENCE = (13, [0, 12, 0, 0, 0, 1])
BANDS = [None, (17, 38), (10_000, 10_200), (999_000, 1_000_004)]
MIX = {"add": 20, "double": 8, "sub": 8, "h0": 6, "theta": 6, "scalar": 2}
BATCH = sum(MIX.values())
POOL = 6


class Jacobian:
    def __init__(self, rng, root, fault=False):
        self.rng = rng
        self.domain_errors = 0
        if fault:
            from tracer import patch
            original = hy.cantor_add
            patch(original, lambda c, a, b: hy.negate(c, original(c, a, b)))
        # warm-up on a curve of its own, so timed curves still pay first use
        for run, check in itertools.islice(self._batch(*self._curve(BANDS[-1])), BATCH // 2):
            try:
                out, exc = run(), None
            except Exception as e:  # judged by check, like a timed op
                out, exc = None, e
            check(out, exc)
        self.domain_errors = 0

    def _curve(self, band):
        if band is None:
            return REFERENCE
        p = modp.prime_in(self.rng, *band)
        return p, modp.random_quintic(self.rng, p)

    def ops(self, in_process=True):
        while True:
            for band in BANDS:
                # ops are made lazily: sub ops reuse the program's earlier sums
                yield from self._batch(*self._curve(band))

    def _batch(self, p, f):
        rng = self.rng
        curve = hy.new_curve(f"Fp:{p}", f[:5])
        F = curve.field

        def prog(d):
            return hy.MumfordDivisor(curve, Poly(F, d[0]), Poly(F, d[1]))

        def sample():
            pt = modp.point_class(*modp.random_point(rng, f, p), p)
            return modp.add(f, pt, modp.point_class(*modp.random_point(rng, f, p), p), p)
        own = [sample() for _ in range(POOL - 1)]
        own.append(modp.point_class(*modp.random_point(rng, f, p), p))
        pool = [(d, prog(d)) for d in own]
        order = modp.jacobian_order(p, *modp.count_points(f, p)) if p <= 37 else None
        sums = []  # (a, b, program's a+b)
        kinds = [k for k, n in MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            yield self._op(kind if sums else "add", curve, f, p, pool, sums, order)

    def _op(self, kind, curve, f, p, pool, sums, order):
        rng = self.rng
        (a, pa), (b, pb) = rng.choice(pool), rng.choice(pool)
        if kind == "add":
            def run():
                return hy.cantor_add(curve, pa, pb)

            def expect(out):
                sums.append((a, b, pb, out))
                return modp.add(f, a, b, p)
        elif kind == "double":
            def run():
                return hy.cantor_add(curve, pa, pa)

            def expect(out):
                return modp.cantor_add(f, a, a, p)
        elif kind == "sub":
            a, b, pb, pc = rng.choice(sums)

            def run():
                return hy.cantor_add(curve, pc, hy.negate(curve, pb))

            def expect(out):
                return a
        elif kind == "scalar":
            if order:
                n = order * rng.randrange(2 ** 63 // order, 2 ** 64 // order)
            else:
                n = rng.randrange(2 ** 63, 2 ** 64)

            def run():
                return hy.scalar_mul(curve, pa, n)

            def expect(out):
                return modp.ZERO if order else modp.scalar(f, a, n, p)
        elif kind == "h0":
            degree = rng.randrange(-1, 5)
            cls = hy.PicClass(pa, degree)

            def run():
                return hy.h0(curve, cls)

            def expect(out):
                return modp.h0(a[0], degree)
        else:
            m = hy.PicClass(pa, 0)

            def run():
                return hy.theta_translate_intersection(curve, m)

            def expect(out):
                return _theta(f, a, p)

        def check(out, exc):
            if kind == "theta":
                want = expect(out)
                if isinstance(want, str):  # an expected DoesNotSplit or OrderTwo
                    ok = exc is not None and type(exc).__name__ == want
                    self.domain_errors += ok
                    return ok
                return exc is None and sorted(
                    (_own(c.base), c.degree) for c in out) == sorted((w, 1) for w in want)
            if exc is not None:
                return False
            want = expect(out)
            return out == want if kind == "h0" else _own(out) == want
        return run, check


def _own(d):
    return (list(d.u.coeffs), list(d.v.coeffs))


def _theta(f, m, p):
    """The two degree-1 classes M + [iota q] with q1 + q2 = K + 2M, or the
    name of the domain error the program must raise."""
    u, v = modp.cantor_add(f, m, m, p)
    if len(u) == 1:
        return "OrderTwo"
    if len(u) == 2:
        x = (-u[0]) % p
        return [modp.add(f, m, modp.point_class(x, -modp.peval(v, x, p), p), p), m]
    root = modp.sqrt_mod(u[1] * u[1] - 4 * u[0], p)
    if root is None:
        return "DoesNotSplit"
    half = pow(2, -1, p)
    xs = [(-u[1] + s) * half % p for s in (root, -root)]
    return [modp.add(f, m, modp.point_class(x, -modp.peval(v, x, p), p), p) for x in xs]

