"""The benchmark's own arithmetic over F_p, independent of thetalab.

Polynomials are lists of ints in 0..p-1, lowest degree first, with no
trailing zeros.  A divisor class is a reduced Mumford pair (u, v) of such
lists.  This module makes the jacobian and enumerate inputs (curves,
points, classes) and checks the program's answers; it never imports the
program.
"""
from __future__ import annotations


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def pneg(a, p):
    return [(-c) % p for c in a]


def psub(a, b, p):
    return padd(a, pneg(b, p), p)


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim([c % p for c in out])


def pdivmod(a, b, p):
    rem = list(a)
    if len(rem) < len(b):
        return [], trim(rem)
    inv = pow(b[-1], -1, p)
    quo = [0] * (len(rem) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        quo[k] = c
        if c:
            for i, y in enumerate(b):
                rem[k + i] = (rem[k + i] - c * y) % p
    return trim(quo), trim(rem[:len(b) - 1])


def pmod(a, b, p):
    return pdivmod(a, b, p)[1]


def monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def xgcd(a, b, p):
    """(g, s, t) with g = s*a + t*b and g monic (or zero)."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if not r0:
        return r0, s0, t0
    inv = [pow(r0[-1], -1, p)]
    return monic(r0, p), pmul(s0, inv, p), pmul(t0, inv, p)


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def derivative(a, p):
    return trim([i * c % p for i, c in enumerate(a)][1:])


def legendre(a, p):
    """1 for a nonzero square, -1 for a nonsquare, 0 for zero."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a, p):
    """A square root of a mod p by Tonelli-Shanks, or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_in(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def is_squarefree(f, p):
    return len(xgcd(f, derivative(f, p), p)[0]) == 1


def random_quintic(rng, p):
    """A random monic squarefree quintic, as its six coefficients."""
    while True:
        f = [rng.randrange(p) for _ in range(5)] + [1]
        if is_squarefree(f, p):
            return f


def split_quintic(rng, p):
    """A monic quintic with five distinct roots in F_p."""
    f = [1]
    for r in rng.sample(range(p), 5):
        f = pmul(f, [(-r) % p, 1], p)
    return f


def random_point(rng, f, p):
    while True:
        x = rng.randrange(p)
        y = sqrt_mod(peval(f, x, p), p)
        if y is not None:
            return x, (y if rng.random() < 0.5 else (-y) % p)


ZERO = ([1], [])


def point_class(x, y, p):
    """[(x, y)] - [infinity]."""
    return ([(-x) % p, 1], trim([y % p]))


def _reduce(f, u, v, p):
    while len(u) > 3:
        u = monic(pdivmod(psub(f, pmul(v, v, p), p), u, p)[0], p)
        v = pmod(pneg(v, p), u, p)
    return (monic(u, p), pmod(v, u, p))


def cantor_add(f, a, b, p):
    """Cantor composition and reduction."""
    (u1, v1), (u2, v2) = a, b
    d1, e1, e2 = xgcd(u1, u2, p)
    d, c1, c2 = xgcd(d1, padd(v1, v2, p), p)
    u = pdivmod(pmul(u1, u2, p), pmul(d, d, p), p)[0]
    num = padd(padd(pmul(pmul(c1, e1, p), pmul(u1, v2, p), p),
                    pmul(pmul(c1, e2, p), pmul(u2, v1, p), p), p),
               pmul(c2, padd(pmul(v1, v2, p), f, p), p), p)
    v = pmod(pdivmod(num, d, p)[0], u, p)
    return _reduce(f, u, v, p)


def chord_add(f, a, b, p):
    """Addition by CRT interpolation for coprime degree-2 u's, or None.

    V = v_a mod u_a and V = v_b mod u_b makes (u_a u_b, V) a semi-reduced
    pair of the sum; one reduction step gives the reduced pair.
    """
    (ua, va), (ub, vb) = a, b
    if len(ua) != 3 or len(ub) != 3:
        return None
    g, s, t = xgcd(ua, ub, p)
    if len(g) != 1:
        return None
    big = pmul(ua, ub, p)
    v = pmod(padd(pmul(pmul(va, t, p), ub, p), pmul(pmul(vb, s, p), ua, p), p), big, p)
    return _reduce(f, big, v, p)


def add(f, a, b, p):
    return chord_add(f, a, b, p) or cantor_add(f, a, b, p)


def scalar(f, a, n, p):
    acc, base = ZERO, a
    while n:
        if n & 1:
            acc = add(f, acc, base, p)
        base = cantor_add(f, base, base, p)
        n >>= 1
    return acc


def count_points(f, p):
    """(#C(F_p), #C(F_p^2)), the point at infinity included.

    F_p^2 = F_p[s]/(s^2 - t) for a nonsquare t; a nonzero z is a square in
    F_p^2 exactly when its norm is a square in F_p.
    """
    n1 = 1 + sum(1 + legendre(peval(f, x, p), p) for x in range(p))
    t = next(c for c in range(2, p) if legendre(c, p) == -1)
    n2 = 1
    for a in range(p):
        for b in range(p):
            za, zb = 0, 0
            for c in reversed(f):
                za, zb = (za * a + zb * b * t + c) % p, (za * b + zb * a) % p
            n2 += 1 + legendre(za * za - t * zb * zb, p)
    return n1, n2


def jacobian_order(p, n1, n2):
    """|Pic^0| = L(1) from the point counts, where the zeta numerator is
    L(T) = 1 + a1 T + a2 T^2 + p a1 T^3 + p^2 T^4."""
    a1 = n1 - p - 1
    a2 = (n2 - p * p - 1 + a1 * a1) // 2
    return 1 + a1 + a2 + p * a1 + p * p


def h0(u, degree):
    """dim H^0 of the class [div(u, v)] + (degree - deg u)[infinity], genus 2."""
    k = len(u) - 1
    if degree < 0:
        return 0
    if degree == 0:
        return 1 if k == 0 else 0
    if degree == 1:
        return 1 if k <= 1 else 0
    if degree == 2:
        return 2 if k == 0 else 1
    return degree - 1


def valid_pair(f, u, v, p):
    """Whether (u, v) is a reduced Mumford pair on y^2 = f."""
    return (bool(u) and u[-1] == 1 and len(u) <= 3 and len(v) < len(u)
            and not pmod(psub(pmul(v, v, p), f, p), u, p))
