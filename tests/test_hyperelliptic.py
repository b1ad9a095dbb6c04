import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from thetalab import hyperelliptic as hy
from thetalab.fields import PrimeField, QQ
from thetalab import polys
from thetalab.polys import Poly, parse_poly

import oracles
from conftest import CURVE5_SPEC, CURVE7_SPEC, canonical_class, class_mul, class_neg, class_sub

F13 = PrimeField(13)
CURVE13 = hy.parse_curve("field=Fp:13; f=0,-1,0,0,0")
PIC13 = hy.enumerate_pic(CURVE13, 0)
ZERO13 = hy.PicClass(hy.MumfordDivisor.zero(CURVE13), 0)

classes13 = st.sampled_from(PIC13)


def pic_zero(curve):
    return hy.PicClass(hy.MumfordDivisor.zero(curve), 0)


def random_points(curve, rng, count):
    """Seeded affine points with y != 0 over a prime field."""
    F = curve.field
    points = []
    while len(points) < count:
        x = F(rng.randrange(F.p))
        y = F.sqrt(curve.f(x))
        if y:
            points.append(curve.point(x, y))
    return points


class TestCurveValidation:
    def test_x5_minus_x_is_valid(self, curve13):
        assert curve13.f == parse_poly("x^5 + 12*x", F13, max_degree=5)
        assert curve13.f.coeffs == (0, 12, 0, 0, 0, 1)

    def test_cubed_factor_rejected(self):
        with pytest.raises(hy.NotSquarefree):
            hy.new_curve("Q", [0, 0, 0, 1, -2, 1])  # x^3 (x - 1)^2

    def test_even_characteristic_rejected(self):
        with pytest.raises(hy.EvenCharacteristic):
            hy.new_curve("Fp:2", [0, 1, 0, 0, 0])

    def test_fifth_power_over_f5_rejected(self):
        # x^5 + 1 = (x + 1)^5 over F_5, caught via the vanishing derivative
        with pytest.raises(hy.NotSquarefree):
            hy.new_curve("Fp:5", [1, 0, 0, 0, 0])

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            hy.new_curve("Q", [0, 1, 0, 0, 0, 2])

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            hy.new_curve("Q", [0, 1, 0])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            hy.parse_curve("f=1,2,3,4,5")
        with pytest.raises(ValueError):
            hy.parse_curve("field=R; f=0,1,0,0,0")

    def test_point_validation(self, curve13):
        assert curve13.point(2, 2).y == 2
        with pytest.raises(ValueError):
            curve13.point(2, 3)


class TestWeierstrass:
    def test_f13_roots(self, curve13):
        points = hy.weierstrass_points(curve13)
        assert len(points) == 6
        assert points[-1].at_infinity
        assert {p.x for p in points[:-1]} == {0, 1, 5, 8, 12}
        assert all(p.y == 0 for p in points[:-1])

    def test_fixed_by_involution(self, curve13, curveq):
        for curve in (curve13, curveq):
            for w in hy.weierstrass_points(curve):
                assert hy.involution(w) == w
                assert w.at_infinity or w.y == 0

    def test_rational_curve_splits(self, curveq):
        points = hy.weierstrass_points(curveq)
        assert [p.x for p in points[:-1]] == [0, 1, 2, 3, 4]

    def test_does_not_split(self, curve5):
        with pytest.raises(hy.DoesNotSplit):
            hy.weierstrass_points(curve5)
        with pytest.raises(hy.DoesNotSplit):
            hy.weierstrass_points(hy.new_curve("Q", [1, 1, 0, 0, 0]))

    def test_rational_roots_match_sympy(self):
        """Seeded monic quintics over Q with 0 to 5 rational roots, some near
        10^15 and some with denominators, against sympy's roots over QQ."""
        rng = random.Random(515)
        x = sympy.Symbol("x")
        seen = 0
        while seen < 40:
            k = rng.randrange(6)
            roots = [Fraction(rng.choice([rng.randrange(-40, 41), rng.randrange(10**15 - 50, 10**15 + 50)])
                              * rng.choice([1, -1]), rng.choice([1, 1, 2, 3, 7, 10**6 + 3]))
                     for _ in range(k)]
            rest = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(5 - k)]
            expr = sympy.prod([x - sympy.Rational(r.numerator, r.denominator) for r in roots]) * (
                x ** (5 - k) + sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                                   for i, c in enumerate(rest)))
            coeffs = [Fraction(int(c.p), int(c.q))
                      for c in reversed(sympy.Poly(expr, x, domain="QQ").all_coeffs())]
            try:
                curve = hy.new_curve("Q", coeffs[:5])
            except hy.NotSquarefree:
                continue
            expected = {Fraction(int(r.p), int(r.q))
                        for r in sympy.Poly(expr, x, domain="QQ").ground_roots()}
            found = hy._rational_roots(curve.f)
            assert len(found) == len(set(found))
            assert set(found) == expected >= set(roots)
            seen += 1

    def test_fp_roots_match_brute_force(self):
        """Every odd p <= 37, on quintics with 0 to 5 planted roots (split
        ones included, repeated roots allowed): exactly the roots by search."""
        rng = random.Random(1906)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            for k in range(min(p, 5) + 1):
                for _ in range(4):
                    tail = [rng.randrange(p) for _ in range(5 - k)] + [1]
                    f = oracles.planted_roots(rng.sample(range(p), k), p, tail)
                    expected = [x for x in range(p)
                                if sum(c * x ** i for i, c in enumerate(f)) % p == 0]
                    assert hy._fp_roots(f, PrimeField(p)) == expected, (p, f)

    @pytest.mark.parametrize("p", [10007, 1000003, 10**9 + 7])
    def test_fp_roots_large_fields(self, p):
        """Every root found has f(e) = 0, the roots are sympy's linear factors,
        and weierstrass_points raises DoesNotSplit exactly when there are
        fewer than five."""
        rng = random.Random(p)
        x = sympy.Symbol("x")
        for k in (0, 1, 2, 3, 5, 5):
            tail = [rng.randrange(p) for _ in range(5 - k)] + [1]
            f = oracles.planted_roots(rng.sample(range(p), k), p, tail)
            roots = hy._fp_roots(f, PrimeField(p))
            assert all(sum(c * pow(e, i, p) for i, c in enumerate(f)) % p == 0 for e in roots)
            factors = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()[1]
            assert roots == sorted(-int(g.all_coeffs()[1]) % p for g, _ in factors if g.degree() == 1)
            curve = hy.new_curve(f"Fp:{p}", f[:5])
            if len(roots) < 5:
                with pytest.raises(hy.DoesNotSplit):
                    hy.weierstrass_points(curve)
            else:
                assert [w.x for w in hy.weierstrass_points(curve)[:5]] == roots

    def test_involution_on_affine_points(self, curve13):
        p = curve13.point(2, 2)
        assert hy.involution(p) == curve13.point(2, 11)
        assert hy.involution(hy.involution(p)) == p
        assert hy.involution(p) != p

    def test_fixed_points_are_weierstrass(self, curve13):
        fixed = [
            p for p in hy.curve_points(curve13)
            if hy.involution(p) == p
        ]
        assert fixed == hy.weierstrass_points(curve13)


class TestMumford:
    def test_from_point_and_zero(self, curve13):
        d = hy.MumfordDivisor.from_point(curve13.point(6, 3))
        assert str(d) == "u=x + 7; v=3"
        assert hy.MumfordDivisor.from_point(curve13.infinity()).is_zero

    def test_validation(self, curve13):
        with pytest.raises(ValueError):
            hy.MumfordDivisor(curve13, Poly(F13, (0, 2)), Poly(F13, ()))  # not monic
        with pytest.raises(ValueError):
            hy.MumfordDivisor(curve13, Poly(F13, (7, 1)), Poly(F13, (1, 1)))  # deg v too big
        with pytest.raises(ValueError):
            hy.MumfordDivisor(curve13, Poly(F13, (7, 1)), Poly(F13, (2,)))  # not on curve
        with pytest.raises(ValueError, match="mixed fields"):
            hy.MumfordDivisor(curve13, Poly(QQ, (0, 1)), Poly(QQ, ()))  # (0, 0) over Q

    def test_points_of_split_quadratic(self, curve13):
        d = hy.reduce_class(
            curve13, [(curve13.point(2, 2), 1), (curve13.point(6, 3), 1),
                      (curve13.infinity(), -2)]
        )
        assert d.base.points() == [curve13.point(2, 2), curve13.point(6, 3)]

    def test_points_of_double_root(self, curve13):
        d = hy.scalar_mul(
            curve13, hy.MumfordDivisor.from_point(curve13.point(11, 3)), 2
        )
        assert d.points() == [curve13.point(11, 3)] * 2

    def test_points_does_not_split(self):
        for d in [c.base for c in hy.enumerate_pic(CURVE13, 0)]:
            if d.u.degree == 2:
                disc = (d.u[1] * d.u[1] - 4 * d.u[0]) % 13
                if F13.sqrt(disc) is None:
                    with pytest.raises(hy.DoesNotSplit):
                        d.points()
                    return
        raise AssertionError("no irreducible quadratic found")


class TestGroupLaw:
    @settings(max_examples=200)
    @given(a=classes13, b=classes13, c=classes13)
    def test_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(a=classes13)
    def test_identity_and_inverse(self, a):
        assert a + ZERO13 == a
        assert a + class_neg(a) == ZERO13
        assert class_neg(class_neg(a)) == a

    @given(a=classes13, n=st.integers(-6, 6))
    def test_scalar_mul_matches_repeated_addition(self, a, n):
        total = ZERO13
        step = a if n >= 0 else class_neg(a)
        for _ in range(abs(n)):
            total = total + step
        assert class_mul(n, a) == total

    def test_empty_sums_are_zero(self, curve13):
        a = hy.parse_class(curve13, "u=x + 2; v=3").base
        zero = hy.MumfordDivisor.zero(curve13)
        assert hy.scalar_mul(curve13, a, 0) == zero
        assert hy.scalar_mul(curve13, a, 1) == a
        assert hy.reduce_class(curve13, []) == hy.PicClass(zero, 0)
        assert hy.reduce_class(curve13, [(curve13.infinity(), 2)]) == hy.PicClass(zero, 2)

    def test_chord_oracle_agreement(self, curve13, rng):
        pool = [d for d in [c.base for c in hy.enumerate_pic(curve13, 0)] if d.u.degree == 2]
        checked = 0
        while checked < 50:
            a, b = rng.choice(pool), rng.choice(pool)
            expected = oracles.chord_add(curve13, a, b)
            if expected is None:
                continue
            result = hy.cantor_add(curve13, a, b)
            assert (result.u, result.v) == expected
            checked += 1

    def test_class_count_matches_zeta_oracle(self, curve13, curve5, curve7):
        assert len(hy.enumerate_pic(curve13, 0)) == oracles.jacobian_order(
            13, [0, -1, 0, 0, 0, 1]) == 144
        assert len(hy.enumerate_pic(curve5, 0)) == oracles.jacobian_order(
            5, [1, 1, 0, 0, 0, 1]) == 36
        assert len(hy.enumerate_pic(curve7, 0)) == oracles.jacobian_order(
            7, [1, 0, 0, 0, 0, 1]) == 50

    def test_group_structure_f13(self):
        # (Z/2)^4 x (Z/3)^2: exponent 6, 16 elements killed by 2, 9 by 3
        assert all(class_mul(6, cl) == ZERO13 for cl in PIC13)
        assert sum(1 for cl in PIC13 if class_mul(2, cl) == ZERO13) == 16
        assert sum(1 for cl in PIC13 if class_mul(3, cl) == ZERO13) == 9
        assert len({class_mul(2, cl) for cl in PIC13}) == 9


class TestReduceClass:
    def test_point_minus_itself(self, curve13):
        p = curve13.point(2, 2)
        cls = hy.reduce_class(curve13, [(p, 1), (p, -1)])
        assert cls == pic_zero(curve13)

    def test_fibre_is_canonical(self, curve13):
        p = curve13.point(2, 2)
        cls = hy.reduce_class(curve13, [(p, 1), (hy.involution(p), 1)])
        assert cls == canonical_class(curve13)

    def test_idempotent_through_base(self, curve13):
        cls = hy.reduce_class(curve13, [(curve13.point(2, 2), 1), (curve13.point(6, 10), 1)])
        again = hy.reduce_class(curve13, [(q, 1) for q in cls.base.points()]) + hy.PicClass(
            hy.MumfordDivisor.zero(curve13), cls.degree - cls.base.u.degree)
        assert again == cls

    def test_equivalence_matches_fibre_oracle(self, curve13, rng):
        affine = hy.curve_points(curve13)[:-1]
        inf = curve13.infinity()
        agreements = 0
        equal_seen = 0
        for _ in range(300):
            p1, p2, q1, q2 = (rng.choice(affine) for _ in range(4))
            a = hy.reduce_class(curve13, [(p1, 1), (p2, 1), (inf, -2)])
            b = hy.reduce_class(curve13, [(q1, 1), (q2, 1), (inf, -2)])
            assert (a == b) == oracles.classes_equal(curve13, (p1, p2), (q1, q2))
            agreements += 1
            if a == b:
                equal_seen += 1
        assert agreements == 300
        assert equal_seen >= 1  # the sample hits genuinely equal classes too


class TestRiemannRoch:
    def test_full_sweep_degrees_0_to_4(self, curve13):
        K = canonical_class(curve13)
        for degree in range(5):
            for d in hy.enumerate_pic(curve13, degree):
                assert hy.h0(curve13, d) - hy.h0(curve13, class_sub(K, d)) == degree - 1

    def test_h0_canonical(self, curve13, curveq):
        for curve in (curve13, curveq):
            K = canonical_class(curve)
            assert hy.h0(curve, K) == 2
            assert hy.h0(curve, class_mul(3, K)) == 5

    def test_h0_canonical_plus_weierstrass(self, curve13):
        for w in hy.weierstrass_points(curve13):
            cls = canonical_class(curve13) + hy.point_class(w)
            assert hy.h0(curve13, cls) == 2

    def test_effective_degree_one_count_is_point_count(self, curve13):
        effective = [
            d for d in hy.enumerate_pic(curve13, 1) if hy.h0(curve13, d) > 0
        ]
        assert len(effective) == len(hy.curve_points(curve13)) == 14

    def test_h0_point_class(self, curve13):
        assert hy.h0(curve13, hy.point_class(curve13.point(2, 2))) == 1

    def test_h0_generic_degree_one_is_zero(self, curve13):
        non_effective = [
            d for d in hy.enumerate_pic(curve13, 1) if hy.h0(curve13, d) == 0
        ]
        assert len(non_effective) == 144 - 14

    def test_negative_degree(self, curve13):
        assert hy.h0(curve13, class_neg(canonical_class(curve13))) == 0

    def test_degree_zero(self, curve13):
        assert hy.h0(curve13, pic_zero(curve13)) == 1
        nontrivial = next(d for d in PIC13 if not d.base.is_zero)
        assert hy.h0(curve13, nontrivial) == 0

    def test_pencil_trick_dimension_chain(self, curve13):
        K = canonical_class(curve13)
        x = hy.point_class(curve13.point(2, 2))
        h_kx = hy.h0(curve13, K + x)
        h_2kx = hy.h0(curve13, class_mul(2, K) + x)
        h_3k2x = hy.h0(curve13, class_mul(3, K) + class_mul(2, x))
        assert (h_kx, h_2kx, h_3k2x) == (2, 4, 7)
        image_dim = h_kx * h_2kx - 2  # kernel of the pencil-trick map
        assert image_dim == 6
        assert h_3k2x - image_dim == 1


class TestSerre:
    def test_involutive(self, curve13):
        K = canonical_class(curve13)
        for L in hy.enumerate_pic(curve13, 1)[:20]:
            assert class_sub(K, class_sub(K, L)) == L

    def test_point_maps_to_conjugate(self, curve13):
        p = curve13.point(6, 3)
        assert class_sub(canonical_class(curve13), hy.point_class(p)) == hy.point_class(
            hy.involution(p))

    def test_sum_with_image_is_canonical(self, curve13):
        K = canonical_class(curve13)
        for L in hy.enumerate_pic(curve13, 1)[:20]:
            assert L + class_sub(K, L) == K

    def test_fixed_classes_are_the_16_theta_characteristics(self, curve13):
        K = canonical_class(curve13)
        fixed = [L for L in hy.enumerate_pic(curve13, 1) if class_sub(K, L) == L]
        assert len(fixed) == 16


class TestKm2:
    def test_zero_class_raises_order_two(self, curve13):
        with pytest.raises(hy.OrderTwo):
            hy.km2_points(curve13, pic_zero(curve13))

    def test_two_torsion_raises_order_two(self, curve13):
        for t in hy.two_torsion(curve13):
            with pytest.raises(hy.OrderTwo):
                hy.km2_points(curve13, t)

    def test_wrong_degree(self, curve13):
        with pytest.raises(hy.WrongDegree):
            hy.km2_points(curve13, canonical_class(curve13))

    def test_pair_lies_in_k_plus_2m(self, curve13, rng):
        candidates = [M for M in PIC13 if class_mul(2, M) != ZERO13]
        for M in rng.sample(candidates, 20):
            q1, q2 = hy.km2_points(curve13, M)
            target = canonical_class(curve13) + class_mul(2, M)
            assert hy.reduce_class(curve13, [(q1, 1), (q2, 1)]) == target

    def test_pair_matches_exhaustive_search(self, curve13, rng):
        points = hy.curve_points(curve13)
        candidates = [M for M in PIC13 if class_mul(2, M) != ZERO13]
        for M in rng.sample(candidates, 12):
            target = canonical_class(curve13) + class_mul(2, M)
            found = [
                (points[i], points[j])
                for i in range(len(points))
                for j in range(i, len(points))
                if hy.reduce_class(curve13, [(points[i], 1), (points[j], 1)]) == target
            ]
            assert len(found) == 1
            assert sorted(found[0], key=oracles.point_key) == sorted(
                hy.km2_points(curve13, M), key=oracles.point_key)

    def test_does_not_split_case(self, curve7):
        M = hy.parse_class(curve7, "u=x^2 + 6*x; v=3*x + 1; d=0")
        with pytest.raises(hy.DoesNotSplit):
            hy.km2_points(curve7, M)


class TestThetaTranslate:
    def test_matches_enumeration_20_random(self, curve13, rng):
        K = canonical_class(curve13)
        deg1 = hy.enumerate_pic(curve13, 1)
        candidates = [M for M in PIC13 if class_mul(2, M) != ZERO13]
        for M in rng.sample(candidates, 20):
            returned = set(hy.theta_translate_intersection(curve13, M))
            brute = {
                L for L in deg1
                if hy.h0(curve13, L + M) >= 1 and hy.h0(curve13, class_sub(K, L) + M) >= 1
            }
            assert returned == brute

    def test_swapped_by_serre(self, curve13, curve7, rng):
        for curve in (curve13, curve7):
            zero = pic_zero(curve)
            K = canonical_class(curve)
            candidates = [
                M for M in hy.enumerate_pic(curve, 0) if class_mul(2, M) != zero
            ]
            for M in rng.sample(candidates, 10):
                try:
                    first, second = hy.theta_translate_intersection(curve, M)
                except hy.DoesNotSplit:
                    continue
                assert class_sub(K, first) == second
                assert class_sub(K, second) == first

    def test_distinct_pair_exists(self, curve7):
        M = hy.parse_class(curve7, "u=x^2; v=1; d=0")
        first, second = hy.theta_translate_intersection(curve7, M)
        assert first != second
        assert class_sub(canonical_class(curve7), first) == second

    def test_membership_symmetry(self, curve13, rng):
        # L satisfies both membership conditions iff K - L does
        K = canonical_class(curve13)
        deg1 = hy.enumerate_pic(curve13, 1)
        candidates = [M for M in PIC13 if class_mul(2, M) != ZERO13]
        for M in rng.sample(candidates, 5):
            for L in rng.sample(deg1, 30):
                direct = (hy.h0(curve13, L + M) >= 1
                          and hy.h0(curve13, class_sub(K, L) + M) >= 1)
                dual = class_sub(K, L)
                mirrored = (hy.h0(curve13, dual + M) >= 1
                            and hy.h0(curve13, class_sub(K, dual) + M) >= 1)
                assert direct == mirrored

    def test_order_two_propagates(self, curve13):
        with pytest.raises(hy.OrderTwo):
            hy.theta_translate_intersection(curve13, pic_zero(curve13))


class TestTwoTorsion:
    def test_sixteen_distinct_self_inverse(self, curve13):
        torsion = hy.two_torsion(curve13)
        assert len(torsion) == len(set(torsion)) == 16
        for t in torsion:
            assert class_mul(2, t) == ZERO13
            assert class_neg(t) == t

    def test_closed_under_addition(self, curve13):
        torsion = set(hy.two_torsion(curve13))
        for a in torsion:
            for b in torsion:
                assert a + b in torsion

    def test_generated_by_weierstrass_differences(self, curve13):
        ws = hy.weierstrass_points(curve13)
        gens = [class_sub(hy.point_class(w), hy.point_class(ws[-1])) for w in ws[:4]]
        sums = set()
        for mask in range(16):
            total = pic_zero(curve13)
            for bit, gen in enumerate(gens):
                if mask >> bit & 1:
                    total = total + gen
            sums.add(total)
        assert sums == set(hy.two_torsion(curve13))

    def test_fifth_difference_is_sum_of_generators(self, curve13):
        ws = hy.weierstrass_points(curve13)
        gens = [class_sub(hy.point_class(w), hy.point_class(ws[-1])) for w in ws[:4]]
        total = pic_zero(curve13)
        for gen in gens:
            total = total + gen
        fifth = class_sub(hy.point_class(ws[4]), hy.point_class(ws[-1]))
        assert fifth == total

    def test_differences_have_order_exactly_two(self, curve13):
        ws = hy.weierstrass_points(curve13)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                diff = class_sub(hy.point_class(ws[i]), hy.point_class(ws[j]))
                assert diff != ZERO13
                assert class_mul(2, diff) == ZERO13

    def test_does_not_split(self, curve5):
        with pytest.raises(hy.DoesNotSplit):
            hy.two_torsion(curve5)


def _split_curve(field, roots):
    """y^2 = prod of (x - r) over the five roots."""
    f = (1,)
    for r in roots:
        f = polys.mul(f, (field(-r), 1), field)
    return hy.HyperellipticCurve(Poly(field, f))


class TestTwoTorsionClosedForm:
    """The closed form against the 32-addition oracle."""

    @staticmethod
    def check(curve):
        torsion = hy.two_torsion(curve)
        assert torsion == oracles.ref_two_torsion(curve)
        zero = hy.MumfordDivisor.zero(curve)
        for t in torsion:
            assert hy.cantor_add(curve, t.base, t.base) == zero

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10007, 1000003])
    def test_matches_cantor_oracle(self, p):
        self.check(_split_curve(PrimeField(p), random.Random(p).sample(range(p), 5)))

    @pytest.mark.parametrize("roots", [
        (0, 1, 2, 3, 4),
        (Fraction(-7, 2), Fraction(-1, 3), 0, Fraction(5, 4), 9),
    ])
    def test_matches_cantor_oracle_over_q(self, roots):
        self.check(_split_curve(QQ, roots))

    def test_nothing_splits_over_f3(self):
        # F3 has three elements, so no squarefree quintic splits there
        curve = hy.parse_curve("field=Fp:3; f=1,2,0,0,0")
        with pytest.raises(hy.DoesNotSplit):
            hy.two_torsion(curve)
        with pytest.raises(hy.DoesNotSplit):
            oracles.ref_two_torsion(curve)


class TestInvariantViolated:
    """A broken invariant raises a coded error, which python -O keeps."""

    @staticmethod
    def reduce_to_canonical(curve, points):
        return canonical_class(curve)

    def test_km2_pair_not_in_k_plus_2m(self, curve13, monkeypatch):
        M = hy.parse_class(curve13, "u=x + 2; v=3; d=0")
        monkeypatch.setattr(hy, "reduce_class", self.reduce_to_canonical)
        with pytest.raises(hy.InvariantViolated) as info:
            hy.km2_points(curve13, M)
        assert info.value.code == "INVARIANT_VIOLATED"

    def test_two_torsion_collapses(self, curve13, monkeypatch):
        ws = hy.weierstrass_points(curve13)
        repeated = ws[:1] + ws[:1] + ws[2:]
        monkeypatch.setattr(hy, "weierstrass_points", lambda curve: repeated)
        with pytest.raises(hy.InvariantViolated):
            hy.two_torsion(curve13)


    @pytest.mark.parametrize("route", ["equal", "coprime", "shared"])
    def test_wrong_cofactor_never_returns_a_pair(self, route, rng, monkeypatch):
        """An xgcd that returns t + 1 as its cofactor makes each route of
        cantor_add raise, through the exact division for c1 or the
        validating constructor, instead of returning a pair."""
        curve = hy.parse_curve("field=Fp:999983; f=7,3,0,5,1")
        F = curve.field
        points = random_points(curve, rng, 12)
        point = hy.MumfordDivisor.from_point
        a = hy.cantor_add(curve, point(points[0]), point(points[1]))
        if route == "equal":
            pairs = [(a, a)]
        elif route == "coprime":
            pairs = [(a, hy.cantor_add(curve, point(points[2]), point(points[3])))]
            assert len(polys.gcd(a.u.coeffs, pairs[0][1].u.coeffs, F)) == 1
        else:
            pairs = TestCompositionOracle.shared_factor_pairs(curve, points, rng, 2)
        xgcd = polys.xgcd

        def wrong_xgcd(r, s, F):
            g, t = xgcd(r, s, F)
            return g, polys.add(t, [F.one], F)

        monkeypatch.setattr(hy, "xgcd", wrong_xgcd)
        for a, b in pairs:
            with pytest.raises((ValueError, hy.InvariantViolated)):
                hy.cantor_add(curve, a, b)


class TestCantorCount:
    """Each Cantor intermediate is computed once."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counter = {"n": 0}
        add = hy.cantor_add

        def counting_add(curve, a, b):
            counter["n"] += 1
            return add(curve, a, b)

        monkeypatch.setattr(hy, "cantor_add", counting_add)
        return counter

    def test_theta_translate_intersection(self, curve13, calls):
        M = hy.parse_class(curve13, "u=x + 2; v=3; d=0")
        hy.theta_translate_intersection(curve13, M)
        assert calls["n"] == 4

    @pytest.mark.parametrize("n, expected", [(2, 1), (2**64 - 59, 69)])
    def test_scalar_mul_stops_doubling_after_top_bit(self, curve13, calls, n, expected):
        hy.scalar_mul(curve13, hy.parse_class(curve13, "u=x + 2; v=3").base, n)
        assert calls["n"] == expected

    def test_scalar_mul_costs_its_naf_digits(self, curve13, monkeypatch):
        """The digits are fixed before any Cantor step, so the count
        depends on n alone; a stand-in addition that returns its first
        argument counts the steps without the arithmetic.  The cost is the
        odd multiples 2a, 3a, ..., t*a up to the top digit t, one doubling
        per digit after the first and one addition per nonzero digit after
        the first; a negative n reads its own digits, the negated digits of
        -n."""
        counter = {"n": 0}

        def counting_stub(curve, a, b):
            counter["n"] += 1
            return a

        monkeypatch.setattr(hy, "cantor_add", counting_stub)
        a = hy.parse_class(curve13, "u=x + 2; v=3").base
        rng = random.Random(20261020)
        for n in list(range(-1024, 1025)) + [rng.getrandbits(64) for _ in range(200)]:
            counter["n"] = 0
            hy.scalar_mul(curve13, a, n)
            expected = 0
            if n:
                digits = hy._naf_digits(n)
                top = max(abs(d) for d in digits)
                odd_multiples = (top + 1) // 2 if top > 1 else 0
                nonzero = sum(1 for d in digits if d)
                expected = odd_multiples + (len(digits) - 1) + (nonzero - 1)
            assert counter["n"] == expected, n


def test_naf_digits_are_a_width_4_naf():
    """_naf_digits is the one digit expansion scalar_mul reads: low digit
    first, summing to n, nonzero digits odd with |d| <= 7 and at least four
    places apart, and the top digit of n's sign, for negative n too."""
    rng = random.Random(20261021)
    positive = list(range(1, 4097)) + [rng.getrandbits(64) for _ in range(500)]
    negative = list(range(-4096, 0)) + [-rng.getrandbits(64) for _ in range(500)]
    for n in positive + negative:
        digits = hy._naf_digits(n)
        assert sum(d << i for i, d in enumerate(digits)) == n, n
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 == 1 and abs(digits[i]) <= 7 for i in nonzero), n
        assert all(j - i >= 4 for i, j in zip(nonzero, nonzero[1:])), n
        assert (digits[-1] > 0) == (n > 0), n


class TestCompositionOracle:
    """cantor_add against the general composition (oracles.ref_cantor_add),
    and scalar_mul against binary double-and-add over it."""

    @staticmethod
    def assert_same(curve, a, b):
        result = hy.cantor_add(curve, a, b)
        expected = oracles.ref_cantor_add(curve, a, b)
        assert (result.u, result.v) == (expected.u, expected.v), (str(a), str(b))
        return result

    @classmethod
    def assert_same_printed(cls, curve, a, b):
        """assert_same, and the result is the class that its own printed
        text parses back to, with the same hash."""
        result = hy.PicClass(cls.assert_same(curve, a, b), 0)
        parsed = hy.parse_class(curve, str(result))
        assert parsed == result and hash(parsed) == hash(result), str(result)

    @staticmethod
    def structured_pairs(curve, points, rng, count):
        """Seeded pairs over classes built from the given affine points:
        a + b, a + a, a + (-a), the same u with v of mixed sign, a point
        class plus a degree-2 class, and the zero class."""
        zero = hy.MumfordDivisor.zero(curve)
        point = hy.MumfordDivisor.from_point
        pairs = []
        while len(pairs) < count:
            p, q, r = rng.sample(points, 3)
            a = oracles.ref_cantor_add(curve, point(p), point(q))
            b = oracles.ref_cantor_add(curve, point(q), point(r))
            flipped = oracles.ref_cantor_add(curve, point(p), point(hy.involution(q)))
            neg = hy.MumfordDivisor(curve, a.u, oracles.neg(a.v))
            pairs += [(a, b), (a, a), (a, neg), (a, flipped), (point(r), a), (zero, b)]
        return pairs[:count]

    @staticmethod
    def shared_factor_pairs(curve, points, rng, count):
        """Seeded pairs whose u's share exactly one linear factor x - x(p):
        [p] + [q] with [p] + [r], where d = gcd(x - x(p), v1 + v2) = 1, and
        alternately with [-p] + [r], where d = x - x(p)."""
        point = hy.MumfordDivisor.from_point
        pairs = []
        while len(pairs) < count:
            p, q, r = rng.sample(points, 3)
            if len({p.x, q.x, r.x}) < 3:
                continue
            s = p if len(pairs) % 2 == 0 else hy.involution(p)
            pairs.append((oracles.ref_cantor_add(curve, point(p), point(q)),
                          oracles.ref_cantor_add(curve, point(s), point(r))))
        for a, b in pairs:
            assert len(polys.gcd(a.u.coeffs, b.u.coeffs, curve.field)) == 2
        return pairs

    @pytest.mark.parametrize("spec, order", [(CURVE5_SPEC, 36), (CURVE7_SPEC, 50)])
    def test_every_pair_of_small_jacobian(self, spec, order):
        curve = hy.parse_curve(spec)
        classes = [c.base for c in hy.enumerate_pic(curve, 0)]
        assert len(classes) == order
        for a in classes:
            for b in classes:
                self.assert_same(curve, a, b)

    def test_seeded_pairs_large_prime(self, rng):
        curve = hy.parse_curve("field=Fp:999983; f=7,3,0,5,1")
        pairs = self.structured_pairs(curve, random_points(curve, rng, 12), rng, 300)
        assert any(a.u == b.u and a.v != b.v and a.v != oracles.neg(b.v) for a, b in pairs)
        for a, b in pairs:
            self.assert_same_printed(curve, a, b)

    def test_seeded_pairs_rational(self, rng):
        # x(x - 1)(x - 2)(x - 3)(x - 4) + 1 has the points (i, +-1), i = 0..4
        curve = hy.new_curve("Q", [1, 24, -50, 35, -10])
        points = [curve.point(i, s) for i in range(5) for s in (1, -1)]
        pairs = self.structured_pairs(curve, points, rng, 40)
        multiples = [oracles.ref_scalar_mul(curve, a, 2 + k % 2) for k, (a, _) in enumerate(pairs[:10])]
        pairs += [(m, b) for m, (_, b) in zip(multiples, pairs)]
        assert len(pairs) == 50
        assert any(c.denominator != 1 for m in multiples for c in m.u.coeffs + m.v.coeffs)
        for a, b in pairs:
            self.assert_same_printed(curve, a, b)

    def test_shared_factor_pairs_large_prime(self, rng):
        curve = hy.parse_curve("field=Fp:999983; f=7,3,0,5,1")
        for a, b in self.shared_factor_pairs(curve, random_points(curve, rng, 12), rng, 100):
            self.assert_same_printed(curve, a, b)

    def test_shared_factor_pairs_rational(self, rng):
        curve = hy.new_curve("Q", [1, 24, -50, 35, -10])
        points = [curve.point(i, s) for i in range(5) for s in (1, -1)]
        for a, b in self.shared_factor_pairs(curve, points, rng, 30):
            self.assert_same_printed(curve, a, b)

    def test_scalar_mul_small_n(self, curve13, rng):
        for a in rng.sample([c.base for c in PIC13], 4):
            for n in range(-40, 41):
                assert hy.scalar_mul(curve13, a, n) == oracles.ref_scalar_mul(curve13, a, n)

    @pytest.mark.parametrize("spec", [
        "field=Fp:13; f=1,1,0,0,0",
        "field=Fp:37; f=2,0,1,0,0",
        "field=Fp:999983; f=7,3,0,5,1",
    ])
    def test_scalar_mul_64_bit(self, spec, rng):
        curve = hy.parse_curve(spec)
        for k, point in enumerate(random_points(curve, rng, 10)):
            a = hy.MumfordDivisor.from_point(point)
            n = rng.getrandbits(64) * (-1) ** k
            assert hy.scalar_mul(curve, a, n) == oracles.ref_scalar_mul(curve, a, n)

    def test_multiples_of_the_group_order_vanish(self, curve13, rng):
        # J(F13) of y^2 = x^5 - x has order 144
        zero = hy.MumfordDivisor.zero(curve13)
        for a in rng.sample([c.base for c in PIC13], 20):
            assert hy.scalar_mul(curve13, a, 144 * rng.getrandbits(64)) == zero


class TestPolyOnlyValidates:
    """cantor_add runs on coefficient lists and builds each result through
    the validating MumfordDivisor constructor, which checks u | v^2 - f:
    exactly one such call per result, none skipped through from_checked."""

    @pytest.mark.parametrize("spec", [
        "field=Fp:13; f=1,1,0,0,0",
        "field=Fp:999983; f=7,3,0,5,1",
        "field=Q; f=1,24,-50,35,-10",
    ])
    def test_one_validation_per_result(self, spec, rng, monkeypatch):
        curve = hy.parse_curve(spec)
        if curve.field == QQ:
            points = [curve.point(i, s) for i in range(5) for s in (1, -1)]
        else:
            points = random_points(curve, rng, 12)
        pairs = (TestCompositionOracle.structured_pairs(curve, points, rng, 12)
                 + TestCompositionOracle.shared_factor_pairs(curve, points, rng, 4))
        validated = []
        init = hy.MumfordDivisor.__init__

        def counting_init(self, *args):
            init(self, *args)
            validated.append(self)

        monkeypatch.setattr(hy.MumfordDivisor, "__init__", counting_init)
        for a, b in pairs:
            validated.clear()
            result = hy.cantor_add(curve, a, b)
            assert len(validated) == 1 and validated[0] is result, (str(a), str(b))


class TestEnumeration:
    def test_all_degrees_same_size(self, curve13):
        assert len(hy.enumerate_pic(curve13, 0)) == len(hy.enumerate_pic(curve13, 1))
        assert {cls.degree for cls in hy.enumerate_pic(curve13, 3)} == {3}

    def test_canonical_sorted_order(self, curve13):
        listed = hy.enumerate_pic(curve13, 0)
        assert listed == sorted(listed, key=hy.PicClass._key)

    def test_cache_reuse(self, curve13):
        assert hy._all_reduced(curve13) is hy._all_reduced(curve13)

    def test_field_too_large(self, curveq):
        with pytest.raises(hy.FieldTooLarge):
            hy.enumerate_pic(curveq, 0)
        with pytest.raises(hy.FieldTooLarge):
            hy.enumerate_pic(hy.parse_curve("field=Fp:41; f=0,-1,0,0,0"), 0)

    def test_every_reduced_pair_is_distinct_class(self, curve13):
        # distinct reduced pairs never collide as classes: addition of
        # inverse representative is zero only on the diagonal
        sample = hy.enumerate_pic(curve13, 0)[:12]
        for a in sample:
            for b in sample:
                assert (a == b) == (a.base == b.base)
                if a != b:
                    assert class_sub(a, b) != pic_zero(curve13)


class TestParsing:
    def test_mumford_round_trip(self, curve13):
        for d in [c.base for c in hy.enumerate_pic(curve13, 0)][:25]:
            assert hy.parse_class(curve13, str(d)).base == d

    def test_class_round_trip(self, curve13):
        for cls in hy.enumerate_pic(curve13, 1)[:25]:
            assert hy.parse_class(curve13, str(cls)) == cls

    def test_default_degree_zero(self, curve13):
        assert hy.parse_class(curve13, "u=1; v=0") == pic_zero(curve13)

    def test_canonical_strings(self, curve13):
        assert str(pic_zero(curve13)) == "u=1; v=0; d=0"
        w = hy.MumfordDivisor.from_point(curve13.point(0, 0))
        assert str(w) == "u=x; v=0"

    def test_invalid_text(self, curve13):
        with pytest.raises(ValueError):
            hy.parse_class(curve13, "u=x")
        with pytest.raises(ValueError):
            hy.parse_class(curve13, "u=x; w=1")
        with pytest.raises(ValueError):
            hy.parse_class(curve13, "u=x; v=0; junk=1")

    def test_rational_curve_class_round_trip(self, curveq):
        p = curveq.point(1, 0)
        cls = hy.point_class(p)
        assert hy.parse_class(curveq, str(cls)) == cls
