"""Contract of the immutable value types: equality, hashing, immutability, repr."""
import copy
import pickle
from fractions import Fraction

import pytest

from thetalab import bundles, hilbert, lefschetz, report
from thetalab import hyperelliptic as hy
from thetalab.exact import Cyclo, cyclo_sin
from thetalab.polys import Poly
from thetalab.value import Value

from conftest import class_mul

CURVE7 = "field=Fp:7; f=1,0,0,0,0"
F7 = "HyperellipticCurve(f=Poly(GF(7), [1, 0, 0, 0, 0, 1]))"
DIVISOR = f"MumfordDivisor(curve={F7}, u=Poly(GF(7), [0, 1]), v=Poly(GF(7), [1]))"


def _point():
    return hy.parse_curve(CURVE7).point(0, 1)


# (build a fresh instance, its repr)
SAMPLES = [
    (lambda: bundles.BundleSymbol(4, 0),
     "BundleSymbol(rank=4, degree=0, genus=2)"),
    (bundles.raynaud_invariants,
     "RaynaudInvariants(mukai_rank=4, duplication_degree=16, theta_self_int_2theta=8, "
     "pullback_degree_on_Y=64, slope_Ec=Fraction(1, 1))"),
    (lambda: hilbert.fit_hilbert(1, 10, 58),
     "HilbertFit(gamma=Fraction(1, 604800), sigma=Fraction(-35, 1), pi=Fraction(1284, 1), "
     "chern_degree=6)"),
    (lambda: hy.parse_curve(CURVE7), F7),
    (lambda: hy.parse_curve(CURVE7).infinity(),
     f"CurvePoint(curve={F7}, x=None, y=None, at_infinity=True)"),
    (_point, f"CurvePoint(curve={F7}, x=0, y=1, at_infinity=False)"),
    (lambda: hy.MumfordDivisor.from_point(_point()), DIVISOR),
    (lambda: hy.point_class(_point()), f"PicClass(base={DIVISOR}, degree=1)"),
    (lambda: lefschetz.LefschetzScenario([0, Fraction(3, 2)], 1, 2, 1),
     "LefschetzScenario(traces=(Fraction(0, 1), Fraction(3, 2)), h0_total=1, h1_total=2, "
     "h0_plus=1)"),
    (lambda: report.build_report()[0],
     "ReportRow(label='p(0)', computed='1', expected='1', source='verlinde.hilbert_values')"),
    (lambda: Poly(hy.parse_curve(CURVE7).field, [1, 0, 3]), "Poly(GF(7), [1, 0, 3])"),
]
IDS = [text.partition("(")[0] for _, text in SAMPLES]


def _assert_immutable(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def _twin(value):
    """The same fields in an instance of another class."""
    twin_cls = type("Twin", (Value,), {"__slots__": type(value).__slots__})
    twin = object.__new__(twin_cls)
    for name in type(value).__slots__:
        object.__setattr__(twin, name, getattr(value, name))
    return twin


@pytest.mark.parametrize("make, text", SAMPLES, ids=IDS)
class TestValueContract:
    def test_equal_fields_equal_values(self, make, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_other_class_with_same_fields_is_unequal(self, make, text):
        a = make()
        twin = _twin(a)
        assert a.__eq__(twin) is NotImplemented
        assert a != twin and twin != a

    def test_assignment_raises(self, make, text):
        _assert_immutable(make())

    def test_repr(self, make, text):
        assert repr(make()) == text


@pytest.mark.parametrize("make", [
    lambda: Poly(hy.parse_curve(CURVE7).field, [1, 0, 3]),
    lambda: cyclo_sin(1, 5) + Cyclo(3, (1, 8), 2),
], ids=["Poly", "Cyclo"])
def test_arithmetic_values_are_immutable(make):
    """Poly and Cyclo keep their own constructors but Value's guards."""
    _assert_immutable(make())


def test_poly_is_a_plain_value():
    """Value's equality and hash: the same hash the class cache has always keyed
    on, and no arithmetic at all, with numbers or with polynomials."""
    F = hy.parse_curve(CURVE7).field
    g = Poly(F, [1, 0, 3])
    assert hash(g) == hash((g.field, g.coeffs))
    assert not Poly(F, ()) == 0
    assert Poly(F, [1]) != 1
    with pytest.raises(TypeError):
        g - 1
    with pytest.raises(TypeError):
        2 * g
    with pytest.raises(TypeError):
        g - g
    with pytest.raises(TypeError):
        g * g
    with pytest.raises(TypeError):
        -g


def test_init_takes_one_value_per_field():
    with pytest.raises(ValueError):
        report.ReportRow("p(0)", "1", "1")
    with pytest.raises(ValueError):
        report.ReportRow("p(0)", "1", "1", "verlinde.hilbert_values", "extra")


def test_defaults():
    assert bundles.BundleSymbol(2, 1).genus == 2


def test_keyword_construction():
    assert bundles.BundleSymbol(rank=3, degree=5, genus=4) == bundles.BundleSymbol(3, 5, 4)


def test_pickle_round_trip():
    for value in (bundles.BundleSymbol(3, 5), report.build_report()[4],
                  lefschetz.hom_ow_scenario()):
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("make", [
    lambda: Poly(hy.parse_curve(CURVE7).field, [1, 0, 3]),
    lambda: cyclo_sin(1, 5) + Cyclo(3, (1, 8), 2),
    *(lambda n=n: Cyclo._from_terms(n, ((3, 1),), 1) * Fraction(3, 5) + Fraction(-1, 2)
      for n in (1, 4, 20, 148)),
    lambda: hy.parse_curve(CURVE7),
    lambda: hy.new_curve("Q", [0, 24, -50, 35, -10]),
    lambda: hy.MumfordDivisor.from_point(_point()),
    lambda: class_mul(3, hy.point_class(_point())),
], ids=["poly", "cyclo", "cyclo-1", "cyclo-4", "cyclo-20", "cyclo-148",
        "curve", "curve_q", "divisor", "class"])
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(make, clone):
    value = make()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert repr(twin) == repr(value)


def test_equal_curves_share_the_reduced_cache():
    """enumerate's warm path: an equal curve, built anew, hits _all_reduced's cache."""
    first = hy.new_curve("Fp:11", [3, 1, 0, 2, 0])
    hy.enumerate_pic(first, 0)
    hits = hy._all_reduced.cache_info().hits
    second = hy.new_curve("Fp:11", [3, 1, 0, 2, 0])
    assert second is not first
    hy.enumerate_pic(second, 0)
    assert hy._all_reduced.cache_info().hits == hits + 1
