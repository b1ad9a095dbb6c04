import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from thetalab import bundles, cli, report, verlinde
from thetalab import hyperelliptic as hy
from thetalab.exact import Cyclo

CURVE13 = "field=Fp:13; f=0,-1,0,0,0"
CURVE7 = "field=Fp:7; f=1,0,0,0,0"
CURVE37 = "field=Fp:37; f=3,1,4,1,5"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestReport:
    def test_text_all_match(self, capsys):
        rc, out, err = run_cli(capsys, "report")
        assert rc == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 23  # header + 21 rows + summary
        assert lines[0].split() == ["label", "computed", "expected", "status", "source"]
        assert lines[-1] == "21 rows, 21 match, 0 mismatch"
        assert "mismatch" not in out.replace("0 mismatch", "")

    def test_byte_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "report")
        _, second, _ = run_cli(capsys, "report")
        assert first == second

    def test_fault_injection_flips_one_row(self, capsys, monkeypatch):
        monkeypatch.setitem(report.EXPECTED, "p(2)", "59")
        rc, out, _ = run_cli(capsys, "report")
        assert rc == 1
        assert out.splitlines()[-1] == "21 rows, 20 match, 1 mismatch"
        bad = [line for line in out.splitlines() if "  mismatch  " in line]
        assert len(bad) == 1
        assert bad[0].startswith("p(2)")

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "report", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 21
        fields = ("label", "computed", "expected", "source", "status")
        assert [tuple(item[k] for k in fields) for item in payload["rows"]] == [
            tuple(getattr(row, k) for k in fields) for row in report.build_report()]

    def test_json_statuses(self, capsys):
        _, out, _ = run_cli(capsys, "report", "--format", "json")
        for item in json.loads(out)["rows"]:
            assert item["status"] == "match"
            assert set(item) == {"label", "computed", "expected", "status", "source"}

    def test_shared_value_failure_flips_its_rows(self, monkeypatch):
        def fail(g=2):
            raise bundles.UnsupportedGenus("injected")
        monkeypatch.setattr(bundles, "raynaud_invariants", fail)
        rows = report.build_report()
        assert len(rows) == 21
        failed = [r.label for r in rows if r.computed == "UnsupportedGenus"]
        assert failed == ["mukai rank", "duplication degree", "pullback degree", "slope E_c"]
        assert [r.label for r in rows if r.status == "mismatch"] == failed

    def test_verlinde_once_per_level_per_report(self, monkeypatch):
        levels = []
        original = verlinde.verlinde

        def counted(level):
            levels.append(level)
            return original(level)
        monkeypatch.setattr(verlinde, "verlinde", counted)
        report.build_report()
        assert levels == [0, 1, 2]
        report.build_report()
        assert levels == [0, 1, 2, 0, 1, 2]

    def test_no_cantor_addition_or_cyclotomic_inverse(self, monkeypatch):
        calls = []
        cantor_add, inverse = hy.cantor_add, Cyclo.inverse

        def counted_add(curve, a, b):
            calls.append("cantor_add")
            return cantor_add(curve, a, b)

        def counted_inverse(self):
            calls.append("inverse")
            return inverse(self)
        monkeypatch.setattr(hy, "cantor_add", counted_add)
        monkeypatch.setattr(Cyclo, "inverse", counted_inverse)
        rows = report.build_report()
        assert len(rows) == 21
        assert all(r.status == "match" for r in rows)
        assert calls == []

    def test_value_error_flips_only_its_row(self, capsys, monkeypatch):
        """A non-root (3, 0) among the Weierstrass points makes two_torsion
        raise ValueError; the report still prints every row."""
        original = hy.weierstrass_points

        def with_a_non_root(curve):
            return [SimpleNamespace(x=3, y=0, at_infinity=False)] + original(curve)[1:]
        monkeypatch.setattr(hy, "weierstrass_points", with_a_non_root)
        rc, out, err = run_cli(capsys, "report")
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 23
        assert lines[-1] == "21 rows, 20 match, 1 mismatch"
        bad = [line.split()[:4] for line in lines if "  mismatch  " in line]
        assert bad == [["|J[2]|", "ValueError", "16", "mismatch"]]


class TestVerlinde:
    EXPECTED = [
        "S(1,1)^2 = 5",
        "S(1,2)^2 = 20",
        "S(2,1)^2 = 25",
        "S(1,3)^2 = 5",
        "S(3,1)^2 = 20",
        "S(2,2)^2 = 25",
        "p(2) = 58",
    ]

    def test_exact_table(self, capsys):
        rc, out, err = run_cli(capsys, "verlinde")
        assert rc == 0
        assert err == ""
        assert out.splitlines() == self.EXPECTED

    def test_approx_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "verlinde", "--approx")
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "S(1,1)^2 = 5  (S ~ 2.236068)"
        assert lines[-1] == "p(2) = 58"
        for line, bare in zip(lines[:-1], self.EXPECTED[:-1]):
            assert line.startswith(bare)
            assert "(S ~ " in line


class TestFit:
    def test_reference_values(self, capsys):
        rc, out, _ = run_cli(capsys, "fit", "--values", "1,10,58")
        assert rc == 0
        assert out.splitlines() == [
            "gamma = 1/604800",
            "sigma = -35",
            "pi = 1284",
            "basepoints = 6",
        ]

    def test_rational_values_accepted(self, capsys):
        rc, out, _ = run_cli(capsys, "fit", "--values", "2,20,116")
        assert rc == 0
        assert out.splitlines()[0] == "gamma = 1/302400"

    def test_wrong_count_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "fit", "--values", "1,10")
        assert rc == 1
        assert err.startswith("error: INVALID_INPUT:")

    def test_non_numeric_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "fit", "--values", "1,10,abc")
        assert rc == 1
        assert err.startswith("error: INVALID_INPUT:")

    @pytest.mark.parametrize("values", [
        "-1,10,58", "1,10,58", "-1/2,-3,4", "-5,-50,-290", "1,10", "-1,10,abc", "--help", "",
    ])
    def test_space_form_matches_equals_form(self, capsys, values):
        """A value list that starts with a minus sign is a value, not an option."""
        spaced = run_cli(capsys, "fit", "--values", values)
        assert spaced == run_cli(capsys, "fit", f"--values={values}")
        assert spaced[0] != 2


class TestLefschetz:
    def test_sym2(self, capsys):
        rc, out, _ = run_cli(capsys, "lefschetz", "--scenario", "sym2")
        assert rc == 0
        assert out.splitlines() == ["L = 4", "h0 split = (0, 0)", "h1 split = (1, 5)"]

    def test_hom_ee(self, capsys):
        rc, out, _ = run_cli(capsys, "lefschetz", "--scenario", "hom-ee")
        assert rc == 0
        assert out.splitlines() == ["L = 2", "h0 split = (0, 0)", "h1 split = (1, 3)"]

    def test_hom_ow(self, capsys):
        rc, out, _ = run_cli(capsys, "lefschetz", "--scenario", "hom-ow")
        assert rc == 0
        assert out.splitlines() == ["L = 1", "h0 split = (1, 0)", "h1 split = (1, 1)"]

    def test_sym2_rejected(self, capsys):
        rc, out, err = run_cli(capsys, "lefschetz", "--scenario", "sym2-rejected")
        assert rc == 1
        assert err.startswith("error: INFEASIBLE:")

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, "lefschetz", "--scenario", "nope")
        assert rc == 2


class TestJac:
    def test_add(self, capsys):
        rc, out, _ = run_cli(
            capsys, "jac", "--curve", CURVE13, "add",
            "--a", "u=x^2 + 12*x; v=0; d=0", "--b", "u=x + 7; v=3; d=1")
        assert rc == 0
        assert out.strip() == "u=x^2 + 4*x + 2; v=7*x + 8; d=1"

    def test_h0_canonical(self, capsys):
        rc, out, _ = run_cli(
            capsys, "jac", "--curve", CURVE13, "h0", "--class", "u=1; v=0; d=2")
        assert rc == 0
        assert out.strip() == "2"

    def test_two_torsion(self, capsys):
        rc, out, _ = run_cli(capsys, "jac", "--curve", CURVE13, "two-torsion")
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == len(set(lines)) == 16
        assert lines[0] == "u=1; v=0; d=0"
        assert "u=x; v=0; d=0" in lines
        assert all(line.endswith("d=0") for line in lines)

    def test_theta_int_distinct_pair(self, capsys):
        rc, out, _ = run_cli(
            capsys, "jac", "--curve", CURVE7, "theta-int", "--m", "u=x^2; v=1; d=0")
        assert rc == 0
        assert out.splitlines() == ["u=x^2; v=1; d=1", "u=x^2; v=6; d=1"]

    def test_weierstrass(self, capsys):
        rc, out, _ = run_cli(capsys, "jac", "--curve", CURVE13, "weierstrass")
        assert rc == 0
        assert out.splitlines() == [
            "(0, 0)", "(1, 0)", "(5, 0)", "(8, 0)", "(12, 0)", "infinity"]

    def test_enumerate(self, capsys):
        rc, out, _ = run_cli(capsys, "jac", "--curve", CURVE13, "enumerate")
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == 144
        assert lines[0] == "u=1; v=0; d=0"
        assert len(set(lines)) == 144

    @pytest.mark.parametrize("curve, degree, digest", [
        (CURVE13, "0", "6a57b9b1871c7155deff8c1882da715a82654718f081c698cd36774e7e616914"),
        (CURVE13, "1", "4a6480d54697c4371e5ff0cfd224bc46b4809375300551b59ae84bbb1bef8d69"),
        (CURVE37, "0", "c3d86c0a3898dae9b35e80aefc21246c84b1188bec927964ef3098af99905e4f"),
        (CURVE37, "1", "d491d850904b57dc400c55bbb76c3f72180993d10badc05f584c7f3e89dd0760"),
    ])
    def test_enumerate_golden_bytes(self, capsys, curve, degree, digest):
        rc, out, err = run_cli(capsys, "jac", "--curve", curve, "enumerate", "--degree", degree)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerate_degree_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, "jac", "--curve", CURVE13, "enumerate", "--degree", "1")
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == 144
        assert all(line.endswith("d=1") for line in lines)


class TestBundle:
    def test_chi(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bundle", "chi", "--rank", "4", "--degree", "4")
        assert rc == 0
        assert out.strip() == "chi = 0"

    def test_slope_fraction(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bundle", "slope", "--rank", "3", "--degree", "5")
        assert rc == 0
        assert out.strip() == "slope = 5/3"

    def test_moduli_dim(self, capsys):
        rc, out, _ = run_cli(capsys, "bundle", "moduli-dim", "--n", "2")
        assert rc == 0
        assert out.strip() == "dim = 10"

    def test_raynaud(self, capsys):
        rc, out, _ = run_cli(capsys, "bundle", "raynaud")
        assert rc == 0
        assert out.splitlines() == [
            "mukai rank = 4",
            "duplication degree = 16",
            "(2Theta)^2 = 8",
            "pullback degree = 64",
            "slope E_c = 1",
        ]


class TestErrorCodes:
    CASES = [
        ("ORDER_TWO",
         ["jac", "--curve", CURVE13, "theta-int", "--m", "u=1; v=0; d=0"]),
        ("WRONG_DEGREE",
         ["jac", "--curve", CURVE13, "theta-int", "--m", "u=1; v=0; d=1"]),
        ("FIELD_TOO_LARGE",
         ["jac", "--curve", "field=Fp:41; f=0,-1,0,0,0", "enumerate"]),
        ("EVEN_CHARACTERISTIC",
         ["jac", "--curve", "field=Fp:2; f=0,1,0,0,0", "two-torsion"]),
        ("NOT_SQUAREFREE",
         ["jac", "--curve", "field=Fp:5; f=1,0,0,0,0", "two-torsion"]),
        ("DOES_NOT_SPLIT",
         ["jac", "--curve", "field=Fp:5; f=1,1,0,0,0", "weierstrass"]),
        ("INFEASIBLE", ["lefschetz", "--scenario", "sym2-rejected"]),
        ("UNSUPPORTED_GENUS", ["bundle", "raynaud", "--genus", "3"]),
        ("INVALID_INPUT",
         ["jac", "--curve", CURVE13, "h0", "--class", "u=x; w=1"]),
    ]

    @pytest.mark.parametrize("code,argv", CASES, ids=[c for c, _ in CASES])
    def test_error_line(self, capsys, code, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {code}: ")
        assert err.count("\n") == 1

    def test_invalid_class_text(self, capsys):
        rc, _, err = run_cli(
            capsys, "jac", "--curve", CURVE13, "h0", "--class", "u=x + 1; v=5; d=1")
        assert rc == 1
        assert err.startswith("error: INVALID_INPUT:")

    @pytest.mark.parametrize("argv", [
        ["jac", "--curve", "field=Fp:13; f=0,-1,0,0,0; field=Fp:7", "weierstrass"],
        ["jac", "--curve", CURVE13, "h0", "--class", "u=x + 7; v=3; d=1; d=5"],
    ], ids=["curve-spec", "class-spec"])
    def test_repeated_key_rejected(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error: INVALID_INPUT: repeated key ") and err.count("\n") == 1


class TestBoundedInput:
    """Inputs that would take unbounded time or memory fail with one error line."""

    ADD = ["add", "--a", "u=x; v=0", "--b", "u=x - 1; v=0"]

    def curve(self, p):
        return f"field=Fp:{p}; f=0,-1,0,0,0"

    @pytest.mark.parametrize("p", [318665857834031151167461, 2**89 - 1])
    def test_modulus_beyond_the_primality_bound_rejected(self, capsys, p):
        rc, out, err = run_cli(capsys, "jac", "--curve", self.curve(p), *self.ADD)
        assert (rc, out) == (1, "")
        assert err.startswith("error: INVALID_INPUT: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", [2**61 - 1, 998244353])
    def test_large_primes_accepted(self, capsys, p):
        rc, out, _ = run_cli(capsys, "jac", "--curve", self.curve(p), *self.ADD)
        assert rc == 0
        assert out == f"u=x^2 + {p - 1}*x; v=0; d=0\n"

    @pytest.mark.parametrize("argv", [
        ["jac", "--curve", "field=Q; f=0,-1,0,0,0", "h0", "--class", "u=x^1000000000; v=0; d=1"],
        ["jac", "--curve", CURVE13, "h0", "--class", "u=x^2; v=x^1000000000"],
        ["fit", "--values", "1e30000000,1,2"],
        ["fit", "--values", "1,1E-30000000,2"],
        ["jac", "--curve", "field=Fp:13; f=1e30000000,-1,0,0,0", "weierstrass"],
        ["jac", "--curve", "field=Q; f=0,-1,0,0,-1e-30000000", "weierstrass"],
        # gamma and sigma print, but pi has more digits than an int may be
        # converted to: the output printed before the error is dropped too
        ["fit", "--values", "1,1,1e4300"],
    ])
    def test_huge_exponent_rejected_quickly(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err.startswith("error: INVALID_INPUT: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["fit", "--values", "1,1,1e4300"],
        ["fit", "--values", "1e-4300,1,1"],
        ["fit", "--values", "1e4299,1,1"],
        ["jac", "--curve", CURVE13, "add", "--a", "u=x; v=0; d=" + "9" * 4300,
         "--b", "u=x; v=0; d=" + "9" * 4300],
        ["jac", "--curve", CURVE13, "add", "--a", "u=x; v=0; d=" + "9" * 5000, "--b", "u=x; v=0"],
        ["jac", "--curve", CURVE13, "h0", "--class", f"u=x^{'1' * 5000}; v=0"],
        ["jac", "--curve", CURVE13, "h0", "--class", f"u={'1' * 5000}*x + 1; v=0"],
        ["jac", "--curve", f"field=Fp:{'1' * 5000}; f=0,-1,0,0,0", "weierstrass"],
    ], ids=["fit-pi", "fit-tiny", "fit-big", "add-degree-sum", "add-degree", "h0-exponent",
            "h0-coefficient", "modulus"])
    def test_digit_limit_named_in_one_line(self, capsys, argv):
        """A number past the int string digit limit, read or to be printed,
        gives one line naming the limit, not Python's advice to raise it."""
        limit = sys.get_int_max_str_digits()
        assert run_cli(capsys, *argv) == (
            1, "", f"error: INVALID_INPUT: a number has more than {limit} digits\n")

    def test_digit_limit_advice_in_an_echoed_input_is_kept(self, capsys):
        spec = "field=Fp:use sys.set_int_max_str_digits() to increase the limit; f=0,-1,0,0,0"
        rc, out, err = run_cli(capsys, "jac", "--curve", spec, "weierstrass")
        assert (rc, out) == (1, "")
        assert err.startswith("error: INVALID_INPUT: invalid literal for int()")

    def test_huge_constant_over_q_does_not_split_quickly(self, capsys):
        """Rational roots come from a root mod a small prime, not from the
        divisors of the constant term."""
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "jac", "--curve",
                               "field=Q; f=1000000000000000000000000000007,0,0,0,0", "weierstrass")
        assert time.perf_counter() - start < 1.0
        assert (rc, out, err) == (1, "", "error: DOES_NOT_SPLIT: f does not split over Q\n")

    def test_small_exponents_still_read(self, capsys):
        assert run_cli(capsys, "fit", "--values", "1e0,1e1,5.8e1")[1] == \
            run_cli(capsys, "fit", "--values", "1,10,58")[1]
        rc, out, _ = run_cli(capsys, "jac", "--curve", "field=Fp:13; f=0,-1e0,0,0,0",
                             "weierstrass")
        assert rc == 0 and out.splitlines()[:2] == ["(0, 0)", "(1, 0)"]


_NUMBER = st.one_of(
    st.integers(-50, 50),
    st.integers(1, 90).flatmap(lambda k: st.integers(-10 ** k, 10 ** k)),
    st.fractions(max_denominator=10 ** 20).filter(lambda q: abs(q.numerator) < 10 ** 30),
)
_JUNK = st.sampled_from(["", "x", "1.5", "-2e3", "1e-4", "1/0", "nan", "inf", "0x1f",
                         " 7 ", "--", "=", "1,2", "\u221e", "3e400"])
_SMALL_FIELD = st.sampled_from(["Q", "Fp:3", "Fp:5", "Fp:7", "Fp:13", "Fp:31", "Fp:37", "Fp:41"])
_FIELD = st.one_of(
    _SMALL_FIELD,
    _SMALL_FIELD,
    st.sampled_from([2 ** 61 - 1, 998244353, 10 ** 9 + 7, 2 ** 89 - 1, 15, 2, 1, 0, -7]).map(
        lambda p: f"Fp:{p}"),
    st.integers(-10 ** 40, 10 ** 40).map(lambda p: f"Fp:{p}"),
    st.sampled_from(["", "Fp:", "Fp:x", "Z", "F13", "q"]),
)


def _split(roots):
    """c0..c4 of the monic product of x - r."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs[:5]


@st.composite
def _curve_spec(draw):
    """Mostly well-formed: five coefficients, a third of them a product of
    five linear factors, a junk token one time in ten."""
    if draw(st.integers(0, 2)) == 0:
        roots = draw(st.lists(_NUMBER, min_size=5, max_size=5, unique=True))
        tokens = [str(c) for c in _split(roots)]
    else:
        size = draw(st.sampled_from([5, 5, 5, 5, 5, 5, 0, 4, 6, 7]))
        tokens = draw(st.lists(st.one_of(*[_NUMBER.map(str)] * 9, _JUNK),
                               min_size=size, max_size=size))
    parts = [f"field={draw(_FIELD)}", "f=" + ",".join(tokens)]
    if draw(st.integers(0, 9)) == 0:
        parts = draw(st.permutations(parts + draw(st.lists(
            st.sampled_from(["f=0,1,0,0,0", "field=Q", "g=1", "junk", ""]), max_size=2))))
    return "; ".join(parts)


# Curves whose classes are fuzzed: two small fields, Q and a large prime
# field, where f = x(x - 1)(x - 2)(x - 3)(x - 4) in the last two.
_CLASS_CURVES = [CURVE13, CURVE37, "field=Q; f=0,24,-50,35,-10",
                 "field=Fp:1000000007; f=0,24,-50,35,-10"]


@cache
def _known_bases(spec):
    """'u=..; v=..' texts of valid reduced pairs: [P] - [infinity] for the
    points with x in -20..19, and the sums of two of the first eight."""
    curve = hy.parse_curve(spec)
    F = curve.field
    bases = [hy.MumfordDivisor.from_point(curve.point(x, y)) for x in range(-20, 20)
             if (y := F.sqrt(curve.f(F(x)))) is not None]
    bases += [hy.cantor_add(curve, a, b) for a, b in combinations(bases[:8], 2)]
    return [str(b) for b in bases]


_EXPONENT_TEXT = st.sampled_from(["", "x", "x^2", "*x", "*x^2", "x^3", "x^0", "x^-1",
                                  "x^99999999999", "*x^1e3"])
_POLY_TEXT = st.one_of(
    st.lists(st.tuples(st.one_of(_NUMBER.map(str), st.just("")), _EXPONENT_TEXT).map("".join),
             max_size=4).map(" + ".join),
    _JUNK,
)
_DEGREE_TEXT = st.one_of(st.integers(-3, 4).map(str), st.integers(-10 ** 40, 10 ** 40).map(str),
                         _JUNK)


@st.composite
def _class_spec(draw, curve):
    """Half the time a valid pair of the curve, else random u and v; then
    an optional degree, and a junk or repeated key one time in ten."""
    if draw(st.booleans()):
        parts = draw(st.sampled_from(_known_bases(curve))).split("; ")
    else:
        parts = [f"u={draw(_POLY_TEXT)}", f"v={draw(_POLY_TEXT)}"]
    if draw(st.integers(0, 3)):
        parts.append(f"d={draw(_DEGREE_TEXT)}")
    if draw(st.integers(0, 9)) == 0:
        parts = draw(st.permutations(parts + draw(st.lists(
            st.sampled_from(["u=1", "v=0", "d=1", "w=1", "junk", ""]), max_size=2))))
    return "; ".join(parts)


# Decimal exponents up to the int string digit limit and just past it,
# mostly among small ints, where a fit's values can parse and its output
# still be too long to print.
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_HUGE = st.builds("{}e{}".format, st.sampled_from(["1", "-3", "2.5", "9.99"]),
                  st.one_of(st.integers(_DIGIT_LIMIT - 6, _DIGIT_LIMIT),
                            st.integers(-_DIGIT_LIMIT - 2, _DIGIT_LIMIT + 2)))
_FIT_VALUES = st.one_of(
    st.lists(st.one_of(*[_NUMBER.map(str)] * 4, _JUNK),
             min_size=2, max_size=4).map(",".join),
    st.integers(-10 ** 30, 10 ** 30).map(lambda k: f"{k},{10 * k},{58 * k}"),
    st.lists(st.one_of(_HUGE, st.integers(-50, 50).map(str)), min_size=3, max_size=3)
    .map(",".join),
    st.lists(st.one_of(_HUGE, _NUMBER.map(str), _JUNK), min_size=2, max_size=4).map(",".join),
)


class TestFuzz:
    """Curve specs mixing huge ints, fractions, junk tokens and moduli of
    every size, class specs on four curves, and fit values: each run ends
    with exit 0, 1 or 2, in bounded time, with at most one error line."""

    ERROR_LINE = re.compile(r"error: [A-Z_]+: [^\n]*\n")

    def check(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err.getvalue() == ""
        elif rc == 1:
            assert out.getvalue() == ""
            assert self.ERROR_LINE.fullmatch(err.getvalue())
        return rc, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("op", ["weierstrass", "two-torsion", "enumerate"])
    @settings(max_examples=60, deadline=2000)
    @given(spec=_curve_spec())
    def test_jac_curve_spec(self, op, spec):
        self.check(["jac", "--curve", spec, op])

    @pytest.mark.parametrize("op, flags", [
        ("add", ["--a", "--b"]), ("h0", ["--class"]), ("theta-int", ["--m"]),
    ], ids=["add", "h0", "theta-int"])
    @settings(max_examples=60, deadline=2000)
    @given(data=st.data())
    def test_jac_class_spec(self, op, flags, data):
        curve = data.draw(st.sampled_from(_CLASS_CURVES))
        argv = ["jac", "--curve", curve, op]
        for flag in flags:
            argv.append(f"{flag}={data.draw(_class_spec(curve))}")
        self.check(argv)

    @settings(max_examples=120, deadline=2000)
    @given(values=_FIT_VALUES)
    def test_fit_values(self, values):
        joined = self.check(["fit", f"--values={values}"])
        assert self.check(["fit", "--values", values]) == joined


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "fit")[0] == 2

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "--help")
        assert rc == 0


class TestModuleEntry:
    def test_python_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thetalab.cli", "report"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.endswith("21 rows, 21 match, 0 mismatch\n")

    @pytest.mark.parametrize("argv", [
        ["report"],
        ["report", "--format", "json"],
        ["jac", "--curve", CURVE13, "theta-int", "--m", "u=x^2 + 4*x + 2; v=7*x + 8; d=0"],
        ["jac", "--curve", CURVE13, "theta-int", "--m", "u=x; v=0; d=0"],
        ["jac", "--curve", CURVE13, "two-torsion"],
        ["jac", "--curve", CURVE13, "enumerate", "--degree", "1"],
    ])
    def test_optimized_interpreter_gives_the_same_output(self, argv):
        """python -O strips assert statements, so no invariant may rest on
        one: stdout, stderr and exit code match a run without -O."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [subprocess.run([sys.executable, "-B", *flags, "-m", "thetalab.cli", *argv],
                               capture_output=True, text=True, timeout=120, env=env)
                for flags in ([], ["-O"])]
        plain, optimized = [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]
        assert optimized == plain
        assert plain[1] or plain[2]
