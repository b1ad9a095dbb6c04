"""Command-line front end.

Every output is exact (integers or a/b rationals) and reproducible
byte-for-byte; floating approximations appear only behind --approx.
Exit codes: 0 success, 1 domain error or report mismatch, 2 usage error.
Domain errors print a single machine-parsable line
``error: <CODE>: <message>`` to stderr.
"""
from __future__ import annotations

import argparse
import sys

from . import bundles, hilbert, lefschetz, report, verlinde
from . import hyperelliptic as hy
from .errors import ThetaLabError
from .fields import parse_rational


def _cmd_report(args) -> int:
    rows = report.build_report()
    if args.format == "json":
        sys.stdout.write(report.rows_to_json(rows))
    else:
        sys.stdout.write(report.render_text(rows))
    return 0 if report.all_match(rows) else 1


def _cmd_verlinde(args) -> int:
    for s, t in verlinde.weights(2):
        factor = verlinde.s_factor(s, t)
        square = (factor * factor).to_rational()
        line = f"S({s},{t})^2 = {square}"
        if args.approx:
            line += f"  (S ~ {float(factor):.6f})"
        print(line)
    print(f"p(2) = {verlinde.verlinde(2)}")
    return 0


def _cmd_fit(args) -> int:
    values = [parse_rational(v) for v in args.values.split(",")]
    if len(values) != 3:
        raise ValueError("--values needs exactly three comma-separated numbers")
    fit = hilbert.fit_hilbert(*values)
    print(f"gamma = {fit.gamma}")
    print(f"sigma = {fit.sigma}")
    print(f"pi = {fit.pi}")
    print(f"basepoints = {fit.chern_degree}")
    return 0


def _cmd_lefschetz(args) -> int:
    scenario = lefschetz.scenarios()[args.scenario]()
    print(f"L = {lefschetz.lefschetz_number(scenario)}")
    print(f"h0 split = ({scenario.h0_plus}, {scenario.h0_total - scenario.h0_plus})")
    plus, minus = lefschetz.split_eigendims(scenario)
    print(f"h1 split = ({plus}, {minus})")
    return 0


def _cmd_jac(args) -> int:
    curve = hy.parse_curve(args.curve)
    if args.jac_op == "add":
        a = hy.parse_class(curve, args.a)
        b = hy.parse_class(curve, args.b)
        print(a + b)
    elif args.jac_op == "h0":
        print(hy.h0(curve, hy.parse_class(curve, args.cls)))
    elif args.jac_op == "two-torsion":
        for t in hy.two_torsion(curve):
            print(t)
    elif args.jac_op == "theta-int":
        m = hy.parse_class(curve, args.m)
        first, second = hy.theta_translate_intersection(curve, m)
        print(first)
        print(second)
    elif args.jac_op == "weierstrass":
        for w in hy.weierstrass_points(curve):
            print(w)
    elif args.jac_op == "enumerate":
        for cls in hy.enumerate_pic(curve, args.degree):
            print(cls)
    return 0


def _cmd_bundle(args) -> int:
    if args.bundle_op == "chi":
        symbol = bundles.BundleSymbol(args.rank, args.degree, args.genus)
        print(f"chi = {bundles.chi(symbol)}")
    elif args.bundle_op == "slope":
        symbol = bundles.BundleSymbol(args.rank, args.degree, args.genus)
        print(f"slope = {bundles.slope(symbol)}")
    elif args.bundle_op == "moduli-dim":
        print(f"dim = {bundles.moduli_dim(args.n, args.genus)}")
    elif args.bundle_op == "raynaud":
        inv = bundles.raynaud_invariants(args.genus)
        print(f"mukai rank = {inv.mukai_rank}")
        print(f"duplication degree = {inv.duplication_degree}")
        print(f"(2Theta)^2 = {inv.theta_self_int_2theta}")
        print(f"pullback degree = {inv.pullback_degree_on_Y}")
        print(f"slope E_c = {inv.slope_Ec}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-lab",
        description="Exact recomputation toolkit: Verlinde numbers, Hilbert "
        "polynomial fits, Lefschetz splittings, and genus-2 Jacobian arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="recompute all pinned constants")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.set_defaults(func=_cmd_report)

    p_verlinde = sub.add_parser("verlinde", help="S(s,t) table and p(2)")
    p_verlinde.add_argument("--approx", action="store_true",
                            help="also show floating approximations")
    p_verlinde.set_defaults(func=_cmd_verlinde)

    p_fit = sub.add_parser("fit", help="fit the Hilbert polynomial to three values")
    p_fit.add_argument("--values", required=True, metavar="p0,p1,p2")
    p_fit.set_defaults(func=_cmd_fit)

    p_lef = sub.add_parser("lefschetz", help="fixed-point scenario splitting")
    p_lef.add_argument("--scenario", choices=sorted(lefschetz.scenarios()), required=True)
    p_lef.set_defaults(func=_cmd_lefschetz)

    p_jac = sub.add_parser("jac", help="Jacobian arithmetic on a curve")
    p_jac.add_argument("--curve", required=True,
                       metavar='"field=Fp:13; f=0,-1,0,0,0"')
    jac_sub = p_jac.add_subparsers(dest="jac_op", required=True)
    p_add = jac_sub.add_parser("add", help="add two classes")
    p_add.add_argument("--a", required=True, metavar='"u=..; v=..; d=.."')
    p_add.add_argument("--b", required=True, metavar='"u=..; v=..; d=.."')
    p_h0 = jac_sub.add_parser("h0", help="dimension of global sections")
    p_h0.add_argument("--class", dest="cls", required=True, metavar='"u=..; v=..; d=.."')
    jac_sub.add_parser("two-torsion", help="the 16 classes killed by 2")
    p_theta = jac_sub.add_parser("theta-int", help="theta-translate intersection")
    p_theta.add_argument("--m", required=True, metavar='"u=..; v=..; d=0"')
    jac_sub.add_parser("weierstrass", help="the six Weierstrass points")
    p_enum = jac_sub.add_parser("enumerate", help="all classes of one degree")
    p_enum.add_argument("--degree", type=int, default=0)
    p_jac.set_defaults(func=_cmd_jac)

    p_bundle = sub.add_parser("bundle", help="rank/degree bookkeeping")
    bundle_sub = p_bundle.add_subparsers(dest="bundle_op", required=True)
    for name in ("chi", "slope"):
        p_op = bundle_sub.add_parser(name)
        p_op.add_argument("--rank", type=int, required=True)
        p_op.add_argument("--degree", type=int, required=True)
        p_op.add_argument("--genus", type=int, default=2)
    p_dim = bundle_sub.add_parser("moduli-dim")
    p_dim.add_argument("--n", type=int, required=True)
    p_dim.add_argument("--genus", type=int, default=2)
    p_ray = bundle_sub.add_parser("raynaud")
    p_ray.add_argument("--genus", type=int, default=2)
    p_bundle.set_defaults(func=_cmd_bundle)

    return parser


def _join_values(argv: list[str]) -> list[str]:
    """'--values V' as '--values=V': argparse reads a V that starts with a
    minus sign, like -1,10,58, as an option and rejects the pair."""
    out = []
    for token in argv:
        if out and out[-1] == "--values":
            out[-1] = f"--values={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ThetaLabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        code = "DIVISION_BY_ZERO" if isinstance(exc, ZeroDivisionError) else "INVALID_INPUT"
        print(f"error: {code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
