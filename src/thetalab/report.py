"""One-shot report: recompute every headline value and compare.

Each row recomputes one headline value through the public library
surface (p(0), p(1) and p(2) from the Verlinde formula at levels 0, 1
and 2) and compares its canonical text rendering against the expected
text in EXPECTED.  The EXPECTED table is module-level data so a fault
injected there (or in the library) flips exactly the affected rows; a
row whose computation raises a domain, value or arithmetic error shows
the error's class name and mismatches, and the other rows still run.
Values shared by several rows are computed once per report, inside the
first row that needs them; nothing is cached across calls.
"""
from __future__ import annotations

from functools import cache

from . import bundles, hilbert, lefschetz, verlinde
from . import hyperelliptic as hy
from .errors import ThetaLabError
from .value import Value

REFERENCE_CURVE_SPEC = "field=Fp:13; f=0,-1,0,0,0"


class ReportRow(Value):
    __slots__ = ("label", "computed", "expected", "source")

    @property
    def status(self) -> str:
        return "match" if self.computed == self.expected else "mismatch"


EXPECTED: dict[str, str] = {
    "p(0)": "1",
    "p(1)": "10",
    "p(2)": "58",
    "gamma": "1/604800",
    "basepoints": "6",
    "canonical power": "-6",
    "h0(4Theta)+": "10",
    "h0(4Theta)-": "6",
    "sym2 split": "(1, 5)",
    "sym2 rejected": "Infeasible",
    "hom(E_f,E_e) split": "(1, 3)",
    "hom(O(-w),E_e) split": "(1, 1)",
    "moduli dim (2,2)": "10",
    "mukai rank": "4",
    "duplication degree": "16",
    "pullback degree": "64",
    "slope E_c": "1",
    "chi(W x K)": "4",
    "slope F": "5/3",
    "|J[2]|": "16",
    "Theta^2": "2",
}


def _computations():
    """(label, source, thunk) per row.  A failing shared value is not
    cached, so it flips every row that uses it."""
    values = cache(verlinde.hilbert_values)
    fit = cache(lambda: hilbert.fit_hilbert(*values()))
    eigen = cache(lambda: verlinde.theta_eigendims(2, 2))
    raynaud = cache(bundles.raynaud_invariants)
    return [
        ("p(0)", "verlinde.hilbert_values",
         lambda: values()[0]),
        ("p(1)", "verlinde.hilbert_values",
         lambda: values()[1]),
        # the label predates verlinde(level); perfbench/audit.py pins its bytes
        ("p(2)", "verlinde.verlinde_p2",
         lambda: values()[2]),
        ("gamma", "hilbert.fit_hilbert",
         lambda: fit().gamma),
        ("basepoints", "hilbert.fit_hilbert",
         lambda: fit().chern_degree),
        ("canonical power", "hilbert.canonical_power",
         hilbert.canonical_power),
        ("h0(4Theta)+", "verlinde.theta_eigendims",
         lambda: eigen()[0]),
        ("h0(4Theta)-", "verlinde.theta_eigendims",
         lambda: eigen()[1]),
        ("sym2 split", "lefschetz.split_eigendims",
         lambda: lefschetz.split_eigendims(lefschetz.sym2_scenario())),
        ("sym2 rejected", "lefschetz.split_eigendims",
         lambda: lefschetz.split_eigendims(lefschetz.sym2_rejected_scenario())),
        ("hom(E_f,E_e) split", "lefschetz.split_eigendims",
         lambda: lefschetz.split_eigendims(lefschetz.hom_ee_scenario())),
        ("hom(O(-w),E_e) split", "lefschetz.split_eigendims",
         lambda: lefschetz.split_eigendims(lefschetz.hom_ow_scenario())),
        ("moduli dim (2,2)", "bundles.moduli_dim",
         lambda: bundles.moduli_dim(2, 2)),
        ("mukai rank", "bundles.raynaud_invariants",
         lambda: raynaud().mukai_rank),
        ("duplication degree", "bundles.raynaud_invariants",
         lambda: raynaud().duplication_degree),
        ("pullback degree", "bundles.raynaud_invariants",
         lambda: raynaud().pullback_degree_on_Y),
        ("slope E_c", "bundles.raynaud_invariants",
         lambda: raynaud().slope_Ec),
        ("chi(W x K)", "bundles.chi",
         lambda: bundles.chi(bundles.BundleSymbol(4, 0).tensor(bundles.BundleSymbol(1, 2)))),
        ("slope F", "bundles.slope",
         lambda: bundles.slope(bundles.BundleSymbol(3, 5))),
        ("|J[2]|", "hyperelliptic.two_torsion",
         lambda: len(hy.two_torsion(hy.parse_curve(REFERENCE_CURVE_SPEC)))),
        ("Theta^2", "bundles.theta_self_intersection",
         lambda: bundles.theta_self_intersection(1, 2)),
    ]


def build_report() -> list[ReportRow]:
    rows = []
    for label, source, thunk in _computations():
        try:
            computed = str(thunk())
        except (ThetaLabError, ValueError, ArithmeticError) as exc:
            computed = type(exc).__name__
        rows.append(ReportRow(label, computed, EXPECTED[label], source))
    return rows


def render_text(rows: list[ReportRow]) -> str:
    headers = ("label", "computed", "expected", "status", "source")
    table = [headers] + [
        (r.label, r.computed, r.expected, r.status, r.source) for r in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(5)]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    matches = sum(1 for r in rows if r.status == "match")
    out.append(f"{len(rows)} rows, {matches} match, {len(rows) - matches} mismatch")
    return "\n".join(out) + "\n"


def rows_to_json(rows: list[ReportRow]) -> str:
    import json  # only --format json needs it

    payload = [{"label": r.label, "computed": r.computed, "expected": r.expected,
                "source": r.source, "status": r.status} for r in rows]
    return json.dumps({"rows": payload}, indent=2) + "\n"


def all_match(rows: list[ReportRow]) -> bool:
    return all(r.status == "match" for r in rows)
