import pytest
from hypothesis import given, settings, strategies as st

from thetalab import cli, lefschetz, report
from thetalab.bundles import BundleSymbol, chi
from thetalab.lefschetz import (
    Infeasible,
    LefschetzScenario,
    hom_ee_scenario,
    hom_ow_scenario,
    lefschetz_number,
    select_sym2,
    split_eigendims,
)


def scenario(traces, h0=0, h1=6, h0_plus=0):
    return LefschetzScenario(traces, h0, h1, h0_plus)


class TestLefschetzNumber:
    def test_five_ones_and_a_three(self):
        assert lefschetz_number(scenario([1, 1, 1, 1, 1, 3])) == 4

    def test_five_threes_and_a_one(self):
        assert lefschetz_number(scenario([3, 3, 3, 3, 3, 1])) == 8

    def test_empty_sum(self):
        assert lefschetz_number(scenario([])) == 0

    def test_negating_traces_negates_number(self):
        s = scenario([1, 1, 1, 1, 1, 3])
        negated = scenario([-1, -1, -1, -1, -1, -3])
        assert lefschetz_number(negated) == -lefschetz_number(s)

    def test_fractional_determinants(self):
        """Each trace is divided by det = 2: a lone trace 4 counts 2."""
        s = LefschetzScenario((4,), 0, 0, 0)
        assert lefschetz_number(s) == 2


class TestSplit:
    def test_sym2_table(self):
        assert split_eigendims(scenario([1, 1, 1, 1, 1, 3])) == (1, 5)

    def test_rejected_sym2_table(self):
        with pytest.raises(Infeasible):
            split_eigendims(scenario([3, 3, 3, 3, 3, 1]))

    def test_hom_ee_table(self):
        assert split_eigendims(scenario([0, 0, 0, 0, 0, 4], h1=4)) == (1, 3)

    def test_parity_mismatch(self):
        with pytest.raises(Infeasible):
            split_eigendims(scenario([1], h1=2))

    def test_out_of_range(self):
        with pytest.raises(Infeasible):
            split_eigendims(scenario([20], h1=2))

    def test_components_sum_to_total(self):
        plus, minus = split_eigendims(scenario([0, 0, 0, 0, 0, 4], h1=4))
        assert plus + minus == 4
        assert plus >= 0 and minus >= 0


class TestScenarios:
    def test_sym2_scenario_split(self):
        assert split_eigendims(select_sym2()[0]) == (1, 5)

    def test_sym2_h1_from_riemann_roch(self):
        sym2 = BundleSymbol(2, -1).sym2()
        assert sym2 == BundleSymbol(3, -3)
        assert select_sym2()[0].h1_total == -chi(sym2) == 6

    def test_sym2_rejected_raises(self):
        with pytest.raises(Infeasible):
            split_eigendims(select_sym2()[1])

    def test_sym2_tables_are_the_two_candidates(self):
        tables = {c.traces for c in select_sym2()}
        assert tables == {(1, 1, 1, 1, 1, 3), (3, 3, 3, 3, 3, 1)}

    def test_rejected_is_the_other_candidate(self):
        feasible, rejected = select_sym2()
        assert feasible.traces == (1, 1, 1, 1, 1, 3)
        assert rejected.traces == (3, 3, 3, 3, 3, 1)

    def test_one_table_names_every_scenario(self):
        table = lefschetz.scenarios()
        assert sorted(table) == ["hom-ee", "hom-ow", "sym2", "sym2-rejected"]
        assert (table["sym2"](), table["sym2-rejected"]()) == select_sym2()
        assert table["hom-ee"]() == hom_ee_scenario()
        assert table["hom-ow"]() == hom_ow_scenario()

    def test_report_selects_sym2_once(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return select_sym2()

        monkeypatch.setattr(lefschetz, "select_sym2", counted)
        report.build_report()
        assert len(calls) == 1

    def test_hom_ee(self):
        s = hom_ee_scenario()
        assert lefschetz_number(s) == 2
        assert s.h1_total == -chi(BundleSymbol(2, -1).hom(BundleSymbol(2, -1))) == 4
        assert split_eigendims(s) == (1, 3)

    def test_hom_ow(self):
        s = hom_ow_scenario()
        assert lefschetz_number(s) == 1
        assert s.h0_plus == 1
        assert s.h1_total == 2
        assert split_eigendims(s) == (1, 1)


class TestValidation:
    def test_h0_plus_bounded(self):
        with pytest.raises(ValueError):
            LefschetzScenario((), 1, 0, 2)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LefschetzScenario((), 0, -1, 0)


@st.composite
def scenarios(draw):
    traces = draw(st.lists(st.integers(-6, 6), min_size=0, max_size=8))
    h0 = draw(st.integers(0, 5))
    h0_plus = draw(st.integers(0, h0))
    h1 = draw(st.integers(0, 8))
    return scenario(traces, h0=h0, h1=h1, h0_plus=h0_plus)


class TestFeasibilityParity:
    @settings(max_examples=1000)
    @given(s=scenarios())
    def test_split_exists_iff_parity_and_range(self, s):
        number = lefschetz_number(s)
        implied = s.h1_total + (2 * s.h0_plus - s.h0_total) - number
        feasible = (
            implied.denominator == 1
            and implied.numerator % 2 == 0
            and 0 <= implied.numerator // 2 <= s.h1_total
        )
        if feasible:
            plus, minus = split_eigendims(s)
            assert plus + minus == s.h1_total
            assert (2 * s.h0_plus - s.h0_total) - (plus - minus) == number
        else:
            with pytest.raises(Infeasible):
                split_eigendims(s)

    @settings(max_examples=200)
    @given(s=scenarios())
    def test_trace_negation_linearity(self, s):
        flipped = LefschetzScenario(
            tuple(-t for t in s.traces),
            s.h0_total, s.h1_total, s.h0_plus,
        )
        assert lefschetz_number(flipped) == -lefschetz_number(s)


# Patched sym2 tables under which none or both of the candidates split.
UNSELECTABLE_SYM2 = {
    "none-split": ((3, 3, 3, 3, 3, 1), (1, 1, 1, 1, 1, 1)),
    "both-split": ((1, 1, 1, 1, 1, 3), (0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("tables", UNSELECTABLE_SYM2.values(), ids=UNSELECTABLE_SYM2)
class TestSym2SelectionFails:
    """A selection that does not find exactly one splitting sym2 table is
    Infeasible, and only the sym2 outputs show it."""

    def test_selection_raises(self, monkeypatch, tables):
        monkeypatch.setattr(lefschetz, "SYM2_TABLES", tables)
        with pytest.raises(Infeasible):
            select_sym2()

    def test_cli_reports_infeasible(self, monkeypatch, capsys, tables):
        monkeypatch.setattr(lefschetz, "SYM2_TABLES", tables)
        assert cli.main(["lefschetz", "--scenario", "sym2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: INFEASIBLE: ")
        assert err.count("\n") == 1

    def test_report_flips_only_the_sym2_rows(self, monkeypatch, tables):
        before = report.build_report()
        monkeypatch.setattr(lefschetz, "SYM2_TABLES", tables)
        after = report.build_report()
        changed = [a.label for a, b in zip(after, before) if a != b]
        assert changed == ["sym2 split"]
        sym2 = {r.label: r.computed for r in after if r.label.startswith("sym2")}
        assert sym2 == {"sym2 split": "Infeasible", "sym2 rejected": "Infeasible"}
        others = [r for r in after if not r.label.startswith("sym2")]
        assert len(others) == 19
        assert all(r.status == "match" for r in others)
