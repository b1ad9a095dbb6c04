from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thetalab.bundles import (
    BundleSymbol,
    UnsupportedGenus,
    chi,
    moduli_dim,
    raynaud_invariants,
    slope,
    theta_self_intersection,
)

symbols = st.builds(
    BundleSymbol,
    rank=st.integers(1, 8),
    degree=st.integers(-20, 20),
    genus=st.just(2),
)


class TestChi:
    def test_pinned_cases(self):
        assert chi(BundleSymbol(4, 8)) == 4
        assert chi(BundleSymbol(1, 0)) == -1
        assert chi(BundleSymbol(3, -3)) == -6

    def test_w_tensor_canonical(self):
        w = BundleSymbol(4, 0)
        canonical = BundleSymbol(1, 2)
        assert chi(w.tensor(canonical)) == 4

    @given(a=symbols, b=symbols)
    def test_riemann_roch_bilinearity(self, a, b):
        trivial = BundleSymbol(1, 0, a.genus)
        lhs = chi(a.tensor(b))
        rhs = a.rank * chi(b) + b.rank * chi(a) - a.rank * b.rank * chi(trivial)
        assert lhs == rhs


class TestAlgebra:
    def test_sym2_of_extension_bundle(self):
        assert BundleSymbol(2, -1).sym2() == BundleSymbol(3, -3)

    def test_tensor_with_dual_has_degree_zero(self):
        e = BundleSymbol(3, 7)
        assert e.tensor(e.dual()).degree == 0

    @given(e=symbols)
    def test_sym2_wedge2_degrees_split_tensor_square(self, e):
        r = e.rank
        assert slope(e.sym2()) == slope(e.tensor(e))
        assert e.sym2().rank == r * (r + 1) // 2

    def test_twist(self):
        e = BundleSymbol(2, -1)
        assert e.tensor(BundleSymbol(1, 1)) == BundleSymbol(2, 1)

    def test_hom_det_identity(self):
        # deg Hom(A, B) = rank(A) deg(B) - rank(B) deg(A)
        w = BundleSymbol(2, 0)
        e_f = BundleSymbol(2, -1)
        assert e_f.hom(w).degree == 2

    def test_mixed_genus_rejected(self):
        with pytest.raises(ValueError):
            BundleSymbol(2, 1, 2).tensor(BundleSymbol(2, 1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            BundleSymbol(0, 1)
        with pytest.raises(ValueError):
            BundleSymbol(1, 1, genus=1)


class TestSlopeStability:
    def test_slope_5_3(self):
        assert slope(BundleSymbol(3, 5)) == Fraction(5, 3)

    def test_stability_examples(self):
        f = BundleSymbol(3, 5)
        assert slope(BundleSymbol(1, 1)) < slope(f)
        assert not slope(BundleSymbol(2, 4)) < slope(f)

    def test_equal_slope_not_allowed(self):
        assert not slope(BundleSymbol(1, 1)) < slope(BundleSymbol(3, 3))

    @given(e=symbols, line=st.integers(-5, 5))
    def test_twist_shifts_slope(self, e, line):
        assert slope(e.tensor(BundleSymbol(1, line))) == slope(e) + line


class TestModuliDim:
    def test_pinned_cases(self):
        assert moduli_dim(2, 2) == 10
        assert moduli_dim(1, 2) == 3
        assert moduli_dim(2, 3) == 20

    def test_genus_two_closed_form(self):
        for n in range(1, 8):
            assert moduli_dim(n, 2) == n * (2 * n + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            moduli_dim(0, 2)
        with pytest.raises(ValueError):
            moduli_dim(1, 1)


class TestRaynaud:
    def test_invariant_chain(self):
        inv = raynaud_invariants()
        assert inv.mukai_rank == 4
        assert inv.duplication_degree == 16
        assert inv.theta_self_int_2theta == 8
        assert inv.pullback_degree_on_Y == 64
        assert inv.slope_Ec == 1

    def test_slope_recomputation(self):
        inv = raynaud_invariants()
        recomputed = (
            Fraction(inv.pullback_degree_on_Y, inv.duplication_degree)
            / inv.mukai_rank
        )
        assert recomputed == inv.slope_Ec

    def test_theta_self_intersection(self):
        assert theta_self_intersection(1, 2) == 2
        assert theta_self_intersection(2, 2) == 8

    def test_other_genus_rejected(self):
        with pytest.raises(UnsupportedGenus):
            raynaud_invariants(3)
