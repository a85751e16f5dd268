"""Closed-form spectral and counting formulas against independent oracles.

Brute-force enumeration (permutation inversions) and the exact spectrum
engine validated in test_linalg supply the expected values.
"""

from itertools import permutations
from math import comb

import pytest

from rooklab.formulas import (CONJECTURED, UnsupportedParameters, binom,
                              bottom_multiplicity, common_quotient_spectrum,
                              independence_formula, independence_upper_bound,
                              johnson_spectrum, mahonian, predicted_spectrum,
                              smallest_eigenvalue_formula)
from rooklab.graphs import johnson_graph, sr_order
from rooklab.linalg import integral_spectrum


def brute_mahonian(m, n):
    return sum(1 for p in permutations(range(m))
               if sum(1 for i in range(m) for j in range(i + 1, m)
                      if p[i] > p[j]) == n)


class TestCounting:
    def test_binom_extends_comb_with_zero(self):
        assert binom(5, 2) == comb(5, 2)
        assert binom(-1, 0) == 0
        assert binom(3, -1) == 0
        assert binom(2, 5) == 0

    def test_vertex_count(self):
        assert sr_order(4, 3) == 20
        assert sr_order(1, 9) == 1

    def test_mahonian_against_brute_force(self):
        for m in range(1, 7):
            for n in range(0, comb(m, 2) + 2):
                assert mahonian(m, n) == brute_mahonian(m, n)

    def test_mahonian_symmetry(self):
        # Inversion counts are symmetric about binom(m,2)/2.
        for m in range(2, 7):
            top = comb(m, 2)
            for n in range(top + 1):
                assert mahonian(m, n) == mahonian(m, top - n)

    def test_mahonian_rejects_bad_parameters(self):
        with pytest.raises(UnsupportedParameters):
            mahonian(0, 1)
        with pytest.raises(UnsupportedParameters):
            mahonian(3, -1)


class TestEigenvalueFormulas:
    def test_smallest_eigenvalue_regimes(self):
        assert smallest_eigenvalue_formula(5, 3) == -3   # n below binom(m,2)
        assert smallest_eigenvalue_formula(3, 9) == -3   # binom(m,2) below n
        assert smallest_eigenvalue_formula(4, 6) == -6   # boundary

    def test_bottom_multiplicity_vanishes_below_threshold(self):
        assert bottom_multiplicity(4, 5) == 0  # n < binom(4,2) = 6
        assert bottom_multiplicity(4, 6) == comb(6 - 3, 3)
        # binom(n - binom(m-1,2), m-1) when n >= binom(m,2), else 0, on the
        # grid of the battery's gamma.fpw claims.
        for m in range(2, 5):
            for n in range(1, 9):
                assert bottom_multiplicity(m, n) == (
                    comb(n - comb(m - 1, 2), m - 1) if n >= comb(m, 2)
                    else 0), (m, n)


class TestJohnsonSpectrum:
    def test_against_exact_engine(self):
        for v, n in ((4, 2), (5, 2), (6, 3), (7, 2)):
            predicted = johnson_spectrum(v, n)
            assert predicted.pairs == integral_spectrum(johnson_graph(v, n)).pairs

    def test_complement_symmetry(self):
        assert johnson_spectrum(7, 3).pairs == johnson_spectrum(7, 4).pairs

    def test_rejects_bad_parameters(self):
        with pytest.raises(UnsupportedParameters):
            johnson_spectrum(4, 5)


class TestCommonQuotient:
    def test_submultiset_of_both_spectra(self, sr_spectrum):
        for m in range(2, 5):
            for n in range(1, 5):
                common = common_quotient_spectrum(m, n)
                sr_spec = sr_spectrum(m, n)
                j_spec = integral_spectrum(johnson_graph(m + n - 1, n))
                for ev, mult in common.pairs:
                    assert sr_spec.multiplicity(ev) >= mult
                    assert j_spec.multiplicity(ev) >= mult

    def test_total_is_sum_of_binomials(self):
        for m in range(2, 6):
            for n in range(1, 6):
                total = common_quotient_spectrum(m, n).total
                assert total == sum(binom(m, i) for i in range(1, n + 1))

    def test_known_case(self):
        assert str(common_quotient_spectrum(4, 3)) == "9^1 3^4 (-1)^6 (-3)^3"


class TestPredictedFamilies:
    def test_fixed_n_families_match_exact_spectra(self, sr_spectrum):
        for family, n in (("n0", 0), ("n1", 1), ("n2", 2), ("n3", 3), ("n4", 4)):
            for m in range(1, 6):
                assert predicted_spectrum(family, m, n).pairs == \
                    sr_spectrum(m, n).pairs

    def test_m3_family_matches_exact_spectra(self, sr_spectrum):
        for n in range(1, 9):
            assert predicted_spectrum("m3", 3, n).pairs == sr_spectrum(3, n).pairs

    def test_conjectured_families_are_listed(self):
        assert CONJECTURED == {"n5", "m4"}

    def test_n5_matches_exact_spectrum_small(self, sr_spectrum):
        for m in range(1, 5):
            assert predicted_spectrum("n5", m, 5).pairs == sr_spectrum(m, 5).pairs

    def test_m4_covers_table_gap_only(self):
        # The m=4 generator starts after the proved n <= 4 families and
        # skips n=7, where no closed form is claimed.
        predicted_spectrum("m4", 4, 6)
        with pytest.raises(UnsupportedParameters):
            predicted_spectrum("m4", 4, 7)
        with pytest.raises(UnsupportedParameters):
            predicted_spectrum("m4", 4, 5)
        with pytest.raises(UnsupportedParameters):
            predicted_spectrum("m4", 3, 8)

    def test_m4_matches_exact_spectrum(self, sr_spectrum):
        for n in (6, 8, 9):
            assert predicted_spectrum("m4", 4, n).pairs == sr_spectrum(4, n).pairs

    def test_family_totals_equal_vertex_count(self):
        for m in range(1, 9):
            for family, n in (("n3", 3), ("n4", 4), ("n5", 5)):
                assert predicted_spectrum(family, m, n).total == \
                    sr_order(m, n)

    def test_unknown_family_rejected(self):
        with pytest.raises(UnsupportedParameters):
            predicted_spectrum("n9", 3, 9)


class TestIndependenceFormulas:
    def test_m3_row(self):
        # alpha(3,n) = floor((2n+3)/3)
        assert [independence_formula(3, n) for n in range(1, 8)] == \
            [1, 2, 3, 3, 4, 5, 5]

    def test_n3_column_residues(self):
        # Four-case formula: residues 1,5 / 3 / 0,4 / 2 mod 6.
        assert independence_formula(7, 3) == 8 * 9 // 6
        assert independence_formula(9, 3) == 9 * 12 // 6
        assert independence_formula(6, 3) == 6 * 8 // 6
        assert independence_formula(4, 3) == 4 * 6 // 6
        assert independence_formula(8, 3) == (64 + 16 - 2) // 6

    def test_agreement_at_3_3(self):
        assert independence_formula(3, 3) == 3

    def test_upper_bound_dominates_formula(self):
        for m in range(3, 12):
            assert independence_formula(m, 3) <= independence_upper_bound(m)

    def test_unsolved_cases_rejected(self):
        with pytest.raises(UnsupportedParameters):
            independence_formula(4, 4)
