"""Quasipolynomial fitting, closed forms, and theorem verification."""

import itertools
import json
import math
from fractions import Fraction

import pytest

import rank3

from reference_values import R_TABLE


def partitions_at_most_three(n):
    return sum(1 for p in itertools.product(range(n + 1), repeat=3)
               if sum(p) == n and p[0] >= p[1] >= p[2])


def partitions_two_then_ones(n):
    # partitions of n with one part equal 2..n and the rest split in two
    # ordered halves: pairs (i, j) with i >= j >= 0 and i + j = n
    return sum(1 for i in range(n + 1) for j in range(i + 1) if i + j == n)


class TestClosedForms:
    def test_p2_matches_pair_count(self):
        for n in range(0, 30):
            want = sum(1 for i in range(n + 1) if 2 * i >= n and i <= n)
            # partitions of n into at most 2 parts
            want = sum(1 for i in range(n + 1) for j in range(i + 1) if i + j == n)
            assert rank3.p2(n) == want

    def test_p3_matches_partition_count(self):
        for n in range(0, 25):
            assert rank3.p3(n) == partitions_at_most_three(n)

    def test_p21_matches_plane_count(self):
        # p21(n) counts pairs of partitions: n = x + y with x split into
        # at most 2 parts and y a single part; equals ((n+2)^2) // 4
        for n in range(0, 25):
            want = sum(rank3.p2(k) for k in range(0, n + 1))
            assert rank3.p21(n) == want
        assert rank3.p21(2) == 4

    def test_negative_arguments_vanish(self):
        for f in (rank3.p2, rank3.p3, rank3.p21):
            assert f(-1) == 0
            assert f(-5) == 0


class TestFitting:
    def test_two_coatoms_is_linear(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[2], 2)
        assert fit.period == 2
        # both residue classes carry the identity polynomial
        assert fit.constituents == ((Fraction(0), Fraction(1)),) * 2
        assert fit.observed_threshold == 0

    def test_three_coatoms_matches_reference(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[3], 3)
        ref = rank3.reference_quasipolynomial(3)
        assert fit.period == ref.period == 6
        for n in range(0, 200):
            assert fit.value_at(n) == ref.value_at(n)
        assert fit.observed_threshold == 0

    def test_four_coatoms_matches_reference(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[4], 4)
        ref = rank3.reference_quasipolynomial(4)
        for n in range(0, 300):
            assert fit.value_at(n) == ref.value_at(n)
        assert fit.observed_threshold == 0

    def test_five_coatoms_matches_reference(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        ref = rank3.reference_quasipolynomial(5)
        for n in range(3, 1000):
            assert fit.value_at(n) == ref.value_at(n)
        # the published closed form holds from 3 atoms on, not before
        assert fit.observed_threshold == 3
        assert fit.value_at(2) != tables_to_1000[5].values[2]

    def test_six_coatoms_leading_terms(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[6], 6)
        assert fit.degree == 5
        top = rank3.LEADING_TERMS[6]
        for coeffs in fit.constituents:
            assert coeffs[-1] == top[0]
            assert coeffs[-2] == top[1]
            assert coeffs[-3] == top[2]

    @pytest.mark.parametrize("c", [6, 7, 8, pytest.param(9, marks=pytest.mark.slow)])
    def test_leading_term_is_labelled_total(self, c):
        # R(c, a) grows as L_c a^(c-1) / (c! (c-1)!), L_c the labelled
        # families: the identity's cells of fixed_family_counts
        labelled = rank3.genconn.fixed_family_counts(c)[(c,) + (0,) * (c - 1)]
        total = sum(labelled.values())
        assert rank3.LEADING_TERMS[c][0] == Fraction(total, math.factorial(c) *
                                                     math.factorial(c - 1))

    def test_arity_error_reports_requirement(self):
        table = rank3.count_lattices(4, 48)
        with pytest.raises(rank3.FitArityError) as info:
            rank3.fit_for_coatoms(table, 4)
        assert info.value.required_a_max == 53
        assert "53" in str(info.value)

    def test_minimal_table_suffices(self):
        # 48 interpolation points at indices >= 6 need a_max exactly 53
        fit = rank3.fit_for_coatoms(rank3.count_lattices(4, 53), 4)
        ref = rank3.expand_period(rank3.reference_quasipolynomial(4), 12)
        assert fit.constituents == ref.constituents

    def test_rejection_reports_index(self, tables_to_1000):
        values = list(tables_to_1000[3].values)
        values[40] += 1
        with pytest.raises(rank3.FitRejectedError) as info:
            rank3.fit_quasipolynomial(values, 6, 2, 3)
        assert info.value.index == 40

    @pytest.mark.parametrize("corrupt, index", [
        ((150, 101), 101),  # class of 101 is fitted after the class of 150
        ((5,), 23),  # an interpolation point: the class fails at its next entry
    ])
    def test_rejection_reports_smallest_index(self, tables_to_1000, corrupt, index):
        values = list(tables_to_1000[3].values)
        for a in corrupt:
            values[a] += 1
        with pytest.raises(rank3.FitRejectedError) as info:
            rank3.fit_quasipolynomial(values, 6, 2, 3)
        assert info.value.index == index

    def test_lower_degree_table_pads_with_zeros(self):
        fit = rank3.fit_quasipolynomial([3 * n + 1 for n in range(30)], 2, 3, 0)
        assert fit.constituents == ((Fraction(1), Fraction(3), Fraction(0), Fraction(0)),) * 2
        assert all(type(v) is Fraction for cs in fit.constituents for v in cs)

    def test_padded_period_gives_same_values(self, tables_to_1000):
        base = rank3.fit_for_coatoms(tables_to_1000[3], 3)
        padded = rank3.fit_quasipolynomial(tables_to_1000[3], 12, 2, 3)
        assert padded.period == 12
        for n in range(0, 120):
            assert padded.value_at(n) == base.value_at(n)

    @pytest.mark.parametrize("period, degree, threshold", [
        (0, 2, 3), (-6, 2, 3), (6, -1, 3), (6, 2, -1),
    ], ids=["zero-period", "negative-period", "negative-degree", "negative-threshold"])
    def test_rejects_out_of_range_parameters(self, tables_to_1000, period, degree, threshold):
        with pytest.raises(ValueError, match="need period"):
            rank3.fit_quasipolynomial(tables_to_1000[3], period, degree, threshold)

    def test_accepts_plain_sequence(self):
        fit = rank3.fit_quasipolynomial([n * n for n in range(10)], 1, 2, 0)
        assert fit.constituents == ((Fraction(0), Fraction(0), Fraction(1)),)


class TestEvaluation:
    def test_exact_large_argument(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        assert rank3.eval_quasipolynomial(fit, 1000) == R_TABLE[5][1000]

    def test_negative_atoms_rejected(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[2], 2)
        with pytest.raises(ValueError):
            rank3.eval_quasipolynomial(fit, -1)

    def test_non_integer_value_flagged(self):
        q = rank3.Quasipolynomial(1, 0, ((Fraction(1, 2),),))
        with pytest.raises(rank3.NonIntegerValueError):
            q.evaluate(0)
        # x/2: an integer at every even x, at no odd one
        half = rank3.Quasipolynomial(2, 0, ((0, Fraction(1, 2)),) * 2)
        assert half.evaluate(4) == 2
        with pytest.raises(rank3.NonIntegerValueError, match="value at 3 is 3/2, not an integer"):
            half.evaluate(3)

    def test_integer_evaluation_equals_fraction_value(self, tables_to_1000):
        # evaluate works in integers over one denominator per residue, value_at
        # in Fractions; the integer constituents it keeps stay out of ==
        fit = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        fresh = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        for a in [*range(0, 1000, 7), 10 ** 6, 10 ** 30 + 59]:
            assert fit.evaluate(a) == fit.value_at(a)
        assert fit == fresh and hash(fit) == hash(fresh)

    def test_expand_period(self):
        ref = rank3.reference_quasipolynomial(3)
        wide = rank3.expand_period(ref, 18)
        assert wide.period == 18
        for n in range(0, 100):
            assert wide.value_at(n) == ref.value_at(n)
        for period in (8, 0, -6):  # not a positive multiple of 6
            with pytest.raises(ValueError):
                rank3.expand_period(ref, period)

    def test_default_parameters(self):
        # R(c, 0) = 0 follows no constituent, so the threshold is at least 1
        assert rank3.default_fit_parameters(1) == (1, 0, 1)
        assert rank3.default_fit_parameters(2) == (2, 1, 1)
        assert rank3.default_fit_parameters(3) == (6, 2, 3)
        assert rank3.default_fit_parameters(4) == (12, 3, 6)
        assert rank3.default_fit_parameters(5) == (60, 4, 10)
        assert rank3.default_fit_parameters(6) == (60, 5, 15)
        assert rank3.default_fit_parameters(7) == (420, 6, 21)


class TestJsonInterchange:
    def test_roundtrip(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[4], 4)
        blob = json.dumps(rank3.quasipolynomial_to_json(fit, 4))
        c, back = rank3.quasipolynomial_from_json(blob)
        assert c == 4
        assert back == fit

    def test_normalized_section_minimal_periods(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[4], 4)
        data = rank3.quasipolynomial_to_json(fit, 4)
        assert data["period"] == 12
        # x^3 and x^2 coefficients are constant, x^1 alternates, x^0 is 12-periodic
        assert set(data["normalized"]["common"]) == {"2", "3"}
        periods = {row["degree"]: row["period"]
                   for row in data["normalized"]["periodic"]}
        assert periods == {0: 12, 1: 2}

    def test_reports_observed_threshold(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        data = rank3.quasipolynomial_to_json(fit, 5)
        assert data["n0_guaranteed"] == 10
        assert data["n0_observed"] == 3


class TestTheorems:
    def test_all_pass_on_true_tables(self, tables_to_1000):
        report = rank3.verify_theorems(tables_to_1000)
        assert report.all_passed
        text = str(report)
        assert "two_coatom_linear" in text and "ok" in text

    def test_corrupted_table_detected(self, tables_to_1000):
        bad = dict(tables_to_1000)
        values = list(bad[3].values)
        values[17] += 1
        bad[3] = rank3.CountTable(3, len(values) - 1, values)
        report = rank3.verify_theorems(bad)
        assert not report.all_passed
        assert "FAIL" in str(report)

    def test_partition_identity_matches_direct_sum(self, tables_to_1000):
        for a in range(1, 200):
            combined = (2 * rank3.p3(a - 3) + rank3.p3(a - 1)
                        + 2 * rank3.p21(a - 2))
            assert combined == tables_to_1000[3].values[a]
