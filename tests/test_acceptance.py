"""End-to-end acceptance checks, one test per criterion, all exact.

Run with ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion.  The long-running extras (the full 8-coatom census and the
counts at ten and eleven coatoms) sit behind the ``slow`` marker and do
not gate.
"""

import math
import time

import pytest

import rank3
from rank3 import cli

from reference_values import (
    GRAPH_CENSUS,
    MEMO_STATS,
    PATH4_BALLS,
    R5_AT_MILLION,
    R_TABLE,
)
from test_bigraph import CENSUS_SHA256, census_sha256
from test_genconn import cells_sha256


# sha256 of repr(sorted((cycle type, sorted cells))) of fixed_family_counts(10),
# recorded from the orbit-union walk memoised on the whole candidate set and
# the point elimination that chose blocks point by point
C10_CELLS_SHA256 = "7c38dd9fe5d02a2404828ec3fa4f3fb715cb53d7490178b887993f07e9de7fb0"

# the same of fixed_family_counts(11), recorded from the orbit-union walk
# that tallies the unions of each connected set of orbits
C11_CELLS_SHA256 = "a9ce6172451d6f59030f601f78e6d010cc5594addf52cf150a5bd2a0e5b6c9ed"


def report(num, text):
    print("criterion %02d PASS: %s" % (num, text))


def bounded_partitions(n, parts):
    """Partitions of n into at most ``parts`` parts, by brute recursion."""

    def count(remaining, largest, slots):
        if remaining == 0:
            return 1
        if slots == 0:
            return 0
        return sum(count(remaining - p, p, slots - 1)
                   for p in range(min(remaining, largest), 0, -1))

    return count(n, n, parts)


class TestCriterion01GraphCensus:
    def test_counts_to_six_coatoms(self, graphs_by_c):
        t0 = time.time()
        for c in range(2, 7):
            assert len(graphs_by_c[c]) == GRAPH_CENSUS[c]
        # fixture already built the lists; rebuild the largest to time it
        rebuilt = sum(1 for _ in rank3.generate_connection_graphs(6))
        elapsed = time.time() - t0
        assert rebuilt == GRAPH_CENSUS[6]
        assert elapsed < 60
        report(1, "censuses 2..6 exact, 6-coatom rebuild in %.1fs" % elapsed)

    def test_count_at_seven_coatoms(self, graphs_c7, c7_build_seconds):
        assert len(graphs_c7) == GRAPH_CENSUS[7]
        assert c7_build_seconds < 900
        report(1, "7-coatom census %d in %.0fs" % (len(graphs_c7), c7_build_seconds))


class TestCriterion02SymmetryCensus:
    def test_cycle_index_and_trivial_counts(self, graphs_by_c, graphs_c7):
        pools = dict(graphs_by_c)
        pools[7] = graphs_c7
        for c in range(2, 8):
            _, stats = rank3.count_lattices_stats(c, 8, pools[c])
            assert (stats.graphs_processed, stats.distinct_cycle_indices,
                    stats.trivial_action_graphs) == MEMO_STATS[c]
        report(2, "cycle-index and trivial-action censuses for c = 2..7")


class TestCriterion03ValueTables:
    def test_published_columns(self, tables_to_1000, table_c7):
        checked = 0
        for c in range(3, 7):
            for a, want in R_TABLE[c].items():
                assert tables_to_1000[c].values[a] == want
                checked += 1
        for a in range(1, 31):
            assert table_c7.values[a] == R_TABLE[7][a]
            checked += 1
        assert tables_to_1000[5].values[1000] == 905068227527
        assert tables_to_1000[6].values[1000] == 2108993735138119
        report(3, "%d published table entries reproduced exactly" % checked)


class TestCriterion04LargeCoatomSpotCheck:
    def test_duality_substitute(self, tables_to_1000, brute_force):
        # generating all 552251 graphs at c = 8 and counting them takes
        # minutes (the slow test below), so tier-1 uses the sanctioned
        # substitute: R(8,a) = R(a,8) from the a-coatom pipelines, plus the
        # independent oracle where affordable
        for a in range(2, 7):
            assert tables_to_1000[a].values[8] == R_TABLE[8][a]
        assert rank3.count_lattices(1, 8).values[8] == R_TABLE[8][1]
        for a in range(1, 5):
            assert brute_force(8, a) == R_TABLE[8][a]
        report(4, "R(8,a) via duality for a <= 6 and oracle for a <= 4")

    def test_generated_column(self):
        # a count without graphs lists no census: each cycle type's terms are
        # a Burnside count, about 0.2 s at c = 8
        table, stats = rank3.count_lattices_stats(8, 1000)
        assert len(R_TABLE[8]) == 40
        for a, want in R_TABLE[8].items():
            assert table.values[a] == want
        assert stats == rank3.MemoStats(GRAPH_CENSUS[8], None, None)
        report(4, "all %d published R(8,a) from the generated path" % len(R_TABLE[8]))

    @pytest.mark.slow
    def test_direct_census_and_counts(self):
        classes = list(rank3.genconn._classes(8))
        graphs = [rank3.BicoloredGraph(8, masks) for masks, _group in classes]
        assert len(graphs) == GRAPH_CENSUS[8]
        assert census_sha256(graphs) == CENSUS_SHA256[8]
        # searching every graph gives the MemoStats, all 85 labelled cells (the
        # identity's) and the generated path's (cycle type, r, s) cells, so
        # its published column
        cells, searched = rank3.genconn.fold_graphs(8, graphs)
        assert (searched.graphs_processed, searched.distinct_cycle_indices,
                searched.trivial_action_graphs) == MEMO_STATS[8]
        labelled = cells[(8,) + (0,) * 7]
        generated = rank3.polya.fixed_family_counts(8)
        assert labelled == generated[(8,) + (0,) * 7] and len(labelled) == 85
        assert cells == generated
        values = rank3.polya.expand_rational(*rank3.polya.one_denominator(cells),
                                             math.factorial(8), 1001)
        for a, want in R_TABLE[8].items():
            assert values[a] == want
        report(4, "census bytes, 85 labelled cells and the generated cells from all %d "
               "searched graphs" % len(graphs))

    def test_nine_coatoms(self):
        # the paper's last column, from the generated path alone: the census
        # of c = 9 is never listed, the Burnside count takes a few seconds and
        # its cells are pinned by test_genconn's C9_CELLS_SHA256
        table, stats = rank3.count_lattices_stats(9, 1000)
        assert len(R_TABLE[9]) == 40
        for a, want in R_TABLE[9].items():
            assert table.values[a] == want
        assert stats.graphs_processed == 82856695
        report(4, "all %d published R(9,a) from %d classes never listed"
               % (len(R_TABLE[9]), stats.graphs_processed))

    @pytest.mark.slow
    def test_ten_coatoms(self):
        # past the paper, derived here and not published: the c = 10 count
        # passes its orbit-counting gate, its cells are pinned, its identity
        # cells add up to the labelled families L_10, and R(10, a) = R(a, 10)
        # for a <= 9, the latter from the a-coatom counts and published;
        # about 1.5 s on two cores
        cells = rank3.polya.fixed_family_counts(10)
        assert cells_sha256(cells) == C10_CELLS_SHA256
        assert sum(cells[(10,) + (0,) * 9].values()) == 125671440998259521
        column = rank3.count_lattices(10, 9).values[1:]
        assert column == [rank3.count_lattices(a, 10).values[10] for a in range(1, 10)]
        assert column == [R_TABLE[a][10] for a in range(1, 10)]
        report(4, "R(10,a) = R(a,10) for a <= 9 and L_10 from the c = 10 Burnside count")

    @pytest.mark.slow
    def test_eleven_coatoms(self):
        # as test_ten_coatoms, one coatom further, derived here and not
        # published: R(11, a) = R(a, 11) for a <= 9 from the published
        # a-coatom counts, and R(11, 10) = R(10, 11) from the two Burnside
        # counts; about 16 s in one process at a 150 MB peak
        cells = rank3.polya.fixed_family_counts(11)
        assert cells_sha256(cells) == C11_CELLS_SHA256
        assert sum(cells[(11,) + (0,) * 10].values()) == 1656590897737324316577
        column = rank3.count_lattices(11, 10).values
        assert column[1:10] == [R_TABLE[a][11] for a in range(1, 10)]
        assert column[10] == rank3.count_lattices(10, 11).values[11] == 515320881
        report(4, "R(11,a) = R(a,11) for a <= 10 and L_11 from the c = 11 Burnside count")


class TestCriterion05ClosedFormTheorems:
    def test_verify_theorems_to_1000(self, tables_to_1000):
        report_obj = rank3.verify_theorems(tables_to_1000)
        text = str(report_obj)
        assert report_obj.all_passed, "\n" + text
        names = {check.name for check in report_obj.checks}
        assert names == {
            "two_coatom_linear",
            "three_coatom_floor",
            "three_coatom_partition_identity",
            "four_coatom_quasipolynomial",
            "five_coatom_quasipolynomial",
            "five_coatom_small_a_exception",
            "five_coatom_small_a_true_counts",
        }
        # every check that scans a table must have covered it to a = 1000
        spans = {check.name: check.checked for check in report_obj.checks}
        assert spans["two_coatom_linear"] == 1000
        assert spans["three_coatom_floor"] == 1000
        assert spans["three_coatom_partition_identity"] == 1000
        assert spans["four_coatom_quasipolynomial"] == 1001  # includes a = 0
        assert spans["five_coatom_quasipolynomial"] == 998  # a = 3..1000
        report(5, "all closed-form checks hold to a = 1000")


class TestCriterion06FitsRediscoverTheorems:
    def test_coefficients_match(self, tables_to_1000):
        for c in range(2, 6):
            fit = rank3.fit_for_coatoms(tables_to_1000[c], c)
            ref = rank3.expand_period(rank3.reference_quasipolynomial(c), fit.period)
            assert fit.constituents == ref.constituents
        fit6 = rank3.fit_for_coatoms(tables_to_1000[6], 6)
        for coeffs in fit6.constituents:
            assert coeffs[:-4:-1] == rank3.LEADING_TERMS[6]
        report(6, "fits equal published coefficients for c = 2..5 "
                  "and leading terms for c = 6")

    def test_seven_coatom_fit(self, table_c7):
        period, degree, threshold = rank3.default_fit_parameters(7)
        needed = threshold + period * (degree + 1) - 1
        table = table_c7
        assert table.a_max == needed
        for a, want in R_TABLE[7].items():
            assert table.values[a] == want
        fit = rank3.fit_for_coatoms(table, 7)
        for coeffs in fit.constituents:
            assert coeffs[:-5:-1] == rank3.LEADING_TERMS[7]
        report(6, "7-coatom table to a = %d matches every published value; its fit "
                  "reproduces the four published leading terms" % needed)


class TestCriterion07OracleEquivalence:
    def test_all_pairs_to_total_12(self, tables_to_1000, table_c7, brute_force):
        t0 = time.time()
        tables = dict(tables_to_1000)
        tables[1] = rank3.count_lattices(1, 11)
        tables[7] = table_c7
        brute = {}
        for c in range(1, 12):
            for a in range(1, 12 - c + 1):
                brute[c, a] = brute_force(c, a)
                pipeline_value = (tables[c].values[a] if c <= 7
                                  else tables[a].values[c])
                assert brute[c, a] == pipeline_value, (c, a)
        for (c, a), value in brute.items():
            assert value == brute[a, c]
        elapsed = time.time() - t0
        assert elapsed < 600
        report(7, "%d pairs with c+a <= 12 agree with the oracle in %.0fs"
                  % (len(brute), elapsed))


class TestCriterion08PolyaKernel:
    def test_worked_example_sequence(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        z = rank3.cycle_index(rank3.automorphism_group_on_coatoms(g))
        assert rank3.group_balls(z, 4, 10) == PATH4_BALLS
        report(8, "worked-example distribution sequence reproduced")

    def test_trivial_group_stars_and_bars(self):
        for c in range(1, 6):
            z = rank3.cycle_index(rank3.PermGroup(c, [tuple(range(c))]))
            values = rank3.group_balls(z, c, 50)
            for n in range(51):
                assert values[n] == math.comb(n + c - 1, c - 1)
        report(8, "trivial groups give stars-and-bars binomials to n = 50")

    def test_symmetric_group_partitions(self):
        import itertools
        for c in range(1, 6):
            group = rank3.PermGroup(c, list(itertools.permutations(range(c))))
            values = rank3.group_balls(rank3.cycle_index(group), c, 50)
            for n in range(51):
                assert values[n] == bounded_partitions(n, c)
        report(8, "symmetric groups give bounded-part partition counts to n = 50")


class TestCriterion09EvaluationAtScale:
    def test_million_atom_value(self, tables_to_1000):
        fit = rank3.fit_for_coatoms(tables_to_1000[5], 5)
        t0 = time.time()
        value = rank3.eval_quasipolynomial(fit, 10 ** 6)
        elapsed = time.time() - t0
        assert value == R5_AT_MILLION
        assert elapsed < 1.0
        report(9, "R(5, 10^6) exact in %.4fs" % elapsed)


class TestCriterion10Determinism:
    def test_input_paths_give_same_bytes(self, tmp_path):
        generated = tmp_path / "generated.csv"
        from_census = tmp_path / "census.csv"
        graphs = str(tmp_path / "graphs")
        # an empty series cache, so the generated path generates and reduces its graphs
        rank3.pipeline._generated.clear()
        assert cli.main(["count", "--coatoms", "6", "--max-atoms", "300",
                         "--out", str(generated)]) == 0
        assert cli.main(["generate", "--coatoms", "6", "--out", graphs]) == 0
        assert cli.main(["count", "--coatoms", "6", "--max-atoms", "300",
                         "--graphs", graphs, "--out", str(from_census)]) == 0
        assert generated.read_bytes() == from_census.read_bytes()
        report(10, "count output byte-identical from generated graphs and from "
                   "a census written by generate")
