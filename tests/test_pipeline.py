"""Counting pipeline: aggregation over profiles, parallelism, interchange."""

import random

import pytest

import rank3

from reference_values import MEMO_STATS, R_TABLE


class TestCounting:
    def test_two_coatoms(self):
        table = rank3.count_lattices(2, 5)
        assert table.values == [0, 1, 2, 3, 4, 5]

    def test_zero_atoms_impossible(self, tables_to_1000):
        for table in tables_to_1000.values():
            assert table.values[0] == 0

    def test_against_published_table(self, tables_to_1000):
        for c in range(2, 7):
            for a, want in R_TABLE[c].items():
                assert tables_to_1000[c].values[a] == want

    def test_generates_graphs_when_omitted(self):
        assert rank3.count_lattices(3, 8).values == \
            [0, 1, 3, 8, 13, 20, 29, 39, 50]

    def test_memo_statistics(self, graphs_by_c):
        for c in range(2, 7):
            _, stats = rank3.count_lattices_stats(c, 10, graphs_by_c[c])
            assert (stats.graphs_processed, stats.distinct_cycle_indices,
                    stats.trivial_action_graphs) == MEMO_STATS[c]

    def test_graph_order_irrelevant(self, graphs_by_c):
        shuffled = list(graphs_by_c[5])
        random.Random(7).shuffle(shuffled)
        assert rank3.count_lattices(5, 40, shuffled).values == \
            rank3.count_lattices(5, 40, graphs_by_c[5]).values

    def test_coatom_atom_symmetry(self, tables_to_1000):
        for c in range(2, 7):
            for a in range(2, 7):
                assert tables_to_1000[c].values[a] == tables_to_1000[a].values[c]

    def test_wide_columns_via_symmetry(self, tables_to_1000):
        # published values for 8 and 9 coatoms, reached from the small-c
        # tables through R(c, a) = R(a, c)
        for c in (8, 9):
            for a in range(2, 7):
                assert tables_to_1000[a].values[c] == R_TABLE[c][a]

    def test_mixed_coatom_counts_rejected(self, graphs_by_c):
        graphs = graphs_by_c[3] + graphs_by_c[4]
        with pytest.raises(rank3.GraphInputError):
            rank3.count_lattices(3, 5, graphs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rank3.count_lattices(0, 5)
        with pytest.raises(ValueError):
            rank3.count_lattices(3, -1)
        with pytest.raises(ValueError):
            rank3.count_lattices(3, 5, jobs=0)


class TestParallel:
    def test_workers_match_sequential(self, graphs_by_c):
        seq, seq_stats = rank3.count_lattices_stats(6, 60, graphs_by_c[6], jobs=1)
        par, par_stats = rank3.count_lattices_stats(6, 60, graphs_by_c[6], jobs=3)
        assert par.values == seq.values
        assert par_stats == seq_stats

    def test_worker_errors_propagate(self, graphs_by_c):
        graphs = graphs_by_c[3] + graphs_by_c[4]
        with pytest.raises(rank3.GraphInputError):
            rank3.count_lattices(3, 5, graphs, jobs=2)


class TestCountTable:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            rank3.CountTable(3, 5, [0, 1, 2])

    def test_csv_roundtrip(self, tmp_path):
        table = rank3.count_lattices(4, 25)
        path = tmp_path / "c4.csv"
        rank3.write_csv(table, path)
        back = rank3.read_csv(path, 4)
        assert back.coatom_count == 4
        assert back.a_max == 25
        assert back.values == table.values

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n")
        with pytest.raises(ValueError):
            rank3.read_csv(path, 3)

    def test_csv_gap_checked(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,R\n0,0\n2,3\n")
        with pytest.raises(ValueError):
            rank3.read_csv(path, 3)


class TestGraphDir:
    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(rank3.GraphInputError):
            list(rank3.iter_graph_dir(tmp_path, 4))

    def test_feeds_pipeline(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 5, graphs_by_c[5])
        table = rank3.count_lattices(5, 12, rank3.iter_graph_dir(tmp_path, 5))
        for a in range(1, 13):
            assert table.values[a] == R_TABLE[5][a]
