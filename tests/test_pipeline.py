"""Counting pipeline: aggregation over profiles, parallelism, caching, interchange."""

import itertools
import random
from collections import Counter

import pytest

import rank3

from reference_values import MEMO_STATS, R_TABLE


def _rotated(graph):
    """The graph with every coatom label i replaced by i + 1 mod c."""
    c = graph.coatom_count
    copy = rank3.BicoloredGraph(c, [{(i + 1) % c for i in nb} for nb in graph.neighborhoods()])
    assert copy != graph
    return copy


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

    def test_trivial_action_graphs(self, graphs_by_c):
        for c in range(1, 7):
            _, stats = rank3.count_lattices_stats(c, 3, graphs_by_c[c])
            rigid = sum(rank3.automorphism_group_on_coatoms(g).order == 1
                        for g in graphs_by_c[c])
            assert stats.trivial_action_graphs == rigid

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

    def test_isomorphic_copy_rejected(self, graphs_by_c):
        graphs = list(graphs_by_c[5])
        graphs.insert(7, _rotated(graphs[6]))
        with pytest.raises(rank3.GraphInputError, match="graph 8 is isomorphic"):
            rank3.count_lattices(5, 10, graphs)

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

    def test_isomorphic_copy_in_another_chunk_rejected(self, graphs_by_c):
        # 592 graphs at c = 6: the copy at index 592 is in the second
        # chunk of 512, its original in the first
        graphs = graphs_by_c[6] + [_rotated(graphs_by_c[6][6])]
        with pytest.raises(rank3.GraphInputError, match="graph 593 is isomorphic"):
            rank3.count_lattices(6, 10, graphs, jobs=2)

    def test_worker_errors_propagate(self, graphs_by_c):
        graphs = graphs_by_c[3] + graphs_by_c[4]
        with pytest.raises(rank3.GraphInputError):
            rank3.count_lattices(3, 5, graphs, jobs=2)


@pytest.fixture
def generations(monkeypatch):
    """Empty the profile cache and count the generator's calls per coatom count."""
    rank3.pipeline._generated_profile.cache_clear()
    calls = Counter()
    generate = rank3.pipeline.generate_connection_graphs

    def counting(c):
        calls[c] += 1
        return generate(c)

    monkeypatch.setattr(rank3.pipeline, "generate_connection_graphs", counting)
    yield calls
    rank3.pipeline._generated_profile.cache_clear()


class TestProfileCache:
    def test_cached_equals_explicit_graphs(self, graphs_by_c, generations):
        for c in range(1, 7):
            explicit = rank3.count_lattices_stats(c, 1000, graphs_by_c[c])
            assert rank3.count_lattices_stats(c, 1000) == explicit    # miss
            assert rank3.count_lattices_stats(c, 1000) == explicit    # hit
        assert generations == {c: 1 for c in range(1, 7)}

    def test_one_generation_per_coatom_count(self, generations):
        for a in (300, 3, 0, 100, 300):
            values = rank3.count_lattices(5, a).values
            assert len(values) == a + 1
            assert all(values[n] == want for n, want in R_TABLE[5].items() if n <= a)
        assert generations == {5: 1}

    def test_mutating_a_table_changes_no_later_answer(self, generations):
        want = rank3.count_lattices(4, 30).values
        first = rank3.count_lattices(4, 30)
        first.values[7] += 1
        first.values.append(99)
        second = rank3.count_lattices(4, 30)
        assert second.values == want
        assert rank3.count_lattices(4, 31).values[:31] == want
        assert generations == {4: 1}

    def test_failed_generation_is_not_cached(self, monkeypatch, generations):
        generate = rank3.pipeline.generate_connection_graphs

        def fails_once(c):
            monkeypatch.setattr(rank3.pipeline, "generate_connection_graphs", generate)
            yield from itertools.islice(generate(c), 2)
            raise RuntimeError("generation interrupted")

        monkeypatch.setattr(rank3.pipeline, "generate_connection_graphs", fails_once)
        with pytest.raises(RuntimeError, match="interrupted"):
            rank3.count_lattices(3, 8)
        assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert generations == {3: 2}    # the failed run, then a full one


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

    def test_csv_write_is_atomic(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("unprintable value")

        path = tmp_path / "c4.csv"
        rank3.write_csv(rank3.count_lattices(4, 5), path)
        before = path.read_bytes()
        bad = rank3.CountTable(4, 5, [0, 1, 4, Unprintable(), 0, 0])
        with pytest.raises(RuntimeError):
            rank3.write_csv(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []


class TestGraphDir:
    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(rank3.GraphInputError):
            list(rank3.iter_graph_dir(tmp_path, 4))

    def test_feeds_pipeline(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 5, graphs_by_c[5])
        table = rank3.count_lattices(5, 12, rank3.iter_graph_dir(tmp_path, 5))
        for a in range(1, 13):
            assert table.values[a] == R_TABLE[5][a]
