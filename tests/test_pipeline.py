"""Counting pipeline: cycle-type polynomials, isomorph checks, caching, interchange."""

import itertools
import math
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

    @pytest.mark.parametrize("c, position", [
        (5, 7),      # right after its original, graph 7
        (6, 592),    # after all 592 graphs of c = 6
    ], ids=["adjacent", "far-apart"])
    def test_isomorphic_copy_rejected(self, graphs_by_c, c, position):
        graphs = list(graphs_by_c[c])
        graphs.insert(position, _rotated(graphs[6]))
        number = position + 1
        with pytest.raises(rank3.GraphInputError, match="graph %d is isomorphic" % number):
            rank3.count_lattices(c, 10, graphs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rank3.count_lattices(0, 5)
        with pytest.raises(ValueError):
            rank3.count_lattices(3, -1)


class TestCycleTypes:
    def test_each_graph_adds_its_shifted_ball_series(self, graphs_by_c):
        # the table of one graph is its group_balls series moved up by r + s,
        # the per-graph reading of the cycle-type sum
        for c in range(1, 6):
            for graph in graphs_by_c[c]:
                shift = sum(rank3.count_r_s(graph))
                zindex = rank3.cycle_index(rank3.automorphism_group_on_coatoms(graph))
                assert rank3.count_lattices(c, 40, [graph]).values == \
                    [0] * shift + rank3.group_balls(zindex, c, 40 - shift)

    @pytest.mark.parametrize("c, labeled", zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]))
    def test_burnside_structure(self, c, labeled):
        # Q at type t_1^m_1 ... t_c^m_c is |C| times the labelled families
        # fixed by one permutation of that type, |C| its conjugacy class size;
        # the identity fixes every labelled family (counted in test_genconn)
        terms, _stats = rank3.pipeline._generated_profile(c)
        for expo, q in terms:
            centraliser = math.prod(i ** m * math.factorial(m) for i, m in enumerate(expo, 1))
            assert all(coeff % (math.factorial(c) // centraliser) == 0 for coeff in q)
        identity = dict(terms)[(c,) + (0,) * (c - 1)]
        assert sum(identity) == labeled


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
    @pytest.mark.parametrize("missing, match", [
        ("conn_c4.manifest", "no manifest"),
        ("conn_c4_r3.g6", "missing stratum conn_c4_r3.g6"),
    ], ids=["no-manifest", "missing-stratum"])
    def test_missing_files_rejected(self, tmp_path, missing, match):
        rank3.write_graph_files(tmp_path, 4)
        (tmp_path / missing).unlink()
        with pytest.raises(rank3.GraphInputError, match=match):
            list(rank3.iter_graph_dir(tmp_path, 4))

    def test_feeds_pipeline(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 5, graphs_by_c[5])
        table = rank3.count_lattices(5, 12, rank3.iter_graph_dir(tmp_path, 5))
        for a in range(1, 13):
            assert table.values[a] == R_TABLE[5][a]
