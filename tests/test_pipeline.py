"""Counting pipeline: cycle-type polynomials, isomorph checks, caching, interchange."""

import itertools
import marshal
import math
import os
import random
import signal
import threading
import types
from collections import Counter

import pytest

import rank3
from rank3.genconn import labelled_family_counts

from forking import assert_reaped, usable_cpus
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

    @pytest.mark.parametrize("c, graphs, position, reason", [
        (2, lambda census: [rank3.BicoloredGraph(2), rank3.BicoloredGraph(2, [3]),
                            rank3.BicoloredGraph(2, [3, 3, 3, 3])],
         3, "4 connectors exceed the maximum 1 for 2 coatoms"),
        (3, lambda census: census[3] + [rank3.BicoloredGraph(3, [{0}])],
         6, "connector 0 covers fewer than two coatoms"),
        (4, lambda census: census[4] + [rank3.BicoloredGraph(4, [0b0111, 0b1011])],
         17, "connectors 0 and 1 share more than one coatom"),
    ], ids=["too-many-connectors", "one-coatom-connector", "two-shared-coatoms"])
    def test_invalid_graph_rejected(self, graphs_by_c, c, graphs, position, reason):
        # each list ends in its one invalid graph, which must be named, not
        # counted or left to fail on an index
        graphs = graphs(graphs_by_c)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.count_lattices(c, 6, graphs)
        assert str(info.value) == "graph %d %r: %s" % (position, graphs[-1], reason)

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


def plain_fold(c, graphs):
    """Oracle: {(cycle type, r + s): Q coefficient} and the MemoStats, from a
    group and a cycle index built for every graph on its own."""
    q, indices, trivial = Counter(), set(), 0
    for graph in graphs:
        zindex = rank3.cycle_index(rank3.automorphism_group_on_coatoms(graph))
        indices.add(zindex)
        trivial += zindex.order == 1
        for expo, count in zindex.counts:
            q[expo, sum(rank3.count_r_s(graph))] += math.factorial(c) * count // zindex.order
    return dict(q), rank3.MemoStats(len(graphs), len(indices), trivial)


class TestCycleTypes:
    def test_each_graph_adds_its_shifted_ball_series(self, graphs_by_c):
        # the table of one graph is its group_balls series moved up by r + s,
        # the per-graph reading of the cycle-type sum; one graph is no census,
        # so it is folded and substituted here, below the count's labelled gate
        for c in range(1, 6):
            for graph in graphs_by_c[c]:
                shift = sum(rank3.count_r_s(graph))
                zindex = rank3.cycle_index(rank3.automorphism_group_on_coatoms(graph))
                terms, _stats, _labelled = rank3.pipeline._fold_profile(c, [graph])
                assert rank3.polya.substitute_cycle_types(terms, math.factorial(c), 41) == \
                    [0] * shift + rank3.group_balls(zindex, c, 40 - shift)

    def test_fold_equals_per_graph_fold(self, graphs_by_c, graphs_c7):
        # the fold shares one cycle index among the graphs with the same
        # group; the oracle builds both afresh for every graph
        for c, graphs in {**graphs_by_c, 7: graphs_c7}.items():
            terms, stats, _labelled = rank3.pipeline._fold_profile(c, graphs)
            folded = {(expo, k): x for expo, row in terms for k, x in enumerate(row) if x}
            assert (folded, stats) == plain_fold(c, graphs)

    def test_generated_fold_equals_searched_fold(self, classes_by_c, classes_c7):
        # the generated path folds the groups the generator kept, S_c for the
        # r = 0 class; searching its graphs again gives the same terms,
        # MemoStats and labelled sums, and those sums are L_c in every cell
        for c, classes in {**classes_by_c, 7: classes_c7}.items():
            graphs = [rank3.BicoloredGraph(c, masks) for masks, _group in classes]
            folded = rank3.pipeline._fold_classes(c, classes)
            assert folded == rank3.pipeline._fold_profile(c, graphs)
            assert folded[2] == labelled_family_counts(c)
        assert folded[1].distinct_cycle_indices == 38

    @pytest.mark.parametrize("c, labeled", zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]))
    def test_burnside_structure(self, c, labeled):
        # Q at type t_1^m_1 ... t_c^m_c is |C| times the labelled families
        # fixed by one permutation of that type, |C| its conjugacy class size;
        # the identity fixes every labelled family (counted in test_genconn)
        rank3.count_lattices(c, 0)
        terms, _stats, _series = rank3.pipeline._generated[c]
        for expo, q in terms:
            centraliser = math.prod(i ** m * math.factorial(m) for i, m in enumerate(expo, 1))
            assert all(coeff % (math.factorial(c) // centraliser) == 0 for coeff in q)
        identity = dict(terms)[(c,) + (0,) * (c - 1)]
        assert sum(identity) == labeled


@pytest.fixture
def generations(monkeypatch):
    """Empty the series cache and count the generator's calls per coatom count."""
    rank3.pipeline._generated.clear()
    calls = Counter()
    generate = rank3.pipeline._classes

    def counting(c):
        calls[c] += 1
        return generate(c)

    monkeypatch.setattr(rank3.pipeline, "_classes", counting)
    yield calls
    rank3.pipeline._generated.clear()


@pytest.fixture
def substitutions(monkeypatch, generations):
    """The lengths of the substitutions the count makes, in order, from an empty cache."""
    lengths = []
    substitute = rank3.pipeline.substitute_cycle_types

    def counting(terms, divisor, length):
        lengths.append(length)
        return substitute(terms, divisor, length)

    monkeypatch.setattr(rank3.pipeline, "substitute_cycle_types", counting)
    return lengths


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
        want = list(rank3.count_lattices(4, 30).values)
        first = rank3.count_lattices(4, 30)
        first.values[7] += 1
        first.values.append(99)
        second = rank3.count_lattices(4, 30)
        assert second.values == want
        assert rank3.count_lattices(4, 31).values[:31] == want
        assert generations == {4: 1}

    def test_failed_generation_is_not_cached(self, monkeypatch, generations):
        generate = rank3.pipeline._classes

        def fails_once(c):
            monkeypatch.setattr(rank3.pipeline, "_classes", generate)
            yield from itertools.islice(generate(c), 2)
            raise RuntimeError("generation interrupted")

        monkeypatch.setattr(rank3.pipeline, "_classes", fails_once)
        with pytest.raises(RuntimeError, match="interrupted"):
            rank3.count_lattices(3, 8)
        assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert generations == {3: 2}    # the failed run, then a full one

    def test_series_grows_geometrically(self, substitutions):
        graphs = rank3.generate_connection_graphs(5)
        terms, _stats, _labelled = rank3.pipeline._fold_profile(5, graphs)
        for a in (100, 50, 100, 150, 300, 301, 20):
            values = rank3.count_lattices(5, a).values
            assert values == rank3.polya.substitute_cycle_types(terms, 120, a + 1)
            assert all(values[n] == want for n, want in R_TABLE[5].items() if n <= a)
        # 150 misses the first 101 terms and doubles them; 300 doubles again
        assert substitutions == [101, 202, 404]

    def test_one_shot_count_substitutes_once(self, substitutions):
        values = rank3.count_lattices(6, 1000).values
        assert all(values[n] == want for n, want in R_TABLE[6].items())
        assert substitutions == [1001]

    def test_failed_substitution_leaves_no_entry(self, monkeypatch, substitutions):
        counting = rank3.pipeline.substitute_cycle_types

        def fails_once(terms, divisor, length):
            monkeypatch.setattr(rank3.pipeline, "substitute_cycle_types", counting)
            raise ArithmeticError("substitution interrupted")

        monkeypatch.setattr(rank3.pipeline, "substitute_cycle_types", fails_once)
        with pytest.raises(ArithmeticError, match="interrupted"):
            rank3.count_lattices(3, 8)
        assert 3 not in rank3.pipeline._generated
        assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert substitutions == [9]

    def test_failed_extension_keeps_the_entry(self, monkeypatch, substitutions):
        want = rank3.count_lattices(4, 30).values
        entry = rank3.pipeline._generated[4]

        def fails(terms, divisor, length):
            raise ArithmeticError("substitution interrupted")

        monkeypatch.setattr(rank3.pipeline, "substitute_cycle_types", fails)
        with pytest.raises(ArithmeticError, match="interrupted"):
            rank3.count_lattices(4, 31)
        assert rank3.pipeline._generated[4] is entry
        assert rank3.count_lattices(4, 30).values == want

    def test_explicit_graphs_bypass_the_entry(self, graphs_by_c, substitutions):
        want = rank3.count_lattices(5, 40).values
        entry = rank3.pipeline._generated[5]
        rank3.count_lattices(5, 100, graphs_by_c[5])
        assert rank3.pipeline._generated == {5: entry}
        assert rank3.count_lattices(5, 40).values == want
        assert substitutions == [41, 101]


def _gate_message(c, graph, got_offset=0):
    """The count's error for a census missing ``graph`` (got_offset added to its cell)."""
    r, s = rank3.count_r_s(graph)
    exist = labelled_family_counts(c)[r, s]
    got = exist - math.factorial(c) // rank3.automorphism_group_on_coatoms(graph).order
    return ("the graphs stand for %d labelled families with %d connectors and %d uncovered "
            "coatoms, but there are %d" % (got + got_offset, r, s, exist))


class TestLabelledGate:
    @pytest.mark.parametrize("c, position", [(4, 0), (5, 40), (6, 591)],
                             ids=["empty-graph", "interior", "complete-graph"])
    def test_missing_graph_rejected(self, graphs_by_c, c, position):
        # every graph is valid and no two are isomorphic, so only the
        # labelled sum of the dropped graph's cell can tell
        graphs = list(graphs_by_c[c])
        dropped = graphs.pop(position)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.count_lattices(c, 10, graphs)
        assert str(info.value) == _gate_message(c, dropped)

    def test_lost_class_rejected_on_generated_path(self, monkeypatch, graphs_by_c, generations):
        generate = rank3.pipeline._classes
        lost = 30

        def loses_one(c):
            for k, item in enumerate(generate(c)):
                if k != lost:
                    yield item

        monkeypatch.setattr(rank3.pipeline, "_classes", loses_one)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.count_lattices(5, 10)
        assert str(info.value) == _gate_message(5, graphs_by_c[5][lost])
        assert 5 not in rank3.pipeline._generated

    def test_wrong_group_rejected_on_generated_path(self, monkeypatch, graphs_by_c, generations):
        # the complete graph on 4 coatoms keeps all of S_4; kept as trivial
        # it would stand for 4! labelled families instead of one
        generate = rank3.pipeline._classes

        def forgets_group(c):
            *classes, (masks, _group) = generate(c)
            yield from classes
            yield masks, ()

        monkeypatch.setattr(rank3.pipeline, "_classes", forgets_group)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.count_lattices(4, 10)
        assert str(info.value) == _gate_message(4, graphs_by_c[4][-1], got_offset=24)


def _error(c, graphs):
    """The message of the count's GraphInputError on graphs."""
    with pytest.raises(rank3.GraphInputError) as info:
        rank3.count_lattices_stats(c, 10, graphs)
    assert_reaped()
    return str(info.value)


class TestForkedSearch:
    """A chunk of graphs is dealt round-robin, graph k (0-based) to share
    k mod n; share 0 is searched in this process, every other share in a
    forked child.  At c = 6 with two CPUs the 592 graphs make one chunk and
    two shares: even positions here, odd ones in the child."""

    @pytest.mark.parametrize("c, cpus, shuffled, children", [
        (6, 2, False, 1), (7, 2, False, 3), (7, 3, False, 6), (7, 2, True, 3),
    ], ids=["c6", "c7", "c7-three-cpus", "c7-shuffled"])
    def test_forked_fold_equals_in_process(self, monkeypatch, forks, graphs_by_c, graphs_c7,
                                           c, cpus, shuffled, children):
        graphs = list(graphs_c7 if c == 7 else graphs_by_c[c])
        if shuffled:
            random.Random(11).shuffle(graphs)
        usable_cpus(monkeypatch, cpus)
        forked = rank3.pipeline._fold_profile(c, graphs)
        assert_reaped()
        assert len(forks) == children    # one child per extra CPU and chunk of 4096
        usable_cpus(monkeypatch, 1)
        assert rank3.pipeline._fold_profile(c, graphs) == forked
        assert len(forks) == children

    @pytest.mark.parametrize("index", [100, 101], ids=["parent-share", "child-share"])
    @pytest.mark.parametrize("bad, reason", [
        (rank3.BicoloredGraph(6, [0b000111, 0b001011]),
         "connectors 0 and 1 share more than one coatom"),
        (rank3.BicoloredGraph(5, [0b00011]), "5 coatoms, expected 6"),
    ], ids=["invalid", "coatom-count"])
    def test_bad_graph_named_as_in_process(self, monkeypatch, forks, graphs_by_c,
                                           index, bad, reason):
        graphs = list(graphs_by_c[6])
        graphs[index] = bad
        forked = _error(6, graphs)
        assert forks
        assert forked == "graph %d %r: %s" % (index + 1, bad, reason)
        usable_cpus(monkeypatch, 1)
        assert _error(6, graphs) == forked

    @pytest.mark.parametrize("original, index", [(6, 101), (7, 100)],
                             ids=["copy-in-child-share", "copy-in-parent-share"])
    def test_isomorphic_copy_across_shares(self, monkeypatch, forks, graphs_by_c,
                                           original, index):
        graphs = list(graphs_by_c[6])
        graphs.insert(index, _rotated(graphs[original]))
        forked = _error(6, graphs)
        assert forks
        assert forked == "graph %d is isomorphic to an earlier graph" % (index + 1)
        usable_cpus(monkeypatch, 1)
        assert _error(6, graphs) == forked

    @staticmethod
    def _failing_children(monkeypatch, fail):
        """Make every child call fail() before it searches."""
        parent, share = os.getpid(), rank3.pipeline._share

        def failing(c, graphs):
            if os.getpid() != parent:
                fail()
            return share(c, graphs)

        monkeypatch.setattr(rank3.pipeline, "_share", failing)

    @pytest.mark.parametrize("failure", [None, "sigkill", "exit-1", "truncated",
                                         "exit-1-after-sending"])
    def test_failed_child_gives_the_same_table(self, monkeypatch, forks, graphs_by_c, failure):
        # a child's whole share is searched again here unless it exits 0
        # with all of its results sent
        want = rank3.count_lattices_stats(6, 200, graphs_by_c[6])
        assert_reaped()
        if failure == "sigkill":
            self._failing_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        elif failure == "exit-1":
            self._failing_children(monkeypatch, lambda: os._exit(1))
        elif failure == "truncated":
            def truncated(obj):
                data = marshal.dumps(obj)
                return data[:len(data) // 2]

            monkeypatch.setattr(rank3.genconn, "marshal",
                                types.SimpleNamespace(dumps=truncated, loads=marshal.loads))
        elif failure == "exit-1-after-sending":
            exit_ = os._exit
            monkeypatch.setattr(os, "_exit", lambda status: exit_(1))
        parent, search, searched = os.getpid(), rank3.pipeline._search, []

        def counting(c, graph):
            if os.getpid() == parent:
                searched.append(graph)
            return search(c, graph)

        monkeypatch.setattr(rank3.pipeline, "_search", counting)
        assert rank3.count_lattices_stats(6, 200, graphs_by_c[6]) == want
        assert_reaped()
        assert len(forks) == 2
        assert len(searched) == (296 if failure is None else 592)

    def test_children_reaped_after_interrupt(self, monkeypatch, forks, graphs_by_c):
        # the parent is interrupted in its own share while the child searches
        parent, search = os.getpid(), rank3.pipeline._search

        def interrupted(c, graph):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return search(c, graph)

        monkeypatch.setattr(rank3.pipeline, "_search", interrupted)
        with pytest.raises(KeyboardInterrupt):
            rank3.count_lattices(6, 10, graphs_by_c[6])
        assert_reaped()
        assert len(forks) == 1

    def test_stays_in_process(self, monkeypatch, graphs_by_c):
        calls = []
        monkeypatch.setattr(os, "fork", lambda: calls.append(1))
        usable_cpus(monkeypatch, 2)
        want = rank3.count_lattices_stats(5, 100)
        # 72 graphs are below two shares of 256
        assert rank3.count_lattices_stats(5, 100, graphs_by_c[5]) == want
        # one usable CPU
        usable_cpus(monkeypatch, 1)
        rank3.count_lattices_stats(6, 10, graphs_by_c[6])
        # another thread alive
        usable_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            rank3.count_lattices_stats(6, 10, graphs_by_c[6])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert calls == []
        # no os.fork at all
        monkeypatch.delattr(os, "fork")
        rank3.count_lattices_stats(6, 10, graphs_by_c[6])
        assert_reaped()


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

    @pytest.mark.parametrize("emptied, named", [
        (range(4), "conn_c3_r0.g6"),
        ([0], "conn_c3_r0.g6"),
        ([1], "conn_c3_r1.g6"),
        ([3], "conn_c3_r3.g6"),
    ], ids=["every-stratum", "r0", "r1", "last"])
    def test_emptied_end_stratum_rejected(self, tmp_path, emptied, named):
        # each emptied stratum agrees with its manifest line, and the total
        # with the strata; before the end strata were checked, r0 alone gave
        # R(3, 3..6) = 7, 12, 18, 26 and every stratum a table of zeros
        counts = rank3.write_graph_files(tmp_path, 3)
        for r in emptied:
            (tmp_path / rank3.graph_file_name(3, r)).write_bytes(b"")
            counts[r] = 0
        (tmp_path / "conn_c3.manifest").write_text("".join(
            "%s %d\n" % (rank3.graph_file_name(3, r), n) for r, n in enumerate(counts))
            + "total %d\n" % sum(counts))
        with pytest.raises(rank3.GraphInputError, match="0 graphs in %s" % named):
            next(rank3.iter_graph_dir(tmp_path, 3))

    @pytest.mark.parametrize("min_share, children", [(256, 0), (64, 1)],
                             ids=["in-process", "forked"])
    def test_graphs_before_a_read_error_are_checked_first(self, monkeypatch, forks, tmp_path,
                                                          min_share, children):
        # graph 8 (line 2 of r2) copies graph 7 relabelled; the reader fails
        # on line 1 of r9, graph 469, while the count still fills its first
        # chunk: the 468 graphs taken are checked, in two shares of 234 when
        # a share may be that small, before the reader's error is raised
        monkeypatch.setattr(rank3.genconn, "_MIN_SHARE", min_share)
        rank3.write_graph_files(tmp_path, 6)
        r2, r9 = tmp_path / "conn_c6_r2.g6", tmp_path / "conn_c6_r9.g6"
        lines = r9.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:1] + b"!" + lines[0][2:]
        r9.write_bytes(b"".join(lines))
        with pytest.raises(rank3.GraphInputError, match="conn_c6_r9.g6 line 1: byte b'!' "):
            rank3.count_lattices(6, 10, rank3.iter_graph_dir(tmp_path, 6))
        lines = r2.read_bytes().splitlines(keepends=True)
        lines[1] = rank3.graph6_encode(_rotated(rank3.graph6_decode(lines[0], 6, 2)))
        r2.write_bytes(b"".join(lines))
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.count_lattices(6, 10, rank3.iter_graph_dir(tmp_path, 6))
        assert str(info.value) == "graph 8 is isomorphic to an earlier graph"
        assert_reaped()
        assert len(forks) == 2 * children

    def test_feeds_pipeline(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 5, graphs_by_c[5])
        table = rank3.count_lattices(5, 12, rank3.iter_graph_dir(tmp_path, 5))
        for a in range(1, 13):
            assert table.values[a] == R_TABLE[5][a]
