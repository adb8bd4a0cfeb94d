"""Counting pipeline: cycle-type polynomials, isomorph checks, caching, interchange."""

import marshal
import math
import os
import random
import signal
import threading
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3

from forking import assert_reaped, usable_cpus
from reference_values import MEMO_STATS, R_TABLE


def _rotated(graph):
    """The graph with every coatom label i replaced by i + 1 mod c."""
    c = graph.coatom_count
    copy = rank3.BicoloredGraph(c, [{(i + 1) % c for i in nb} for nb in graph.neighborhoods()])
    assert copy != graph
    return copy


def _symmetric(graph):
    """Whether S_c maps graph onto itself: the bare coatoms, the one connector
    on all c coatoms or all c(c-1)/2 coatom pairs."""
    c, masks = graph.coatom_count, graph.connector_masks
    return sorted(masks) in ([], [(1 << c) - 1],
                             sorted((1 << i) | (1 << k) for i in range(c) for k in range(i)))


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

    def test_stats_take_no_table_from_count_lattices(self, monkeypatch, graphs_by_c):
        # count_lattices_stats slices the entry it holds, so it answers with
        # count_lattices broken: an entry made, read and grown, with and
        # without graphs
        want = {c: rank3.count_lattices(c, 60).values for c in (4, 5)}

        def broken(*args, **kwargs):
            raise AssertionError("count_lattices called")

        monkeypatch.setattr(rank3.pipeline, "count_lattices", broken)
        for c in 4, 5:
            for graphs, memo in (None, (len(graphs_by_c[c]), None, None)), \
                                (graphs_by_c[c], MEMO_STATS[c]):
                rank3.pipeline._generated.pop(c, None)
                for a in 30, 20, 60:
                    table, stats = rank3.count_lattices_stats(c, a, graphs)
                    assert table == rank3.CountTable(c, a, want[c][:a + 1])
                    assert tuple(stats) == memo

    def test_trivial_action_graphs(self, graphs_by_c):
        for c in range(1, 7):
            _, stats = rank3.count_lattices_stats(c, 3, graphs_by_c[c])
            rigid = sum(rank3.automorphism_group_on_coatoms(g).order == 1
                        for g in graphs_by_c[c])
            assert stats.trivial_action_graphs == rigid

    def test_graph_order_irrelevant(self, graphs_by_c):
        shuffled = list(graphs_by_c[5])
        random.Random(7).shuffle(shuffled)
        assert rank3.count_lattices_stats(5, 40, shuffled)[0].values == \
            rank3.count_lattices_stats(5, 40, graphs_by_c[5])[0].values

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
            rank3.genconn.check_graphs(3, graphs)

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
            rank3.genconn.check_graphs(c, graphs)
        assert str(info.value) == "graph %d %r: %s" % (position, graphs[-1], reason)

    @pytest.mark.parametrize("c, position, copy", [
        # right after its original, graph 7
        (5, 7, lambda graphs: _rotated(graphs[6])),
        # after all 592 graphs of c = 6
        (6, 592, lambda graphs: _rotated(graphs[6])),
        # the S_c-invariant graphs, which genconn._search gives no search: the one
        # connector on all c coatoms twice, and all pairs in another order
        (5, 72, lambda graphs: rank3.BicoloredGraph(5, [0b11111])),
        (6, 592, lambda graphs: rank3.BicoloredGraph(6, graphs[-1].connector_masks[::-1])),
    ], ids=["adjacent", "far-apart", "c-coatom-connector-twice", "complete-pairs-reordered"])
    def test_isomorphic_copy_rejected(self, graphs_by_c, c, position, copy):
        graphs = list(graphs_by_c[c])
        graphs.insert(position, copy(graphs))
        number = position + 1
        with pytest.raises(rank3.GraphInputError, match="graph %d is isomorphic" % number):
            rank3.genconn.check_graphs(c, graphs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rank3.count_lattices(0, 5)
        with pytest.raises(ValueError):
            rank3.count_lattices(3, -1)
        # with the series made, a bad count still misses it and is refused
        rank3.count_lattices(3, 10)
        for a in -1, -5, float("nan"):
            with pytest.raises(ValueError, match="^maximum atom count must be nonnegative$"):
                rank3.count_lattices(3, a)

    @pytest.mark.parametrize("a, error", [(-0.5, ValueError), (2.0, TypeError)])
    def test_bad_atom_count_raises_alike_fresh_and_cached(self, a, error):
        # the fast path of a count its entry covers raises what a fresh count
        # raises: ValueError for -0.5, not a TypeError from the slice
        rank3.pipeline._generated.pop(3, None)
        for state in "fresh", "cached":
            with pytest.raises(Exception) as info:
                rank3.count_lattices(3, a)
            assert type(info.value) is error, state
            rank3.count_lattices(3, 10)

    def test_non_integer_coatom_count_refused(self, generations):
        # alike before the entry of 3 is made and after, inside its series
        # and past it
        for _ in "no entry", "entry":
            for count in rank3.count_lattices, rank3.count_lattices_stats:
                for a in 2, 20:
                    with pytest.raises(TypeError, match="^'float' object cannot be "
                                                        "interpreted as an integer$"):
                        count(3.0, a)
            assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert generations == {3: 1}

    def test_takes_no_graphs(self, graphs_by_c):
        # genconn.check_graphs checks a list of graphs; a count takes none
        with pytest.raises(TypeError):
            rank3.count_lattices(5, 10, graphs_by_c[5])


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
        # so it is folded and substituted here, below the count's cell gate
        for c in range(1, 6):
            for graph in graphs_by_c[c]:
                shift = sum(rank3.count_r_s(graph))
                zindex = rank3.cycle_index(rank3.automorphism_group_on_coatoms(graph))
                cells, _stats = rank3.genconn.fold_graphs(c, [graph])
                series = rank3.polya.expand_rational(*rank3.polya.one_denominator(cells),
                                                     math.factorial(c), 41)
                assert series == [0] * shift + rank3.group_balls(zindex, c, 40 - shift)

    def test_fold_equals_per_graph_fold(self, graphs_by_c, graphs_c7):
        # the fold shares one cycle index among the graphs with the same
        # group; the oracle builds both afresh for every graph
        for c, graphs in {**graphs_by_c, 7: graphs_c7}.items():
            cells, stats = rank3.genconn.fold_graphs(c, graphs)
            folded = Counter()
            for expo, by_cell in cells.items():
                for (r, s), n in by_cell.items():
                    folded[expo, r + s] += n
            assert (dict(folded), stats) == plain_fold(c, graphs)

    def test_generated_fold_equals_searched_fold(self, graphs_by_c, graphs_c7):
        # the generated path counts each (cycle type, r, s) cell by
        # Burnside, with no census; searching the census gives the same
        # cells, and the generated count as many classes
        for c, graphs in {**graphs_by_c, 7: graphs_c7}.items():
            cells, _stats = rank3.genconn.fold_graphs(c, graphs)
            assert cells == rank3.polya.fixed_family_counts(c)
            _table, stats = rank3.count_lattices_stats(c, 0)
            assert stats == rank3.MemoStats(len(graphs), None, None)
        assert len(cells) == 15

    @pytest.mark.parametrize("c", range(1, 9))
    def test_symmetric_graphs_skip_the_search(self, monkeypatch, c):
        # the S_c-invariant graphs, as given and with their connectors
        # reversed, get the search's canonical masks and S_c's slot unsearched
        pairs = tuple((1 << i) | (1 << k) for i in range(c) for k in range(i))
        families = {(), pairs} | ({((1 << c) - 1,)} if c >= 2 else set())
        graphs = sorted({rank3.BicoloredGraph(c, masks) for fam in families
                         for masks in (fam, fam[::-1])}, key=lambda g: g.connector_masks)
        assert len(graphs) == {1: 1, 2: 2}.get(c, 4) and all(map(_symmetric, graphs))
        want = {g: rank3.bigraph._coatom_search(c, g.connector_masks)[0] for g in graphs}
        searched = []
        monkeypatch.setattr(rank3.bigraph, "_coatom_search",
                            lambda c, masks: searched.append(masks))
        for g in graphs:
            canon, group, r, s = rank3.genconn._search(c, {}, g)
            assert (g.connector_masks if canon is None else canon) == want[g]
            assert group is None
            assert (r, s) == rank3.count_r_s(g)
        cells, stats = rank3.genconn.fold_graphs(
            c, [rank3.BicoloredGraph(c, fam) for fam in families])
        assert searched == []
        cell_of = [rank3.count_r_s(rank3.BicoloredGraph(c, fam)) for fam in families]
        assert cells == {expo: dict.fromkeys(cell_of, count)
                         for expo, count in rank3.polya.symmetric_cycle_index(c).counts}
        assert stats == rank3.MemoStats(len(families), 1, len(families) if c == 1 else 0)

    def test_bare_class_at_nine_coatoms_unsearched(self, monkeypatch):
        # a search would list all 9! = 362,880 winners
        monkeypatch.setattr(rank3.bigraph, "_coatom_search",
                            lambda c, masks: pytest.fail("searched %r" % (masks,)))
        cells, stats = rank3.genconn.fold_graphs(9, [rank3.BicoloredGraph(9)])
        assert cells == {expo: {(0, 9): count}
                         for expo, count in rank3.polya.symmetric_cycle_index(9).counts}
        assert stats == rank3.MemoStats(1, 1, 0)
        # its cells are the r = 0 cells of the count without graphs
        want = rank3.polya.fixed_family_counts(9)
        assert cells == {expo: {(0, 9): by_cell[0, 9]} for expo, by_cell in want.items()
                         if (0, 9) in by_cell}

    @pytest.mark.parametrize("c, labeled", zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]))
    def test_burnside_structure(self, c, labeled):
        # Q at type t_1^m_1 ... t_c^m_c is |C| times the labelled families
        # fixed by one permutation of that type, |C| its conjugacy class size;
        # the identity fixes every labelled family (counted in test_genconn)
        cells = rank3.polya.fixed_family_counts(c)
        for expo, by_cell in cells.items():
            centraliser = math.prod(i ** m * math.factorial(m) for i, m in enumerate(expo, 1))
            assert all(n % (math.factorial(c) // centraliser) == 0 for n in by_cell.values())
        identity = cells[(c,) + (0,) * (c - 1)]
        assert sum(identity.values()) == labeled


@pytest.fixture
def generations(monkeypatch):
    """Empty the per-c entries and count pipeline's calls of
    fixed_family_counts per coatom count: one per entry made, with graphs
    or without."""
    rank3.pipeline._generated.clear()
    calls = Counter()
    count = rank3.pipeline.fixed_family_counts

    def counting(c):
        calls[c] += 1
        return count(c)

    monkeypatch.setattr(rank3.pipeline, "fixed_family_counts", counting)
    yield calls
    rank3.pipeline._generated.clear()


def _spy_on_growth(monkeypatch, record):
    """Patch the count's series growth to pass record each range of terms it computes."""
    extend = rank3.pipeline.extend_rational

    def counting(numerator, carries, divisor, terms):
        record(terms)
        return extend(numerator, carries, divisor, terms)

    monkeypatch.setattr(rank3.pipeline, "extend_rational", counting)


@pytest.fixture
def substitutions(monkeypatch, generations):
    """The lengths of the series the count's growths leave, in order, from an empty cache."""
    lengths = []
    _spy_on_growth(monkeypatch, lambda terms: lengths.append(terms.stop))
    return lengths


@pytest.fixture
def growths(monkeypatch, generations):
    """The range of terms each growth of the count's series computes, in order,
    from an empty cache."""
    ranges = []
    _spy_on_growth(monkeypatch, ranges.append)
    return ranges


class TestProfileCache:
    def test_cached_equals_explicit_graphs(self, graphs_by_c, generations):
        # a generated count lists no graph, so of its MemoStats only the
        # class count is there to compare
        for c in range(1, 7):
            table, stats = rank3.count_lattices_stats(c, 1000, graphs_by_c[c])
            want = table, stats.graphs_processed
            for _ in "miss", "hit":
                table, stats = rank3.count_lattices_stats(c, 1000)
                assert (table, stats.graphs_processed) == want
                assert stats.distinct_cycle_indices is stats.trivial_action_graphs is None
        # the count with graphs makes the entry, and its gate and every
        # generated count share it
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
        count = rank3.pipeline.fixed_family_counts

        def fails_once(c):
            monkeypatch.setattr(rank3.pipeline, "fixed_family_counts", count)
            count(c)
            raise RuntimeError("generation interrupted")

        monkeypatch.setattr(rank3.pipeline, "fixed_family_counts", fails_once)
        with pytest.raises(RuntimeError, match="interrupted"):
            rank3.count_lattices(3, 8)
        assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert generations == {3: 2}    # the failed run, then a full one

    def test_series_grows_geometrically(self, growths):
        graphs = rank3.generate_connection_graphs(5)
        cells = rank3.genconn.fold_graphs(5, graphs)[0]
        for a in (100, 50, 100, 150, 300, 301, 20):
            values = rank3.count_lattices(5, a).values
            assert values == rank3.polya.expand_rational(*rank3.polya.one_denominator(cells),
                                                         120, a + 1)
            assert all(values[n] == want for n, want in R_TABLE[5].items() if n <= a)
        # 150 misses the first 101 terms and doubles them, computing only
        # the new ones from the carries; 300 doubles again
        assert growths == [range(0, 101), range(101, 202), range(202, 404)]

    def test_one_shot_count_substitutes_once(self, growths):
        values = rank3.count_lattices(6, 1000).values
        assert all(values[n] == want for n, want in R_TABLE[6].items())
        assert growths == [range(0, 1001)]

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 7), sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=7))
    def test_continued_series_equals_a_fresh_one(self, c, sizes):
        # each growth computes only its new terms, from the carries the last
        # one kept; the series it leaves is the one expanded from term 0
        rank3.pipeline._generated.pop(c, None)
        for a in sizes:
            values = rank3.count_lattices(c, a).values
            numerator, _stats, _carries, series = rank3.pipeline._generated[c]
            exponents = rank3.polya.one_denominator(rank3.polya.fixed_family_counts(c))[1]
            for got in series, values:
                assert got == rank3.polya.expand_rational(numerator, exponents,
                                                          math.factorial(c), len(got))
            assert all(values[n] == want for n, want in R_TABLE[c].items() if n <= a)

    def test_failed_substitution_leaves_no_entry(self, monkeypatch, substitutions):
        counting = rank3.pipeline.extend_rational

        def fails_once(numerator, exponents, divisor, length):
            monkeypatch.setattr(rank3.pipeline, "extend_rational", counting)
            raise ArithmeticError("substitution interrupted")

        monkeypatch.setattr(rank3.pipeline, "extend_rational", fails_once)
        with pytest.raises(ArithmeticError, match="interrupted"):
            rank3.count_lattices(3, 8)
        assert 3 not in rank3.pipeline._generated
        assert rank3.count_lattices(3, 8).values == [0, 1, 3, 8, 13, 20, 29, 39, 50]
        assert substitutions == [9]

    def test_failed_extension_keeps_the_entry(self, monkeypatch, substitutions):
        want = rank3.count_lattices(4, 30).values
        entry = rank3.pipeline._generated[4]

        def fails(numerator, exponents, divisor, length):
            raise ArithmeticError("substitution interrupted")

        monkeypatch.setattr(rank3.pipeline, "extend_rational", fails)
        with pytest.raises(ArithmeticError, match="interrupted"):
            rank3.count_lattices(4, 31)
        assert rank3.pipeline._generated[4] is entry
        assert rank3.count_lattices(4, 30).values == want

    def test_explicit_graphs_share_the_entry(self, graphs_by_c, generations, substitutions):
        # a count given graphs slices the entry's series, extending it like
        # any longer request, then gates their fold (check_graphs); in
        # either order the two counts make one entry and one substitution
        # per length
        counts = [(40, None), (100, graphs_by_c[5])]
        for order, lengths in (counts, [41, 101]), (counts[::-1], [101]):
            rank3.pipeline._generated.clear()
            generations.clear()
            substitutions.clear()
            for a, graphs in order:
                values = rank3.count_lattices_stats(5, a, graphs)[0].values
                assert all(values[n] == want for n, want in R_TABLE[5].items() if n <= a)
            assert substitutions == lengths
            assert generations == {5: 1}
            assert len(rank3.pipeline._generated[5][-1]) == 101


def _gate_message(c, graph, got_offset=0):
    """The count's error for a census missing ``graph`` (got_offset added to its cell)."""
    r, s = rank3.count_r_s(graph)
    exist = rank3.polya.fixed_family_counts(c)[(c,) + (0,) * (c - 1)][r, s]
    got = exist - math.factorial(c) // rank3.automorphism_group_on_coatoms(graph).order
    return ("the graphs stand for %d labelled families with %d connectors and %d uncovered "
            "coatoms, but there are %d" % (got + got_offset, r, s, exist))


def _counts_after_failed_cell_gate(c, graphs):
    """In the process where the gate raised, from an entry the failing count
    made before its gate: a count without graphs is the published one, and
    a count of the intact census gives the same table."""
    assert c in rank3.pipeline._generated
    table = rank3.count_lattices(c, 10)
    assert table.values[1:] == [R_TABLE[c][a] for a in range(1, 11)]
    assert rank3.count_lattices_stats(c, 10, graphs)[0] == table


class TestCellGate:
    """A list of graphs must fold to the cells of fixed_family_counts, the
    identity's first (genconn.check_graphs)."""

    @pytest.mark.parametrize("c, position", [(4, 0), (5, 40), (6, 591)],
                             ids=["empty-graph", "interior", "complete-graph"])
    def test_missing_graph_rejected(self, graphs_by_c, c, position):
        # every graph is valid and no two are isomorphic, so only the
        # labelled sum of the dropped graph's cell can tell
        graphs = list(graphs_by_c[c])
        dropped = graphs.pop(position)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.genconn.check_graphs(c, graphs)
        assert str(info.value) == _gate_message(c, dropped)
        # a count of them makes its entry, then meets the same gate
        rank3.pipeline._generated.pop(c, None)
        with pytest.raises(rank3.GraphInputError) as counted:
            rank3.count_lattices_stats(c, 10, graphs)
        assert str(counted.value) == str(info.value)
        _counts_after_failed_cell_gate(c, graphs_by_c[c])

    def test_same_order_group_rejected(self, monkeypatch, graphs_by_c):
        # the first group {id, (a b)} is given as {id, (a b)(x y)}: its order,
        # and so every labelled cell, is right, and its cycle types are not
        canonical = rank3.bigraph._canonical
        swapped = []

        def same_order(c, masks):
            # the group as the fold takes it: its elements but the identity
            form, p0, group = canonical(c, masks)
            moved = [i for i, p in enumerate(group[-1]) if p != i] if group else []
            if swapped or len(moved) != 2 or len(group) != 1:
                return form, p0, group
            x, y = [i for i in range(c) if i not in moved][:2]
            perm = list(group[-1])
            perm[x], perm[y] = y, x
            swapped.append(perm)
            return form, p0, (tuple(perm),)

        monkeypatch.setattr(rank3.bigraph, "_canonical", same_order)
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.genconn.check_graphs(5, graphs_by_c[5])
        assert swapped == [[1, 0, 2, 4, 3]]    # (3 4) given as (0 1)(3 4)
        assert str(info.value) == (
            "the graphs stand for 30 families fixed by the permutations of cycle type "
            "(3, 1, 0, 0, 0) with 2 connectors and 1 uncovered coatoms, but there are 90")
        # a count of them, swapped again, makes its entry, then meets the same gate
        swapped.clear()
        rank3.pipeline._generated.pop(5, None)
        with pytest.raises(rank3.GraphInputError) as counted:
            rank3.count_lattices_stats(5, 60, graphs_by_c[5])
        assert str(counted.value) == str(info.value)
        monkeypatch.undo()
        _counts_after_failed_cell_gate(5, graphs_by_c[5])


@pytest.fixture
def fresh_fixed_counts():
    """The sub-type counts behind fixed_family_counts emptied before and after
    the test, so no count cached earlier hides a mutant and no mutant's
    count outlives the test.  Yields the caches."""
    polya = rank3.polya
    caches = polya._fixed_families, polya._linear_families
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


def _count_after_failed_gate(monkeypatch, caches):
    """Nothing cached once the gate raised, and unpatched, the count is right:
    every functools cache of polya is empty but those of the mask helpers
    _members and _pairs, which hold no count."""
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    polya = rank3.polya
    held = {name: f.cache_info().currsize for name, f in vars(polya).items()
            if hasattr(f, "cache_info") and name not in ("_members", "_pairs")}
    assert "_linear_families" in held and set(held.values()) == {0}, held
    monkeypatch.undo()
    values = rank3.count_lattices(5, 10).values
    assert values[1:] == [R_TABLE[5][a] for a in range(1, 11)]


def _identity_message(c, graphs, cell, offset):
    """The generated count's error when ``cell``'s terms are offset from c!
    times the classes of ``graphs`` there."""
    classes = sum(rank3.count_r_s(graph) == cell for graph in graphs)
    return ("the cycle types' fixed families with %d connectors and %d uncovered coatoms "
            "add up to %d, which %d! does not divide"
            % (*cell, math.factorial(c) * classes + offset, c))


class TestOrbitCountingGate:
    """A count without graphs is gated on the orbit-counting identity: in each
    (r, s) the terms of all cycle types add up to c! times the classes."""

    def test_wrong_fixed_count_rejected_on_generated_path(self, monkeypatch, graphs_by_c,
                                                          generations, fresh_fixed_counts):
        # a transposition said to fix one family too many with 4 connectors,
        # covering or not: with no cycle kept bare it enters (4, 0) alone, and
        # its class of 10 puts that cell 10 off
        fixed = rank3.polya._fixed_families

        def off_by_one(expo):
            out = dict(fixed(expo))
            if expo == (3, 1):
                out[4] = out.get(4, 0) + 1
            return tuple(out.items())

        monkeypatch.setattr(rank3.polya, "_fixed_families", off_by_one)
        with pytest.raises(ArithmeticError) as info:
            rank3.count_lattices(5, 10)
        assert str(info.value) == _identity_message(5, graphs_by_c[5], (4, 0), 10)
        assert 5 not in rank3.pipeline._generated
        _count_after_failed_gate(monkeypatch, fresh_fixed_counts)

    def test_dropped_orbit_rejected_on_generated_path(self, monkeypatch, graphs_by_c,
                                                      generations, fresh_fixed_counts):
        # the transposition (3 4) on 5 points loses its first orbit of two
        # connectors, {0, 3} and {0, 4}: the family of that orbit alone is
        # missing from its 2-connector families covering or not, which enter
        # (2, 0) alone when no cycle is kept bare, once for each of the 10
        listed = rank3.polya._linear_orbits

        def drops_one(perm):
            orbits = listed(perm)
            if perm == [0, 1, 2, 4, 3]:
                orbits.remove(next(orbit for orbit in orbits if orbit[1] == 2))
            return orbits

        monkeypatch.setattr(rank3.polya, "_linear_orbits", drops_one)
        with pytest.raises(ArithmeticError) as info:
            rank3.count_lattices(5, 10)
        assert str(info.value) == _identity_message(5, graphs_by_c[5], (2, 0), -10)
        assert 5 not in rank3.pipeline._generated
        _count_after_failed_gate(monkeypatch, fresh_fixed_counts)

    # The gate cannot catch a sign flip in the inclusion-exclusion, prod
    # (x^i + 1)^k_i for prod (x^i - 1)^k_i.  Each fixed family then counts
    # once per pair U within T of sigma-invariant sets of its bare coatoms,
    # in the cell of s = |U|: the Burnside count of those triples, whose
    # cells c! divides too.  The cells against the labelled DFS and the
    # census (tests/test_genconn.py) catch it, and so does the cell gate
    # of genconn.check_graphs.


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
        # chunks of 4096, so the c = 7 census is searched in three rounds of forks
        monkeypatch.setattr(rank3.genconn, "_CHUNK", 4096)
        graphs = list(graphs_c7 if c == 7 else graphs_by_c[c])
        if shuffled:
            random.Random(11).shuffle(graphs)
        usable_cpus(monkeypatch, cpus)
        forked = rank3.genconn.fold_graphs(c, graphs)
        assert_reaped()
        assert len(forks) == children    # one child per extra CPU and chunk
        usable_cpus(monkeypatch, 1)
        assert rank3.genconn.fold_graphs(c, graphs) == forked
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

    def test_other_error_raised_as_in_process(self, monkeypatch, forks, graphs_by_c):
        # graph 51, in this process's share, is a relabelled copy of graph 50,
        # and graph 102, in the child's, is None, whose check raises
        # AttributeError.  The child exits non-zero, its share is run again
        # here and raises before the in-order walk meets the copy, as the
        # share of a count in one process does.
        graphs = list(graphs_by_c[6])
        graphs[50], graphs[101] = _rotated(graphs[49]), None
        with pytest.raises(Exception) as forked:
            rank3.genconn.check_graphs(6, graphs)
        assert_reaped()
        assert len(forks) == 1
        usable_cpus(monkeypatch, 1)
        with pytest.raises(Exception) as here:
            rank3.genconn.check_graphs(6, graphs)
        assert type(forked.value) is type(here.value) is AttributeError

    @staticmethod
    def _failing_children(monkeypatch, fail):
        """Make every child call fail() before it searches."""
        parent, search = os.getpid(), rank3.genconn._search

        def failing(c, kept, graph):
            if os.getpid() != parent:
                fail()
            return search(c, kept, graph)

        monkeypatch.setattr(rank3.genconn, "_search", failing)

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
        parent, search, searched = os.getpid(), rank3.bigraph._coatom_search, []

        def counting(c, masks):
            if os.getpid() == parent:
                searched.append(masks)
            return search(c, masks)

        monkeypatch.setattr(rank3.bigraph, "_coatom_search", counting)
        assert rank3.count_lattices_stats(6, 200, graphs_by_c[6]) == want
        assert_reaped()
        assert len(forks) == 2
        # this process searches share 0, then a failed child's share 1, each
        # but its S_6-invariant graphs
        shares = graphs_by_c[6][0::2], graphs_by_c[6][1::2]
        here = shares[0] if failure is None else shares[0] + shares[1]
        assert searched == [g.connector_masks for g in here if not _symmetric(g)]

    def test_children_reaped_after_interrupt(self, monkeypatch, forks, graphs_by_c):
        # the parent is interrupted in its own share while the child searches
        parent, search = os.getpid(), rank3.bigraph._coatom_search

        def interrupted(c, masks):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return search(c, masks)

        monkeypatch.setattr(rank3.bigraph, "_coatom_search", interrupted)
        with pytest.raises(KeyboardInterrupt):
            rank3.genconn.check_graphs(6, graphs_by_c[6])
        assert_reaped()
        assert len(forks) == 1

    def test_stays_in_process(self, monkeypatch, graphs_by_c):
        calls = []
        monkeypatch.setattr(os, "fork", lambda: calls.append(1))
        usable_cpus(monkeypatch, 2)
        want = rank3.count_lattices(5, 100)
        # 72 graphs are below two shares of 256
        assert rank3.count_lattices_stats(5, 100, graphs_by_c[5])[0] == want
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


class ReadFailure(Exception):
    """The input's own error, raised by _failing_after."""


def _failing_after(graphs, n):
    """The first n graphs, then ReadFailure, as a reader that fails there."""
    yield from graphs[:n]
    raise ReadFailure("read failed after %d graphs" % n)


class TestOneLoop:
    """genconn.fold_graphs takes, searches, checks and folds the graphs
    chunk by chunk.  With chunks of 148 and shares of at least 16, the 592
    c = 6 graphs make four chunks on two CPUs, each searched in two
    shares, one of them in a forked child."""

    @pytest.fixture
    def small_chunks(self, monkeypatch, forks):
        monkeypatch.setattr(rank3.genconn, "_CHUNK", 148)
        monkeypatch.setattr(rank3.genconn, "_MIN_SHARE", 16)
        return forks

    def test_four_chunks_fold_as_in_process(self, monkeypatch, small_chunks, graphs_by_c):
        forked = rank3.genconn.fold_graphs(6, iter(graphs_by_c[6]))
        assert_reaped()
        assert len(small_chunks) == 4
        usable_cpus(monkeypatch, 1)
        assert rank3.genconn.fold_graphs(6, graphs_by_c[6]) == forked
        assert len(small_chunks) == 4

    def test_raise_at_a_chunk_boundary(self, small_chunks, graphs_by_c):
        graphs = list(graphs_by_c[6])
        with pytest.raises(ReadFailure, match="after 296 graphs"):
            rank3.genconn.check_graphs(6, _failing_after(graphs, 296))
        assert_reaped()
        assert len(small_chunks) == 2
        # graph 201, in the second chunk, copies graph 200 relabelled
        graphs.insert(200, _rotated(graphs[199]))
        assert _error(6, _failing_after(graphs, 296)) == \
            "graph 201 is isomorphic to an earlier graph"

    def test_copy_before_a_raise_in_the_third_chunk(self, small_chunks, graphs_by_c):
        # the input fails 104 graphs into the third chunk, after the copy
        graphs = list(graphs_by_c[6])
        graphs.insert(350, _rotated(graphs[349]))
        assert _error(6, _failing_after(graphs, 400)) == \
            "graph 351 is isomorphic to an earlier graph"
        assert len(small_chunks) == 3

    def test_empty_input(self, small_chunks):
        for graphs in ([], iter([])):
            assert _error(4, graphs) == ("the graphs stand for 0 labelled families with "
                                         "0 connectors and 4 uncovered coatoms, but there are 1")
        with pytest.raises(ReadFailure, match="after 0 graphs"):
            rank3.genconn.check_graphs(4, _failing_after([], 0))
        assert_reaped()
        assert small_chunks == []

    @staticmethod
    def _deals(monkeypatch, graphs):
        """(chunk length, graphs yielded so far) per nonempty chunk dealt
        when genconn.fold_graphs folds graphs, taken one by one."""
        yielded, dealt = [0], []
        in_shares = rank3.genconn._in_shares

        def recording(work, chunk):
            dealt.append((len(chunk), yielded[0]))
            return in_shares(work, chunk)

        def counting():
            for k, graph in enumerate(graphs, 1):
                yielded[0] = k
                yield graph

        monkeypatch.setattr(rank3.genconn, "_in_shares", recording)
        rank3.genconn.fold_graphs(7, counting())
        return [deal for deal in dealt if deal[0]]

    def test_pulls_at_most_one_chunk_ahead(self, monkeypatch, graphs_c7):
        # a streamed c = 8 --graphs count reads 552,251 graphs, so its memory
        # rests on the loop holding one chunk at a time
        monkeypatch.setattr(rank3.genconn, "_CHUNK", 4096)
        assert self._deals(monkeypatch, graphs_c7) == [(4096, 4096), (4096, 8192),
                                                       (2616, 10808)]

    def test_seven_coatom_census_in_one_round(self, monkeypatch, forks, graphs_c7):
        # the default chunk takes the whole c = 7 census, one fork on two CPUs
        assert self._deals(monkeypatch, graphs_c7) == [(10808, 10808)]
        assert_reaped()
        assert len(forks) == 1


class TestCountTable:
    def test_length_checked(self):
        with pytest.raises(ValueError, match=r"^expected 6 values, got 3$"):
            rank3.CountTable(3, 5, [0, 1, 2])
        with pytest.raises(TypeError):    # values has no default
            rank3.CountTable(3, 5)

    def test_table_record(self):
        table = rank3.CountTable(3, 2, [0, 1, 3])
        assert repr(table) == "CountTable(coatom_count=3, a_max=2, values=[0, 1, 3])"
        assert table == rank3.CountTable(coatom_count=3, a_max=2, values=[0, 1, 3])
        assert table != rank3.CountTable(4, 2, [0, 1, 3])
        assert table != (3, 2, [0, 1, 3])
        with pytest.raises(TypeError):
            hash(table)
        table.values[2] += 1
        table.values.append(7)
        assert table.values == [0, 1, 4, 7]
        table.values = [0]
        assert table.values == [0]

    def test_stats_record(self):
        stats = rank3.MemoStats(72, 15, 3)
        assert repr(stats) == ("MemoStats(graphs_processed=72, distinct_cycle_indices=15, "
                               "trivial_action_graphs=3)")
        assert repr(rank3.MemoStats(5, None, None)) == (
            "MemoStats(graphs_processed=5, distinct_cycle_indices=None, "
            "trivial_action_graphs=None)")
        same = rank3.MemoStats(graphs_processed=72, distinct_cycle_indices=15,
                               trivial_action_graphs=3)
        assert stats == same and hash(stats) == hash(same)
        assert stats != rank3.MemoStats(72, 15, 4)
        assert {stats, same} == {stats}
        with pytest.raises(AttributeError):
            stats.graphs_processed = 1
        assert stats.graphs_processed == 72

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
        # the gap comes after R(3, 0..2), which the first rows check, so only
        # the row check can refuse it
        path = tmp_path / "gap.csv"
        path.write_text("a,R\n0,0\n1,1\n2,3\n4,13\n")
        with pytest.raises(ValueError, match=r"^rows must run a = 0, 1, \.\.\. without gaps$"):
            rank3.read_csv(path, 3)

    @pytest.mark.parametrize("row", ["9,+2916", "9, 2916", "9,2916 ", "9,2_916",
                                     "9,\u0662\u0669\u0661\u0666", "+9,2916", "\u0669,2916"],
                             ids=["plus-sign", "leading-space", "trailing-space", "underscore",
                                  "non-ascii-digits", "signed-atoms", "non-ascii-atoms"])
    def test_csv_takes_only_what_write_csv_writes(self, tmp_path, row):
        # R(5, 9) = 2916: int() takes every one of these fields, write_csv writes none
        path = tmp_path / "c5.csv"
        rank3.write_csv(rank3.count_lattices(5, 12), path)
        data = path.read_bytes()
        assert data.count(b"\r\n9,2916\r\n") == 1
        path.write_bytes(data.replace(b"\r\n9,2916\r\n", ("\r\n%s\r\n" % row).encode()))
        with pytest.raises(ValueError, match="^expected ASCII digits, got "):
            rank3.read_csv(path, 5)

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

    @pytest.mark.parametrize("line, written", [
        ("conn_c4_r0.g6 1", "conn_c4_r0.g6 +1"),
        ("conn_c4_r3.g6 4", "conn_c4_r3.g6 \u0664"),
        ("total 16", "total 1_6"),
    ], ids=["plus-sign", "non-ascii-digits", "underscore"])
    def test_manifest_counts_are_ascii_digits(self, tmp_path, line, written):
        # int() takes each count as rewritten; manifest_text writes none of them
        rank3.write_graph_files(tmp_path, 4)
        manifest = tmp_path / "conn_c4.manifest"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[lines.index(line)] = written
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(rank3.GraphInputError, match="^malformed manifest "):
            next(rank3.iter_graph_dir(tmp_path, 4))

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
            rank3.genconn.check_graphs(6, rank3.iter_graph_dir(tmp_path, 6))
        lines = r2.read_bytes().splitlines(keepends=True)
        lines[1] = rank3.graph6_encode(_rotated(rank3.graph6_decode(lines[0], 6, 2)))
        r2.write_bytes(b"".join(lines))
        with pytest.raises(rank3.GraphInputError) as info:
            rank3.genconn.check_graphs(6, rank3.iter_graph_dir(tmp_path, 6))
        assert str(info.value) == "graph 8 is isomorphic to an earlier graph"
        assert_reaped()
        assert len(forks) == 2 * children

    def test_feeds_pipeline(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 5, graphs_by_c[5])
        table = rank3.count_lattices_stats(5, 12, rank3.iter_graph_dir(tmp_path, 5))[0]
        for a in range(1, 13):
            assert table.values[a] == R_TABLE[5][a]
