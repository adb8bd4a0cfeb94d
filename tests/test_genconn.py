"""Isomorph-free generation and the independent brute-force oracle."""

import functools
import hashlib
import itertools
import marshal
import math
import os
import random
import signal
import subprocess
import sys
import threading
import types
from collections import Counter
from fractions import Fraction

import pytest

import rank3
from rank3.bigraph import _coatom_search, _pairs
from rank3.genconn import _bit_images, _relabel_can_shrink
from rank3.polya import fixed_family_counts

from forking import assert_reaped, usable_cpus
from oracles import extended_by_pool_loop, labelled_connection_families, map_mask
from reference_values import GRAPH_CENSUS, PER_R_COUNTS, R_TABLE


# sha256 of repr(sorted((cycle type, sorted cells))) of fixed_family_counts(9),
# recorded from the orbit-union walk that counted bare coatoms per union
C9_CELLS_SHA256 = "d148c4f2597ab81764289199e58d43dd6ae2e3a16a297d0c8af28c4c1199ff62"


def cells_sha256(cells):
    """sha256 of repr(sorted((cycle type, sorted cells))) of a cell table."""
    text = repr(sorted((expo, sorted(by_cell.items())) for expo, by_cell in cells.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def census_bytes(directory):
    """Every file of a census directory, name -> bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def labeled_copies(c, graphs):
    """{(r, s): sum of c!/|Aut| over the classes with r connectors and s
    uncovered coatoms}: the labelled families they stand for, per cell."""
    cells = Counter()
    for g in graphs:
        cells[rank3.count_r_s(g)] += Fraction(math.factorial(c),
                                              rank3.automorphism_group_on_coatoms(g).order)
    return dict(cells)


def cycle_type(perm):
    """(m_1, ..., m_c): the number of cycles of each length of a permutation."""
    expo, seen = [0] * len(perm), set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            expo[length - 1] += 1
    return tuple(expo)


def identity_cells(c):
    """{(r, s): L_c(r, s)}, the labelled families: the identity's cells of
    fixed_family_counts."""
    return fixed_family_counts(c)[(c,) + (0,) * (c - 1)]


def adjacency(n, edges):
    """A graph on n points as one neighbour mask per point."""
    adj = [0] * n
    for i, k in edges:
        adj[i] |= 1 << k
        adj[k] |= 1 << i
    return tuple(adj)


@functools.cache
def labeled_cells(c):
    """{(r, s): number of labelled families}, by the labelled DFS oracle."""
    full = (1 << c) - 1
    cells = Counter()
    for masks in labelled_connection_families(c):
        covered = 0
        for m in masks:
            covered |= m
        cells[len(masks), (full & ~covered).bit_count()] += 1
    return dict(cells)


class TestGeneration:
    def test_census_counts(self, graphs_by_c):
        for c in range(1, 7):
            assert len(graphs_by_c[c]) == GRAPH_CENSUS[c]

    def test_starts_with_empty_graph(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            assert graphs[0] == rank3.BicoloredGraph(c, [])

    def test_per_connector_counts(self, graphs_by_c):
        for c, expected in PER_R_COUNTS.items():
            counts = {}
            for g in graphs_by_c[c]:
                counts[g.connector_count] = counts.get(g.connector_count, 0) + 1
            assert [counts.get(r, 0) for r in range(len(expected))] == expected

    def test_all_valid_and_pairwise_nonisomorphic(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            forms = set()
            for g in graphs:
                rank3.validate_connection_graph(g)
                forms.add(rank3.canonical_form(g))
            assert len(forms) == len(graphs)

    def test_complete_against_labeled_enumeration(self, graphs_by_c):
        for c in range(1, 5):
            all_forms = {
                rank3.canonical_form(rank3.BicoloredGraph(c, masks))
                for masks in labelled_connection_families(c)
            }
            generated = {rank3.canonical_form(g) for g in graphs_by_c[c]}
            assert generated == all_forms

    def test_orbit_stabiliser_against_labeled_count(self, graphs_by_c):
        # a class G has c!/|Aut(G)| labelled copies, so in every (r, s) the
        # classes and their groups must add up to the labelled families;
        # fixed_family_counts' identity, the labelled DFS and the census agree cell
        # by cell, with no published numbers, up to c = 6
        for c, labeled in zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]):
            cells = identity_cells(c)
            assert cells == labeled_cells(c)
            assert cells == labeled_copies(c, graphs_by_c[c])
            assert sum(cells.values()) == labeled

    def test_labelled_counts_at_seven_and_eight(self):
        # the totals the census sums reach (the c = 8 ones under slow)
        for c, cells, total in [(7, 57, 35406319), (8, 85, 18785639553)]:
            counts = identity_cells(c)
            assert (len(counts), sum(counts.values())) == (cells, total)
            assert min(counts.values()) > 0

    def test_fixed_families_against_labelled_dfs(self):
        # each cycle type's terms are the labelled families fixed by the
        # permutations of that type, checked on every permutation of S_c
        # against the labelled DFS up to c = 5
        for c in range(1, 6):
            full = (1 << c) - 1
            families = []
            for masks in labelled_connection_families(c):
                covered = 0
                for m in masks:
                    covered |= m
                families.append((set(masks), (len(masks), (full & ~covered).bit_count())))
            fixed = Counter()
            for perm in itertools.permutations(range(c)):
                expo = cycle_type(perm)
                for masks, cell in families:
                    if {map_mask(m, perm) for m in masks} == masks:
                        fixed[expo, cell] += 1
            counts = rank3.polya.fixed_family_counts(c)
            assert {(expo, cell): n for expo, cells in counts.items()
                    for cell, n in cells.items()} == fixed

    def test_fixed_families_count_the_classes(self, graphs_by_c):
        # Burnside: in each (r, s) the terms of all cycle types add up to c!
        # times the classes, the census up to c = 6 and its totals to c = 8;
        # the identity's terms are the labelled families of the labelled DFS
        for c in range(1, 9):
            counts = rank3.polya.fixed_family_counts(c)
            cells = Counter()
            for by_cell in counts.values():
                cells.update(by_cell)
            assert all(n % math.factorial(c) == 0 for n in cells.values())
            classes = {cell: n // math.factorial(c) for cell, n in cells.items()}
            if c in graphs_by_c:
                assert classes == Counter(map(rank3.count_r_s, graphs_by_c[c]))
            assert sum(classes.values()) == GRAPH_CENSUS[c]
            if c in PER_R_COUNTS:
                per_r = Counter()
                for (r, _s), n in classes.items():
                    per_r[r] += n
                assert [per_r[r] for r in range(len(PER_R_COUNTS[c]))] == PER_R_COUNTS[c]
            if c <= 6:
                assert counts[(c,) + (0,) * (c - 1)] == labeled_cells(c)
        with pytest.raises(ValueError):
            rank3.polya.fixed_family_counts(0)

    def test_mutating_returned_cells_changes_no_later_answer(self, monkeypatch, graphs_by_c):
        # nothing a caller does to a returned table, outside or in, reaches a
        # later table or count: mutated before the count's entry is made, and
        # again once it is
        c, identity = 5, (5, 0, 0, 0, 0)
        want = cells_sha256(fixed_family_counts(c))
        monkeypatch.setattr(rank3.pipeline, "_generated", {})
        for _ in "no entry", "entry":
            counts = fixed_family_counts(c)
            counts[identity][0, c] += 1
            counts[identity][9, 9] = 1
            del counts[0, 0, 0, 0, 1]
            counts[(0,) * c] = {(0, 0): 1}
            assert cells_sha256(fixed_family_counts(c)) == want
            table = rank3.count_lattices(c, 30)
            assert all(table.values[a] == v for a, v in R_TABLE[c].items() if a <= 30)
            assert rank3.count_lattices(c, 30, graphs_by_c[c]) == table

    def test_nine_coatom_cells(self):
        # every (cycle type, r, s) cell at c = 9, shared through the cache with
        # test_acceptance's published R(9, a)
        assert cells_sha256(fixed_family_counts(9)) == C9_CELLS_SHA256

    def test_cells_do_not_depend_on_count_order(self):
        # the sub-types' counts are kept for the process and shared by every
        # c: from empty sub-type caches, c = 8 down to 1 gives the cells of
        # c = 1 up to 8
        polya = rank3.polya
        hashes = {}
        for order in range(8, 0, -1), range(1, 9):
            polya._fixed_families.cache_clear()
            polya._linear_families.cache_clear()
            hashes[order.step] = {c: cells_sha256(fixed_family_counts(c)) for c in order}
            assert polya._linear_families.cache_info().currsize == 0
        assert hashes[-1] == hashes[1]

    def test_point_elimination_against_labelled_dfs(self):
        # A(H) per r, eliminating points by twin classes, against the
        # labelled families that cover no pair joined in H: every graph H
        # on at most 4 points and 200 seeded random graphs on 5
        rng = random.Random(31)
        graphs = [adjacency(n, edges) for n in range(1, 5)
                  for k in range(n * (n - 1) // 2 + 1)
                  for edges in itertools.combinations(itertools.combinations(range(n), 2), k)]
        graphs += [adjacency(5, [pair for pair in itertools.combinations(range(5), 2)
                                 if rng.random() < 0.4]) for _ in range(200)]
        families = {n: [(functools.reduce(int.__or__, map(_pairs, masks), 0), len(masks))
                        for masks in labelled_connection_families(n)] for n in range(1, 6)}
        for adj in graphs:
            n = len(adj)
            joined = sum(1 << i * (i - 1) // 2 + k for i in range(n) for k in range(i)
                         if adj[i] >> k & 1)
            per_r = Counter(r for covered, r in families[n] if not covered & joined)
            rank3.polya._linear_families.cache_clear()
            got = rank3.polya._linear_families(adj)
            assert got == tuple(per_r[r] for r in range(len(got))), adj
        rank3.polya._linear_families.cache_clear()

    def test_orbit_unions_take_no_stack_per_orbit(self):
        # a conflict path of more orbits than the recursion limit: its
        # tally counts the independent sets, Fibonacci(n + 2) of them, and
        # on a short path with key 1 per orbit C(n - k + 1, k) of size k
        n = 3000
        assert n > sys.getrecursionlimit()
        path = [(1 << j - 1 if j else 0) | (1 << j + 1 if j + 1 < n else 0) for j in range(n)]
        fibonacci = [0, 1]
        while len(fibonacci) < n + 3:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        assert rank3.polya._orbit_unions([0] * n, path) == {0: fibonacci[n + 2]}
        short = 40
        tally = rank3.polya._orbit_unions([1] * short, [m & (1 << short) - 1
                                                        for m in path[:short]])
        assert tally == {k: math.comb(short - k + 1, k) for k in range(short // 2 + 1)}

    @pytest.mark.slow
    def test_orbit_union_tally_memory_at_ten_coatoms(self):
        # in a fresh process the c = 10 count peaks near 29 MB; an
        # _orbit_unions memoising every connected set, with no chains or
        # plans, gave the same cells at a 107 MB peak.  The peak is the new
        # process's VmHWM (kB): its ru_maxrss keeps this process's peak
        # across the fork and exec
        code = ("import rank3; rank3.polya.fixed_family_counts(10); "
                "print(*[line.split()[1] for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')])")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rank3.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64 * 1024

    @pytest.mark.slow
    def test_orbit_stabiliser_at_seven_coatoms(self, graphs_c7):
        # the same check on the c = 7 census, all 57 cells; the labelled DFS
        # takes about a minute and is checked by its total
        assert sum(1 for _ in labelled_connection_families(7)) == 35406319
        assert labeled_copies(7, graphs_c7) == identity_cells(7)

    @pytest.mark.parametrize("c, searches", [(5, 73), (6, 656), (7, 12780)])
    def test_extends_only_by_largest_connectors(self, one_process_run, c, searches):
        # a parent P is extended only by a connector of largest (size,
        # number of other connectors met), and only by the least such mask
        # of each Aut(P)-orbit, so far fewer candidates reach the canonical
        # search than the 362 and 4356 compatible ones; the rank alone gives
        # 162 and 1239 (18,450 at c = 7, against 12,782 with the orbits), and
        # a size-only rule still gives the right census but makes 2118
        # searches at c = 6.  Of the candidates that pass, the full connector
        # (r = 1) and the complete-pairs graph are not searched, since S_c
        # maps them onto themselves: 2 fewer than pass at each c
        run = one_process_run(c)
        assert len(run.classes) == GRAPH_CENSUS[c]
        assert len(run.searches) == searches

    @pytest.mark.parametrize("c", range(1, 8))
    def test_each_class_found_once(self, one_process_run, c):
        # a search is kept only from its class's canonical parent, so the
        # parents' lists hold every class but r = 0 exactly once, with no
        # dedupe after them
        run = one_process_run(c)
        found = [form for _parent, forms in run.extensions for form in forms]
        assert len(found) == GRAPH_CENSUS[c] - 1
        assert len({form for form, _group in found}) == len(found)
        assert sorted(found) == sorted(run.classes[1:])

    @pytest.mark.parametrize("c, every", [(c, 1) for c in range(1, 7)] + [(7, 50)])
    def test_scan_matches_the_pool_loop(self, one_process_run, c, every):
        # _extended scans only the masks of its parent's top size or more
        # that share no coatom pair with it: the same list, in the same
        # order, as the loop over the whole pool, for every parent at c <= 6
        # and every 50th at c = 7
        run = one_process_run(c)
        for parent, found in run.extensions[::every]:
            assert found == extended_by_pool_loop(c, parent)
        # every class is a parent but the last, of the most connectors
        assert len(run.extensions) == GRAPH_CENSUS[c] - 1

    def test_kept_groups_are_the_automorphisms(self, graphs_by_c):
        # the group a class keeps is read off the winners of a search on any
        # labelling of it, and acts on the canonical labels; a relabelled,
        # shuffled copy makes the first winner differ from the identity
        rng = random.Random(20261019)
        for c, graphs in graphs_by_c.items():
            for g in graphs:
                want = set(rank3.automorphism_group_on_coatoms(g)) - {tuple(range(c))}
                perm = rng.sample(range(c), c)
                moved = [map_mask(m, perm) for m in g.connector_masks]
                rng.shuffle(moved)
                for masks in (g.connector_masks, moved):
                    form, winners = _coatom_search(c, masks)
                    assert form == g.connector_masks
                    images = _bit_images(winners)
                    assert all(len(s) == c for s in images)
                    assert {tuple(s.bit_length() - 1 for s in img) for img in images} == want
                    assert len(images) == len(want)

    def test_kept_groups_of_the_classes(self, classes_by_c):
        # every class keeps the bit images of its search's winners, Aut minus
        # the identity, but the S_c-invariant ones (r = 0, the full connector
        # and all coatom pairs), which keep the r = 0 class's transpositions
        # (i i+1), one tuple
        for c, classes in classes_by_c.items():
            swaps = set()
            for i in range(c - 1):
                perm = list(range(c))
                perm[i], perm[i + 1] = i + 1, i
                swaps.add(tuple(1 << p for p in perm))
            seed = classes[0][1]
            assert classes[0][0] == () and set(seed) == swaps and len(seed) == c - 1
            symmetric = [group for form, group in classes if rank3.bigraph._symmetric(c, form)]
            assert len(symmetric) == {1: 1, 2: 2}.get(c, 3)
            assert all(group is seed for group in symmetric)
            for form, group in classes:
                if not rank3.bigraph._symmetric(c, form):
                    want = _bit_images(_coatom_search(c, form)[1])
                    assert set(group) == set(want) and len(group) == len(want), form

    def test_graphs_are_the_classes(self, graphs_by_c, classes_by_c):
        for c, classes in classes_by_c.items():
            assert graphs_by_c[c] == [rank3.BicoloredGraph(c, masks) for masks, _group in classes]

    def test_deterministic_order(self):
        first = list(rank3.generate_connection_graphs(4))
        second = list(rank3.generate_connection_graphs(4))
        assert first == second

    def test_rejects_nonpositive_coatoms(self):
        with pytest.raises(ValueError):
            list(rank3.generate_connection_graphs(0))


class TestInShares:
    """_in_shares deals 300 items round-robin into shares of at least 16, one
    per usable CPU: share 0 in this process, every other share in a forked
    child, each calling work once per item.  Its result has one entry per
    item, in item order, whatever work returns: a child's list that does
    not come back whole is run again here."""

    items = list(range(300))

    @pytest.fixture(autouse=True)
    def _small_shares(self, monkeypatch):
        monkeypatch.setattr(rank3.genconn, "_MIN_SHARE", 16)

    @staticmethod
    def _work_here():
        """work squaring an item, and the items it is run on in this
        process, appended as it runs."""
        parent, here = os.getpid(), []

        def work(x):
            if os.getpid() == parent:
                here.append(x)
            return x * x

        return work, here

    @staticmethod
    def _children_send(monkeypatch, sent):
        """Make each child send sent(its list) in place of its list: only a
        child calls marshal.dumps."""
        def dumps(results):
            return marshal.dumps(sent(results))

        monkeypatch.setattr(rank3.genconn, "marshal",
                            types.SimpleNamespace(dumps=dumps, loads=marshal.loads))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_in_item_order(self, monkeypatch, forks, cpus):
        usable_cpus(monkeypatch, cpus)
        work, here = self._work_here()
        got = rank3.genconn._in_shares(work, self.items)
        assert_reaped()
        assert len(forks) == cpus - 1
        assert got == [x * x for x in self.items]
        assert here == self.items[::cpus]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_short_list_is_run_here(self, monkeypatch, forks, cpus):
        # the child of share 1 (first result 1) sends its list ten short;
        # that whole share is run again here, once every child is reaped
        usable_cpus(monkeypatch, cpus)
        self._children_send(monkeypatch,
                            lambda results: results[:-10] if results[0] == 1 else results)
        work, here = self._work_here()
        got = rank3.genconn._in_shares(work, self.items)
        assert_reaped()
        assert len(forks) == cpus - 1
        assert got == [x * x for x in self.items]
        assert here == self.items[::cpus] + self.items[1::cpus]

    @pytest.mark.parametrize("sent", [lambda results: results + [0], tuple, set],
                             ids=["one-too-many", "tuple", "set"])
    def test_longer_list_or_non_list_is_run_here(self, monkeypatch, forks, sent):
        # share 1, in the child, sends the bad result, so it is run again here
        self._children_send(monkeypatch, sent)
        work, here = self._work_here()
        got = rank3.genconn._in_shares(work, self.items)
        assert_reaped()
        assert len(forks) == 1
        assert got == [x * x for x in self.items]
        assert here == self.items[::2] + self.items[1::2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_none_is_a_result(self, monkeypatch, forks, cpus):
        # item 298 is in share 0, run here, and item 299 in the child's share
        # at two CPUs: a None from work is placed like any other result
        usable_cpus(monkeypatch, cpus)
        got = rank3.genconn._in_shares(lambda x: None if x in (298, 299) else x * x,
                                       self.items)
        assert_reaped()
        assert len(forks) == cpus - 1
        assert got == [None if x in (298, 299) else x * x for x in self.items]


@pytest.fixture(scope="module")
def one_process_run():
    """run(c): the generator's classes for c coatoms made with one usable CPU,
    so in this process alone, with the masks of every coatom search and
    each (parent, list _extended returns), in call order.  Each c is run
    once per module, so the c = 7 census is built once for every test."""
    runs = {}

    def run(c):
        if c not in runs:
            search, extended = rank3.genconn._coatom_search, rank3.genconn._extended
            searches, extensions = [], []

            def counting(coatoms, masks):
                searches.append(masks)
                return search(coatoms, masks)

            def recording(coatoms, pools, pairs, parent):
                found = extended(coatoms, pools, pairs, parent)
                extensions.append((parent, found))
                return found

            with pytest.MonkeyPatch.context() as patch:
                usable_cpus(patch, 1)
                patch.setattr(rank3.genconn, "_coatom_search", counting)
                patch.setattr(rank3.genconn, "_extended", recording)
                classes = list(rank3.genconn._classes(c))
            runs[c] = types.SimpleNamespace(classes=classes, searches=searches,
                                            extensions=extensions)
        return runs[c]

    return run


@pytest.fixture(scope="module")
def classes_c7_one_process(one_process_run):
    """The generator's 7-coatom classes with one usable CPU, so made in this process alone."""
    return one_process_run(7).classes


class TestForkedGeneration:
    """The parents of a stratum are dealt round-robin into shares, one per
    usable CPU, of at least _MIN_SHARE parents each; share 0 is extended in
    this process and every other share in a forked child.  At c = 6 with
    _MIN_SHARE = 16 and two CPUs, the parents in each of the 7 strata
    r = 4..10 (35 to 108 classes) make two shares and fork one child, and
    331 of the 591 parents are extended here."""

    @staticmethod
    def _small_shares(monkeypatch):
        monkeypatch.setattr(rank3.genconn, "_MIN_SHARE", 16)

    @staticmethod
    def _parents_here(monkeypatch):
        """The parents that _extended is called with in this process, appended as it runs."""
        parent, extended, parents = os.getpid(), rank3.genconn._extended, []

        def counting(c, pool, pairs, one):
            if os.getpid() == parent:
                parents.append(one)
            return extended(c, pool, pairs, one)

        monkeypatch.setattr(rank3.genconn, "_extended", counting)
        return parents

    @pytest.mark.parametrize("c, cpus, children", [(6, 2, 7), (7, 2, 10), (7, 3, 18)],
                             ids=["c6", "c7", "c7-three-cpus"])
    def test_forked_classes_equal_in_process(self, monkeypatch, forks, classes_by_c,
                                             classes_c7_one_process, c, cpus, children):
        # c = 7 forks at the 10 strata r = 5..14 of 261 to 1875 classes: with
        # three CPUs those of 384 or more make three shares, r = 5 and 14 two
        if c == 6:
            self._small_shares(monkeypatch)
        usable_cpus(monkeypatch, cpus)
        forked = list(rank3.genconn._classes(c))
        assert_reaped()
        assert len(forks) == children
        assert forked == (classes_c7_one_process if c == 7 else classes_by_c[c])

    @pytest.mark.parametrize("failure", [None, "sigkill", "exit-1", "truncated",
                                         "one-parent-short"])
    def test_failed_child_gives_the_same_classes(self, monkeypatch, forks, classes_by_c,
                                                 failure):
        # a child's share comes back whole or is extended here again whole:
        # a share sent back one parent's list short is no exception, so every
        # failure extends all 591 parents here
        self._small_shares(monkeypatch)
        parent, extended = os.getpid(), rank3.genconn._extended
        if failure in ("truncated", "one-parent-short"):
            def sent(results):
                if failure == "one-parent-short":
                    return marshal.dumps(results[:-1])
                data = marshal.dumps(results)
                return data[:len(data) // 2]

            monkeypatch.setattr(rank3.genconn, "marshal",
                                types.SimpleNamespace(dumps=sent, loads=marshal.loads))
        elif failure is not None:
            fail = {"sigkill": lambda: os.kill(os.getpid(), signal.SIGKILL),
                    "exit-1": lambda: os._exit(1)}[failure]

            def failing(*args):
                if os.getpid() != parent:
                    fail()
                return extended(*args)

            monkeypatch.setattr(rank3.genconn, "_extended", failing)
        parents = self._parents_here(monkeypatch)
        assert list(rank3.genconn._classes(6)) == classes_by_c[6]
        assert_reaped()
        assert len(forks) == 7
        assert len(parents) == (331 if failure is None else 591)

    def test_children_reaped_after_interrupt(self, monkeypatch, forks):
        # this process is interrupted in its own share of the first forked
        # stratum while the child extends the other
        self._small_shares(monkeypatch)
        parent, extended = os.getpid(), rank3.genconn._extended

        def interrupted(*args):
            if os.getpid() == parent and forks:
                raise KeyboardInterrupt
            return extended(*args)

        monkeypatch.setattr(rank3.genconn, "_extended", interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(rank3.genconn._classes(6))
        assert_reaped()
        assert len(forks) == 1

    def test_no_child_while_the_caller_holds_a_class(self, monkeypatch, forks, classes_by_c):
        # the first class of the first forked stratum (r = 5) comes after
        # its child is reaped, and closing the generator there forks no more
        self._small_shares(monkeypatch)
        classes = rank3.genconn._classes(6)
        for k, found in enumerate(classes):
            if forks:
                break
        assert_reaped()
        assert found == classes_by_c[6][k]
        assert len(found[0]) == 5 and len(classes_by_c[6][k - 1][0]) == 4
        classes.close()
        assert_reaped()
        assert len(forks) == 1

    def test_default_share_forks_from_256_items(self, forks, classes_by_c, graphs_by_c):
        # two shares of the default _MIN_SHARE need 256 items, so every
        # stratum up to c = 6 (108 parents at most) and the fold of the
        # 72-graph c = 5 census stay in this process
        assert rank3.genconn._processes(255) == 1
        assert rank3.genconn._processes(256) == 2
        for c in range(1, 7):
            assert list(rank3.genconn._classes(c)) == classes_by_c[c]
        assert rank3.count_lattices(5, 12, graphs_by_c[5]) == rank3.count_lattices(5, 12)
        assert forks == []

    def test_stays_in_process(self, monkeypatch, classes_by_c):
        calls = []
        monkeypatch.setattr(os, "fork", lambda: calls.append(1))
        usable_cpus(monkeypatch, 2)
        # every stratum at c = 6 is below two shares of 128 parents
        assert list(rank3.genconn._classes(6)) == classes_by_c[6]
        self._small_shares(monkeypatch)
        # one usable CPU
        usable_cpus(monkeypatch, 1)
        assert list(rank3.genconn._classes(6)) == classes_by_c[6]
        # another thread alive
        usable_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert list(rank3.genconn._classes(6)) == classes_by_c[6]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert calls == []
        # no os.fork at all
        monkeypatch.delattr(os, "fork")
        assert list(rank3.genconn._classes(6)) == classes_by_c[6]
        assert_reaped()


class TestCountRS:
    def test_path_graph(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        assert rank3.count_r_s(g) == (3, 0)

    def test_partial_cover(self):
        g = rank3.BicoloredGraph(5, [{0, 1}, {1, 2}])
        assert rank3.count_r_s(g) == (2, 2)

    def test_empty_graph(self):
        assert rank3.count_r_s(rank3.BicoloredGraph(3, [])) == (0, 3)


class TestGraphFiles:
    def test_write_and_reread(self, tmp_path, graphs_by_c):
        counts = rank3.write_graph_files(tmp_path, 4, graphs_by_c[4])
        assert counts == PER_R_COUNTS[4]
        back = list(rank3.iter_graph_dir(tmp_path, 4))
        assert sorted(back, key=rank3.graph6_encode) == \
            sorted(graphs_by_c[4], key=rank3.graph6_encode)

    def test_manifest_written(self, tmp_path):
        rank3.write_graph_files(tmp_path, 3)
        manifest = (tmp_path / "conn_c3.manifest").read_text()
        assert "total 5" in manifest
        for r, n in enumerate(PER_R_COUNTS[3]):
            assert "%s %d" % (rank3.graph_file_name(3, r), n) in manifest

    @pytest.mark.parametrize("c, foreign", [
        (3, lambda graphs: graphs[4]),
        (4, lambda graphs: graphs[3]),
        (3, lambda graphs: [rank3.BicoloredGraph(3, (0b011, 0b101, 0b110, 0b111))]),
    ], ids=["more-coatoms", "fewer-coatoms", "too-many-connectors"])
    def test_foreign_graphs_leave_census(self, tmp_path, graphs_by_c, c, foreign):
        rank3.write_graph_files(tmp_path, c, graphs_by_c[c])
        before = census_bytes(tmp_path)
        with pytest.raises(ValueError):
            rank3.write_graph_files(tmp_path, c, foreign(graphs_by_c))
        assert census_bytes(tmp_path) == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_failing_graphs_leave_census(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 4, graphs_by_c[4])
        before = census_bytes(tmp_path)

        def failing():
            yield from graphs_by_c[4][:5]
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError):
            rank3.write_graph_files(tmp_path, 4, failing())
        assert census_bytes(tmp_path) == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_failing_open_leaves_census(self, tmp_path, graphs_by_c):
        rank3.write_graph_files(tmp_path, 4, graphs_by_c[4])
        before = census_bytes(tmp_path)
        squatter = tmp_path / (rank3.graph_file_name(4, 2) + ".tmp")
        squatter.mkdir()
        with pytest.raises(OSError):
            rank3.write_graph_files(tmp_path, 4, graphs_by_c[4])
        squatter.rmdir()
        assert census_bytes(tmp_path) == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_renames_after_last_graph_manifest_last(self, tmp_path, graphs_by_c, monkeypatch):
        exhausted = False

        def graphs():
            nonlocal exhausted
            yield from graphs_by_c[4]
            exhausted = True

        renames = []
        replace = os.replace

        def recording_replace(src, dst):
            renames.append((os.path.basename(dst), exhausted))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        rank3.write_graph_files(tmp_path, 4, graphs())
        names = [name for name, _after in renames]
        assert all(after for _name, after in renames)
        assert sorted(names) == sorted(p.name for p in tmp_path.iterdir())
        assert names[-1] == "conn_c4.manifest"

    def test_generates_when_graphs_omitted(self, tmp_path, graphs_by_c):
        counts = rank3.write_graph_files(tmp_path, 3)
        assert sum(counts) == GRAPH_CENSUS[3]
        back = list(rank3.iter_graph_dir(tmp_path, 3))
        assert {rank3.canonical_form(g) for g in back} == \
            {rank3.canonical_form(g) for g in graphs_by_c[3]}


class TestBruteForceOracle:
    def test_known_small_values(self, brute_force):
        assert brute_force(3, 3) == 8
        assert brute_force(4, 4) == 34
        for a in range(1, 6):
            assert brute_force(1, a) == 1

    def test_against_published_table(self, brute_force):
        for c in range(2, 6):
            for a in range(1, 6):
                assert brute_force(c, a) == R_TABLE[c][a]

    def test_coatom_atom_symmetry(self, brute_force):
        for c in range(1, 6):
            for a in range(1, 6):
                if c < a:
                    assert brute_force(c, a) == brute_force(a, c)

    def test_rejects_nonpositive_arguments(self, brute_force):
        with pytest.raises(ValueError):
            brute_force(0, 3)
        with pytest.raises(ValueError):
            brute_force(3, 0)


class TestRelabelPruning:
    def test_matches_permutation_scan(self):
        rng = random.Random(20240818)
        for _ in range(400):
            c = rng.randint(1, 5)
            length = rng.randint(1, 6)
            seq = sorted(rng.randint(1, (1 << c) - 1) for _ in range(length))
            target = tuple(seq)
            oracle = any(
                tuple(sorted(map_mask(m, p) for m in seq)) < target
                for p in itertools.permutations(range(c))
            )
            assert _relabel_can_shrink(c, seq) == oracle

    def test_canonical_sequences_not_shrinkable(self, graphs_by_c):
        # lexicographically smallest relabelings must be fixed points
        for g in graphs_by_c[4]:
            best = min(
                tuple(sorted(map_mask(m, p) for m in g.connector_masks))
                for p in itertools.permutations(range(4))
            )
            assert not _relabel_can_shrink(4, list(best))
