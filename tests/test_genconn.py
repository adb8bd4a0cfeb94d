"""Isomorph-free generation and the independent brute-force oracle."""

import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import rank3
from rank3.bigraph import _coatom_search
from rank3.genconn import _bit_images, _relabel_can_shrink, labelled_family_counts

from oracles import labelled_connection_families, map_mask
from reference_values import GRAPH_CENSUS, PER_R_COUNTS, R_TABLE


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
        # labelled_family_counts, the labelled DFS and the census agree cell
        # by cell, with no published numbers, up to c = 6
        for c, labeled in zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]):
            cells = labelled_family_counts(c)
            assert cells == labeled_cells(c)
            assert cells == labeled_copies(c, graphs_by_c[c])
            assert sum(cells.values()) == labeled

    def test_labelled_counts_at_seven_and_eight(self):
        # the totals the census sums reach (the c = 8 ones under slow)
        for c, cells, total in [(7, 57, 35406319), (8, 85, 18785639553)]:
            counts = labelled_family_counts(c)
            assert (len(counts), sum(counts.values())) == (cells, total)
            assert min(counts.values()) > 0
        with pytest.raises(TypeError):
            counts[0, 8] = 2    # read-only: the cached cells cannot be changed

    @pytest.mark.slow
    def test_orbit_stabiliser_at_seven_coatoms(self, graphs_c7):
        # the same check on the c = 7 census, all 57 cells; the labelled DFS
        # takes about a minute and is checked by its total
        assert sum(1 for _ in labelled_connection_families(7)) == 35406319
        assert labeled_copies(7, graphs_c7) == labelled_family_counts(7)

    @pytest.mark.parametrize("c, searches", [(5, 75), (6, 658)])
    def test_extends_only_by_largest_connectors(self, monkeypatch, c, searches):
        # a parent P is extended only by a connector of largest (size,
        # number of other connectors met), and only by the least such mask
        # of each Aut(P)-orbit, so far fewer candidates reach the canonical
        # search than the 362 and 4356 compatible ones; the rank alone gives
        # 162 and 1239 (18,450 at c = 7, against 12,782 with the orbits), and
        # a size-only rule still gives the right census but makes 2118
        # searches at c = 6
        calls = []
        search = rank3.genconn._coatom_search

        def counting(coatoms, masks):
            calls.append(masks)
            return search(coatoms, masks)

        monkeypatch.setattr(rank3.genconn, "_coatom_search", counting)
        assert sum(1 for _ in rank3.generate_connection_graphs(c)) == GRAPH_CENSUS[c]
        assert len(calls) == searches

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
    def test_known_small_values(self):
        assert rank3.brute_force_count(3, 3) == 8
        assert rank3.brute_force_count(4, 4) == 34
        for a in range(1, 6):
            assert rank3.brute_force_count(1, a) == 1

    def test_against_published_table(self):
        for c in range(2, 6):
            for a in range(1, 6):
                assert rank3.brute_force_count(c, a) == R_TABLE[c][a]

    def test_coatom_atom_symmetry(self):
        for c in range(1, 6):
            for a in range(1, 6):
                if c < a:
                    assert rank3.brute_force_count(c, a) == \
                        rank3.brute_force_count(a, c)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            rank3.brute_force_count(0, 3)
        with pytest.raises(ValueError):
            rank3.brute_force_count(3, 0)


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
