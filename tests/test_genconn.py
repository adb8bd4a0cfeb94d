"""Isomorph-free generation and the independent brute-force oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import rank3
from rank3.genconn import _relabel_can_shrink

from reference_values import GRAPH_CENSUS, PER_R_COUNTS, R_TABLE


def census_bytes(directory):
    """Every file of a census directory, name -> bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def map_mask(mask, perm):
    """Oracle: the image of a coatom mask under a relabelling, bit by bit."""
    return sum(1 << image for i, image in enumerate(perm) if mask >> i & 1)


def labeled_copies(c, graphs):
    """Sum over the classes of c!/|Aut|: the labelled families they stand for."""
    return sum(Fraction(math.factorial(c), rank3.automorphism_group_on_coatoms(g).order)
               for g in graphs)


def labeled_connection_families(c):
    """Every set of pairwise-compatible connector masks on c labeled coatoms.

    A depth-first search over the mask pool: each family is extended only
    by larger masks that share at most one coatom with all of its members.
    """
    def extend(family, candidates):
        yield family
        for k, m in enumerate(candidates):
            yield from extend(family + (m,), [x for x in candidates[k + 1:]
                                              if (x & m).bit_count() <= 1])

    return extend((), [m for m in range(1 << c) if m.bit_count() >= 2])


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
                for masks in labeled_connection_families(c)
            }
            generated = {rank3.canonical_form(g) for g in graphs_by_c[c]}
            assert generated == all_forms

    def test_orbit_stabiliser_against_labeled_count(self, graphs_by_c):
        # a class G has c!/|Aut(G)| labelled copies, so the classes and their
        # groups must add up to the labelled families; no published numbers
        # are needed, and this covers the automorphism groups up to c = 6
        for c, labeled in zip(range(1, 7), [1, 2, 9, 97, 2625, 185521]):
            assert sum(1 for _ in labeled_connection_families(c)) == labeled
            assert labeled_copies(c, graphs_by_c[c]) == labeled

    @pytest.mark.slow
    def test_orbit_stabiliser_at_seven_coatoms(self, graphs_c7):
        # the same check on the c = 7 census; the labelled DFS takes about a minute
        assert sum(1 for _ in labeled_connection_families(7)) == 35406319
        assert labeled_copies(7, graphs_c7) == 35406319

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
