"""Bicolored graphs: construction, canonical forms, automorphisms, graph6."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3
from rank3.bigraph import _canonical_masks

from reference_values import GRAPH_CENSUS

# sha256 of the census as graph6 bytes, b"".join(graph6_encode(g) for g in
# generate_connection_graphs(c)), recorded from the generator before its
# search and codec were rewritten: any byte they move shows here
CENSUS_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "3ebd7fe1ad9b16c3c1a4da758bcb89ff7ca7f06fde3dcaee7226a102dee0f185",
    3: "a8cfec086c6ea41e8e4bfb09e30e18ca0a2f5637ab4b1f1be43623ce739788cf",
    4: "34ef9804af988c340fefe1af4401a3130527c7eb7fbd74f561938a964363e7a7",
    5: "3b3f9d370fecb275b137b7953585b6ce686500bab0b8cdbf2c8b0f25210e15f2",
    6: "2f3432b33b09b5bc15e8a552166c8e1a272721f864c99ec75c46f41659ec7c8e",
    7: "3719b507440be73a2411365ec6c4ab9a21dad47bc592b66bd02a09569eeaf0f0",
}


def census_sha256(graphs):
    return hashlib.sha256(b"".join(rank3.graph6_encode(g) for g in graphs)).hexdigest()


@st.composite
def bicolored_graphs(draw):
    """Any coatom/connector split of at most 62 vertices, any neighbourhoods."""
    c = draw(st.integers(0, 62))
    r = draw(st.integers(0, 62 - c))
    masks = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    return rank3.BicoloredGraph(c, masks)


def map_mask(mask, perm):
    """Oracle: the image of a coatom mask under a relabelling, bit by bit."""
    return sum(1 << image for i, image in enumerate(perm) if mask >> i & 1)


def all_coatom_perms(graph):
    """Oracle: full permutation scan for the coatom automorphisms."""
    target = sorted(graph.connector_masks)
    found = []
    for perm in itertools.permutations(range(graph.coatom_count)):
        mapped = sorted(map_mask(m, perm) for m in graph.connector_masks)
        if mapped == target:
            found.append(perm)
    return set(found)


def relabeled(graph, rng):
    """A random coatom relabeling plus connector shuffle of the same graph."""
    perm = list(range(graph.coatom_count))
    rng.shuffle(perm)
    masks = [map_mask(m, perm) for m in graph.connector_masks]
    rng.shuffle(masks)
    return rank3.BicoloredGraph(graph.coatom_count, masks)


class TestConstruction:
    def test_from_index_sets(self):
        g = rank3.BicoloredGraph(3, [{0, 1}, {1, 2}])
        assert g.coatom_count == 3
        assert g.connector_count == 2
        assert g.connector_masks == (0b011, 0b110)

    def test_from_masks(self):
        g = rank3.BicoloredGraph(3, (0b011, 0b110))
        assert g == rank3.BicoloredGraph(3, [{0, 1}, {1, 2}])

    def test_neighborhoods(self):
        g = rank3.BicoloredGraph(4, [{0, 2}, {1, 2, 3}])
        assert g.neighborhood(0) == frozenset({0, 2})
        assert g.neighborhoods() == (frozenset({0, 2}), frozenset({1, 2, 3}))

    def test_rejects_bad_coatom_index(self):
        with pytest.raises(ValueError):
            rank3.BicoloredGraph(3, [{0, 3}])
        with pytest.raises(ValueError):
            rank3.BicoloredGraph(3, (0b1000,))

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            rank3.BicoloredGraph(-1, [])

    def test_hash_and_eq(self):
        a = rank3.BicoloredGraph(3, [{0, 1}])
        b = rank3.BicoloredGraph(3, [{0, 1}])
        c = rank3.BicoloredGraph(3, [{0, 2}])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_pickle_roundtrip(self, graphs_by_c):
        import pickle

        graphs = [rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}]), rank3.BicoloredGraph(0)]
        for g in graphs + [g for c in range(1, 5) for g in graphs_by_c[c]]:
            assert pickle.loads(pickle.dumps(g)) == g


class TestValidation:
    def test_valid_graph_passes(self):
        rank3.validate_connection_graph(rank3.BicoloredGraph(4, [{0, 1}, {2, 3}]))

    def test_rejects_small_connector(self):
        with pytest.raises(ValueError):
            rank3.validate_connection_graph(rank3.BicoloredGraph(3, [{0}]))

    def test_rejects_overlapping_pair(self):
        g = rank3.BicoloredGraph(3, [{0, 1}, {0, 1, 2}])
        with pytest.raises(ValueError):
            rank3.validate_connection_graph(g)

    def test_rejects_too_many_connectors(self):
        # two coatoms admit at most one connector
        g = rank3.BicoloredGraph(2, [{0, 1}, {0, 1}])
        with pytest.raises(ValueError):
            rank3.validate_connection_graph(g)

    def test_census_graphs_all_valid(self, graphs_by_c):
        for graphs in graphs_by_c.values():
            for g in graphs:
                rank3.validate_connection_graph(g)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, graphs_by_c):
        rng = random.Random(20240817)
        triples = 0
        for c in range(1, 6):
            for g in graphs_by_c[c]:
                form = rank3.canonical_form(g)
                for _ in range(11):
                    assert rank3.canonical_form(relabeled(g, rng)) == form
                    triples += 1
        assert triples >= 1000

    def test_distinct_graphs_distinct_forms(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            forms = {rank3.canonical_form(g) for g in graphs}
            assert len(forms) == len(graphs)

    def test_canonicalize_idempotent(self, graphs_by_c):
        for g in graphs_by_c[5]:
            canon = rank3.canonicalize(g)
            assert rank3.canonicalize(canon) == canon
            assert rank3.canonical_form(canon) == rank3.canonical_form(g)

    def test_canonicalize_preserves_structure(self, graphs_by_c):
        for g in graphs_by_c[5]:
            canon = rank3.canonicalize(g)
            assert canon.coatom_count == g.coatom_count
            assert (sorted(m.bit_count() for m in canon.connector_masks)
                    == sorted(m.bit_count() for m in g.connector_masks))

    def test_exhaustive_agreement_with_full_scan(self):
        # on all labeled 3-coatom graphs the restricted search must pick
        # a form constant on, and separating, full-scan orbits
        pool = [m for m in range(8) if m.bit_count() >= 2]
        seen = {}
        for r in range(0, 4):
            for masks in itertools.combinations(pool, r):
                if any(
                    (x & y).bit_count() > 1
                    for x, y in itertools.combinations(masks, 2)
                ):
                    continue
                full = min(
                    tuple(sorted(map_mask(m, p) for m in masks))
                    for p in itertools.permutations(range(3))
                ) if masks else ()
                restricted = _canonical_masks(3, masks)
                assert restricted not in seen or seen[restricted] == full
                seen[restricted] = full
        assert len(seen) == len(set(seen.values())) == GRAPH_CENSUS[3]

    def test_color_split_disambiguation(self):
        # identical underlying adjacency (three isolated vertices) under
        # three different coatom/connector splits: the graph6 lines agree,
        # so the form must embed the split to keep the graphs apart
        splits = [
            rank3.BicoloredGraph(3, []),
            rank3.BicoloredGraph(2, [set()]),
            rank3.BicoloredGraph(1, [set(), set()]),
        ]
        lines = {rank3.graph6_encode(rank3.canonicalize(g)) for g in splits}
        assert lines == {b"B?\n"}
        forms = {rank3.canonical_form(g) for g in splits}
        assert len(forms) == 3


class TestAutomorphisms:
    def test_path_graph_group(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {1, 2}, {2, 3}])
        grp = rank3.automorphism_group_on_coatoms(g)
        assert grp.order == 2
        assert set(grp.elements) == {(0, 1, 2, 3), (3, 2, 1, 0)}

    def test_two_disjoint_edges_group(self):
        g = rank3.BicoloredGraph(4, [{0, 1}, {2, 3}])
        grp = rank3.automorphism_group_on_coatoms(g)
        assert grp.order == 8  # dihedral: swap within and across the pairs

    def test_matches_full_permutation_scan(self, graphs_by_c):
        for c in range(1, 6):
            for g in graphs_by_c[c]:
                grp = rank3.automorphism_group_on_coatoms(g)
                assert set(grp.elements) == all_coatom_perms(g)

    def test_group_closure_and_identity(self, graphs_by_c):
        for g in graphs_by_c[4]:
            grp = rank3.automorphism_group_on_coatoms(g)
            elems = set(grp.elements)
            assert tuple(range(4)) in elems
            for p in elems:
                for q in elems:
                    assert tuple(p[q[i]] for i in range(4)) in elems

    def test_identity_first(self, graphs_by_c):
        for c in range(1, 7):
            for g in graphs_by_c[c]:
                grp = rank3.automorphism_group_on_coatoms(g)
                assert grp.elements[0] == tuple(range(c))

    def test_permgroup_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rank3.PermGroup(2, [(0, 0)])
        with pytest.raises(ValueError):
            rank3.PermGroup(2, [(0, 1, 2)])


class TestGraph6:
    def test_known_encodings(self):
        # single coatom-connector edge
        assert rank3.graph6_encode(rank3.BicoloredGraph(1, [{0}])) == b"A_\n"
        # three isolated coatoms
        assert rank3.graph6_encode(rank3.BicoloredGraph(3, [])) == b"B?\n"
        # one connector joining both coatoms: edges (0,2) and (1,2)
        assert rank3.graph6_encode(rank3.BicoloredGraph(2, [{0, 1}])) == b"BW\n"

    def test_roundtrip_census(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            for g in graphs:
                line = rank3.graph6_encode(g)
                back = rank3.graph6_decode(line, c, g.connector_count)
                assert back == g

    @settings(max_examples=300, deadline=None)
    @given(bicolored_graphs(), st.data())
    def test_roundtrip_and_edge_inside_class(self, g, data):
        c, r = g.coatom_count, g.connector_count
        line = rank3.graph6_encode(g)
        assert rank3.graph6_decode(line, c, r) == g
        # add one edge (u, v) within the coatoms or within the connectors
        classes = [(start, size) for start, size in ((0, c), (c, r)) if size >= 2]
        if not classes:
            return
        start, size = data.draw(st.sampled_from(classes))
        u, v = sorted(data.draw(st.lists(st.integers(start, start + size - 1),
                                         min_size=2, max_size=2, unique=True)))
        k = v * (v - 1) // 2 + u
        bad = bytearray(line)
        bad[1 + k // 6] = 63 + ((bad[1 + k // 6] - 63) | 1 << (5 - k % 6))
        with pytest.raises(rank3.ClassViolationError, match=r"edge \(%d, %d\)" % (u, v)):
            rank3.graph6_decode(bytes(bad), c, r)

    def test_census_bytes_unchanged(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            assert census_sha256(graphs) == CENSUS_SHA256[c]

    def test_seven_coatom_census_bytes_unchanged(self, graphs_c7):
        assert census_sha256(graphs_c7) == CENSUS_SHA256[7]

    def test_decode_accepts_str_and_stripped(self):
        g = rank3.BicoloredGraph(2, [{0, 1}])
        assert rank3.graph6_decode("BW", 2, 1) == g
        assert rank3.graph6_decode(b"BW\r\n", 2, 1) == g

    def test_size_mismatch(self):
        with pytest.raises(rank3.SizeMismatchError):
            rank3.graph6_decode(b"BW\n", 3, 1)

    def test_class_violation_coatom_edge(self):
        # triangle on 3 vertices has a coatom-coatom edge under any split
        with pytest.raises(rank3.ClassViolationError):
            rank3.graph6_decode(b"Bw\n", 2, 1)

    def test_class_violation_connector_edge(self):
        # sole edge (1,2) joins the two connectors when c = 1
        with pytest.raises(rank3.ClassViolationError):
            rank3.graph6_decode(b"BG\n", 1, 2)

    def test_malformed_lines(self):
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"", 1, 1)
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"~??", 1, 1)  # long-form header
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"B", 2, 1)  # payload missing
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"BWW", 2, 1)  # payload too long
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"B\x1f", 2, 1)  # byte below printable range

    def test_nonzero_padding_rejected(self):
        # "BW" has payload bits 011000; flip a padding bit: 011001 -> 'Y'
        with pytest.raises(rank3.Graph6Error):
            rank3.graph6_decode(b"BY", 2, 1)

    def test_encode_size_limit(self):
        g = rank3.BicoloredGraph(61, [{0, 1}, {2, 3}])
        with pytest.raises(rank3.UnsupportedSizeError):
            rank3.graph6_encode(g)
