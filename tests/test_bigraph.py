"""Bicolored graphs: construction, canonical forms, automorphisms, graph6."""

import copy
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3
from rank3.bigraph import _coatom_search

from oracles import labelled_connection_families, map_mask, plain_validate_connection_graph
from reference_values import GRAPH_CENSUS

# sha256 of the census as graph6 bytes, b"".join(graph6_encode(g) for g in
# generate_connection_graphs(c)), recorded from the generator before its
# search and codec were rewritten: any byte they move shows here; c = 8,
# recorded before the orbit pruning, is checked by the slow census test
CENSUS_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "3ebd7fe1ad9b16c3c1a4da758bcb89ff7ca7f06fde3dcaee7226a102dee0f185",
    3: "a8cfec086c6ea41e8e4bfb09e30e18ca0a2f5637ab4b1f1be43623ce739788cf",
    4: "34ef9804af988c340fefe1af4401a3130527c7eb7fbd74f561938a964363e7a7",
    5: "3b3f9d370fecb275b137b7953585b6ce686500bab0b8cdbf2c8b0f25210e15f2",
    6: "2f3432b33b09b5bc15e8a552166c8e1a272721f864c99ec75c46f41659ec7c8e",
    7: "3719b507440be73a2411365ec6c4ab9a21dad47bc592b66bd02a09569eeaf0f0",
    8: "1dfb89458efd839726338966c8aba173a7546215ac76c2011165bc02bac7cc3f",
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


def all_coatom_perms(graph):
    """Oracle: full permutation scan for the coatom automorphisms."""
    target = sorted(graph.connector_masks)
    found = []
    for perm in itertools.permutations(range(graph.coatom_count)):
        mapped = sorted(map_mask(m, perm) for m in graph.connector_masks)
        if mapped == target:
            found.append(perm)
    return set(found)


def plain_coatom_search(c, masks):
    """Oracle: the coatom search without its shortcuts.  Refine until the
    class counts stop growing, then try every order of every class in
    colour order and map each mask bit by bit."""
    members = [[i for i in range(c) if m >> i & 1] for m in masks]
    coat, conn = [0] * c, [len(mem) for mem in members]
    n_classes = (1, len(set(conn)))
    while True:
        coat_sig = [(coat[i], tuple(sorted(conn[j] for j, mem in enumerate(members)
                                           if i in mem))) for i in range(c)]
        coat = [sorted(set(coat_sig)).index(s) for s in coat_sig]
        conn_sig = [(conn[j], tuple(sorted(coat[i] for i in mem)))
                    for j, mem in enumerate(members)]
        conn = [sorted(set(conn_sig)).index(s) for s in conn_sig]
        if (len(set(coat)), len(set(conn))) == n_classes:
            break
        n_classes = (len(set(coat)), len(set(conn)))
    classes = [[i for i in range(c) if coat[i] == k] for k in range(len(set(coat)))]
    best, winners = None, []
    for choice in itertools.product(*map(itertools.permutations, classes)):
        perm = [0] * c
        for image, i in enumerate(itertools.chain.from_iterable(choice)):
            perm[i] = image
        mapped = tuple(sorted(map_mask(m, perm) for m in masks))
        if best is None or mapped < best:
            best, winners = mapped, [tuple(perm)]
        elif mapped == best:
            winners.append(tuple(perm))
    return best, winners


def plain_graph6_encode(graph):
    """Oracle: graph6 encoded through a "0"/"1" string of the upper triangle."""
    c = graph.coatom_count
    masks = graph.connector_masks
    n = c + len(masks)
    if n > 62:
        raise rank3.UnsupportedSizeError("graph6 short form limited to 62 vertices, got %d" % n)
    # coatom rows are empty; connector row c + j is its mask, lowest bit
    # first, then j zeros for the earlier connectors
    bits = "0" * (c * (c - 1) // 2) + "".join(
        [bin(m | 1 << c)[:2:-1] + "0" * j for j, m in enumerate(masks)])
    bits += "0" * (-len(bits) % 6)
    return bytes([63 + n] + [63 + int(bits[k:k + 6], 2)
                             for k in range(0, len(bits), 6)]) + b"\n"


def plain_graph6_decode(line, coatom_count, connector_count):
    """Oracle: graph6 decoded through a "0"/"1" string of the upper triangle,
    with the same checks in the same order."""
    if isinstance(line, str):
        line = line.encode("ascii")
    data = line.rstrip(b"\r\n")
    if not data:
        raise rank3.Graph6Error("empty graph6 line")
    if data[0] == 126:
        raise rank3.Graph6Error("extended graph6 size forms are not supported")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise rank3.Graph6Error("bad graph6 size byte %r" % data[0:1])
    if n != coatom_count + connector_count:
        raise rank3.SizeMismatchError("encoding has %d vertices, expected %d + %d"
                                      % (n, coatom_count, connector_count))
    if connector_count < 0:
        raise ValueError("connector count must be nonnegative")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise rank3.Graph6Error("expected %d payload bytes, got %d" % (nbytes, len(data) - 1))
    for byte in data[1:]:
        if not 63 <= byte <= 126:
            raise rank3.Graph6Error("byte %r outside graph6 range" % bytes([byte]))
    bits = "".join([format(byte - 63, "06b") for byte in data[1:]])
    if "1" in bits[nbits:]:
        raise rank3.Graph6Error("nonzero padding bits")
    c = coatom_count
    masks = []
    for v in range(n):
        # row v holds the pairs (u, v) for u < v; an edge is allowed only
        # from a connector row (v >= c) to a coatom column (u < c)
        row = bits[v * (v - 1) // 2:v * (v + 1) // 2]
        u = row.find("1", c if 0 <= c <= v else 0)
        if u >= 0:
            raise rank3.ClassViolationError(
                "edge (%d, %d) lies inside one colour class" % (u, v))
        if v >= c:
            masks.append(int("0" + row[:c][::-1], 2))
    return rank3.BicoloredGraph(c, masks)


def outcome(fn, *args):
    """What fn(*args) returns, or the class and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def damaged_graph6_lines(draw):
    """A graph6 line with one or two byte or bit faults, most often a flipped
    payload bit, declared with its own split or a moved or wrong one."""
    g = draw(bicolored_graphs())
    line = bytearray(rank3.graph6_encode(g).rstrip(b"\n"))
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(["bit"] * 4 + ["byte", "padding", "long", "cut", "extend"]))
        if fault == "extend" or not line:
            line += bytes(draw(st.lists(st.integers(0, 255), min_size=1, max_size=3)))
            continue
        at = draw(st.integers(0, len(line) - 1))
        if fault == "bit" and at > 0:
            line[at] = (63 + ((line[at] - 63) ^ 1 << draw(st.integers(0, 5)))) % 256
        elif fault == "byte":
            line[at] = draw(st.integers(0, 255))
        elif fault == "padding" and len(line) > 1:
            line[-1] = (63 + ((line[-1] - 63) | 1)) % 256
        elif fault == "long":
            line[0] = 126
        elif fault == "cut":
            del line[at:]
    dc, dr = draw(st.sampled_from([(0, 0)] * 4 + [(-2, 2), (-1, 1), (1, -1), (2, -2), (1, 0),
                                                  (0, -1)]))
    c, r = g.coatom_count + dc, g.connector_count + dr
    return bytes(line) + draw(st.sampled_from([b"", b"\n", b"\r\n"])), c, r


@st.composite
def damaged_families(draw):
    """A family of pairwise compatible connector masks on up to 8 coatoms
    with up to two faults inserted anywhere: copies of its own masks or
    arbitrary masks, which may be too small or share a coatom pair."""
    c = draw(st.integers(0, 8))
    family = []
    for m in draw(st.lists(st.integers(0, (1 << c) - 1), max_size=40)):
        if m.bit_count() >= 2 and all((m & x).bit_count() <= 1 for x in family):
            family.append(m)
    for _ in range(draw(st.integers(0, 2))):
        copy = family and draw(st.booleans())
        fault = draw(st.sampled_from(family) if copy else st.integers(0, (1 << c) - 1))
        family.insert(draw(st.integers(0, len(family))), fault)
    return rank3.BicoloredGraph(c, family)


def asymmetric_family(c):
    """A path on c coatoms with a triangle at one end, plus a 3-set and a
    pair: every coatom covered, no nontrivial automorphism."""
    path = [0b11 << i for i in range(c - 1)]
    return path + [0b101, 1 | 1 << 3 | 1 << 6, 1 << 1 | 1 << 4]


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

    @settings(max_examples=500, deadline=None)
    @given(damaged_families())
    def test_equals_pairwise_oracle_on_damage(self, g):
        # the same first error, message included, as comparing every pair
        assert (outcome(rank3.validate_connection_graph, g)
                == outcome(plain_validate_connection_graph, g))


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
        seen = {}
        for masks in labelled_connection_families(3):
            full = min(
                tuple(sorted(map_mask(m, p) for m in masks))
                for p in itertools.permutations(range(3))
            ) if masks else ()
            restricted = rank3.canonicalize(rank3.BicoloredGraph(3, masks)).connector_masks
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


class TestSymmetricShortcut:
    """bigraph._symmetric names the graphs S_c maps onto themselves, which
    canonicalize gives their sorted masks with no search; any other graph
    is searched."""

    @staticmethod
    def _searched(monkeypatch):
        """The masks bigraph._coatom_search is called with, appended as it runs."""
        search, searched = rank3.bigraph._coatom_search, []

        def counting(c, masks):
            searched.append(masks)
            return search(c, masks)

        monkeypatch.setattr(rank3.bigraph, "_coatom_search", counting)
        return searched

    @pytest.mark.parametrize("c", range(1, 10))
    def test_symmetric_graphs_unsearched(self, monkeypatch, c):
        # the bare coatoms, the full connector and all coatom pairs, in given,
        # reversed and shuffled order; at c = 9 a search of the last two took
        # 0.56 s and 1.12 s
        pairs = tuple(1 << i | 1 << k for i in range(c) for k in range(i))
        rng = random.Random(c)
        families = [(), ((1 << c) - 1,), pairs]
        searched = self._searched(monkeypatch)
        for fam in families:
            want = tuple(sorted(fam))
            key = bytes([63 + c]) + rank3.graph6_encode(rank3.BicoloredGraph(c, want))[:-1]
            for masks in (fam, fam[::-1], tuple(rng.sample(fam, len(fam)))):
                g = rank3.BicoloredGraph(c, masks)
                assert rank3.bigraph._symmetric(c, masks)
                assert rank3.canonicalize(g).connector_masks == want
                assert rank3.canonical_form(g) == key
        assert searched == []
        if c <= 7:
            # the search's own answer
            assert all(plain_coatom_search(c, fam)[0] == tuple(sorted(fam)) for fam in families)

    @pytest.mark.parametrize("c", range(3, 8))
    def test_near_misses_searched(self, monkeypatch, c):
        pairs = tuple(1 << i | 1 << k for i in range(c) for k in range(i))
        full = (1 << c) - 1
        near = [pairs[:-1] + pairs[:1],    # one pair twice, one missing
                pairs[:-1] + (0b111,),     # one pair replaced by a 3-set
                (full, full),
                (full, 0b11)]
        searched = self._searched(monkeypatch)
        for masks in near:
            assert not rank3.bigraph._symmetric(c, masks)
            g = rank3.BicoloredGraph(c, masks)
            assert rank3.canonicalize(g).connector_masks == plain_coatom_search(c, masks)[0]
        assert searched == near


class TestCoatomSearch:
    """The search returns the oracle's canonical masks and winners, in order."""

    def test_all_labelled_graphs_to_five(self):
        # inputs that do not come from the search: every labelling, in
        # every class structure, with the connectors in mask order
        for c, labelled in [(1, 1), (2, 2), (3, 9), (4, 97), (5, 2625)]:
            graphs = list(labelled_connection_families(c))
            assert len(graphs) == labelled
            for masks in graphs:
                assert _coatom_search(c, masks) == plain_coatom_search(c, masks), masks

    def test_census_and_relabelings_to_six(self, graphs_by_c):
        rng = random.Random(20261018)
        for c in range(1, 7):
            assert len(graphs_by_c[c]) == GRAPH_CENSUS[c]
            for g in graphs_by_c[c]:
                for h in [g] + [relabeled(g, rng) for _ in range(3)]:
                    assert (_coatom_search(c, h.connector_masks)
                            == plain_coatom_search(c, h.connector_masks)), h

    def test_seven_coatom_census(self, graphs_c7):
        assert len(graphs_c7) == GRAPH_CENSUS[7]
        for g in graphs_c7:
            assert (_coatom_search(7, g.connector_masks)
                    == plain_coatom_search(7, g.connector_masks)), g

    @pytest.mark.parametrize("c", [9, 16, 17, 32, 33, 62, 64])
    def test_every_lane_width(self, c):
        # either side of each lane width, 8, 16, 32 and 64 bits
        g = rank3.BicoloredGraph(c, asymmetric_family(c))
        rng = random.Random(c)
        for h in [g] + [relabeled(g, rng) for _ in range(3)]:
            assert (_coatom_search(c, h.connector_masks)
                    == plain_coatom_search(c, h.connector_masks)), h

    def test_repeated_and_small_connectors(self):
        # canonical_form takes any graph; with repeats a colour's
        # multiplicity can exceed c, and the refinement's integer keys
        # must still order as the sorted colour tuples
        for masks in ([38, 49, 26, 23, 38, 50, 29, 10, 10, 38, 63, 49, 38],
                      [24, 5, 35, 3, 4, 4, 59, 32, 25, 21, 40, 24, 9, 59, 3, 3, 3, 58],
                      [21, 21, 9, 21, 26, 35, 26, 38, 40, 1, 21, 1, 26, 1, 47]):
            assert _coatom_search(6, masks) == plain_coatom_search(6, masks), masks

    def test_more_than_64_coatoms_rejected(self):
        with pytest.raises(rank3.UnsupportedSizeError):
            _coatom_search(65, asymmetric_family(65))


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

    def test_symmetric_graphs_get_s_c_unsearched(self, monkeypatch):
        # the bare coatoms, the one connector on all six and the fifteen
        # pairs: S_6, listed without the search and its 720 winners
        def no_search(c, masks):
            raise AssertionError("searched %r" % (masks,))

        monkeypatch.setattr(rank3.bigraph, "_coatom_search", no_search)
        pairs = [{i, k} for i in range(6) for k in range(i)]
        for neighborhoods in [], [set(range(6))], pairs:
            grp = rank3.automorphism_group_on_coatoms(rank3.BicoloredGraph(6, neighborhoods))
            assert grp.order == 720
            assert grp.elements[0] == tuple(range(6))
            assert rank3.cycle_index(grp) == rank3.polya.symmetric_cycle_index(6)

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

    def test_encoder_equals_string_oracle_on_census(self, graphs_by_c, graphs_c7):
        for g in itertools.chain(*graphs_by_c.values(), graphs_c7):
            assert rank3.graph6_encode(g) == plain_graph6_encode(g), g

    @settings(max_examples=300, deadline=None)
    @given(bicolored_graphs())
    def test_encoder_equals_string_oracle(self, g):
        assert rank3.graph6_encode(g) == plain_graph6_encode(g)

    @pytest.mark.parametrize("c", [0, 1, 2, 7, 31, 61, 62])
    def test_encoder_equals_string_oracle_at_size_limit(self, c):
        # 62 vertices is the largest short form; both encoders refuse 63
        rng = random.Random(c)
        masks = [rng.randrange(1 << c) for _ in range(63 - c)]
        largest = rank3.BicoloredGraph(c, masks[1:])
        assert rank3.graph6_encode(largest) == plain_graph6_encode(largest)
        for encode in (rank3.graph6_encode, plain_graph6_encode):
            with pytest.raises(rank3.UnsupportedSizeError, match="got 63"):
                encode(rank3.BicoloredGraph(c, masks))

    def test_decoder_equals_string_oracle_on_census(self, graphs_by_c):
        for c, graphs in graphs_by_c.items():
            for g in graphs:
                line, r = rank3.graph6_encode(g), g.connector_count
                assert rank3.graph6_decode(line, c, r) == plain_graph6_decode(line, c, r) == g

    def test_decoded_graphs_equal_constructed(self, graphs_by_c, graphs_c7):
        # the decoder and the generator skip __init__'s checks: their graphs
        # must be those __init__ builds, down to hashes, pickles and copies
        for c, graphs in {**graphs_by_c, 7: graphs_c7}.items():
            for g in graphs:
                line, r = rank3.graph6_encode(g), g.connector_count
                built = rank3.BicoloredGraph(c, list(g.connector_masks))
                for made in (rank3.graph6_decode(line, c, r), g):
                    assert type(made) is rank3.BicoloredGraph
                    assert type(made.connector_masks) is tuple
                    assert all(type(m) is int for m in made.connector_masks)
                    assert made == built and hash(made) == hash(built)
                    for twin in (pickle.loads(pickle.dumps(made)), copy.copy(made),
                                 copy.deepcopy(made)):
                        assert type(twin) is rank3.BicoloredGraph
                        assert (twin.coatom_count, twin.connector_masks) == \
                            (c, built.connector_masks)
        # a negative coatom count still meets the constructor's check
        line = rank3.graph6_encode(rank3.BicoloredGraph(0, [0, 0]))
        with pytest.raises(ValueError) as info:
            rank3.graph6_decode(line, -1, 3)
        assert type(info.value) is ValueError
        assert str(info.value) == "coatom count must be nonnegative"

    def test_decoder_equals_string_oracle_at_every_length(self):
        # the decoder packs the payload in log2 of its length mask steps:
        # every vertex count, a few splits, seeded random legal triangles
        for n in range(63):
            rng = random.Random(n)
            nbits = n * (n - 1) // 2
            for c in sorted({0, min(1, n), n // 2, max(n - 1, 0), n}):
                for _ in range(4):
                    g = rank3.BicoloredGraph(c, [rng.randrange(1 << c) for _ in range(n - c)])
                    line = plain_graph6_encode(g)
                    assert rank3.graph6_decode(line, c, n - c) == \
                        plain_graph6_decode(line, c, n - c) == g, (n, c)
                    if nbits % 6:
                        # one of the last payload byte's padding bits set
                        bit = 1 << rng.randrange(6 - nbits % 6)
                        padded = line[:-2] + bytes([63 + ((line[-2] - 63) | bit)]) + b"\n"
                        assert outcome(rank3.graph6_decode, padded, c, n - c) == \
                            outcome(plain_graph6_decode, padded, c, n - c) == \
                            (rank3.Graph6Error, "nonzero padding bits"), (n, c)

    @settings(max_examples=500, deadline=None)
    @given(damaged_graph6_lines())
    def test_decoder_equals_string_oracle_on_damage(self, case):
        line, c, r = case
        assert (outcome(rank3.graph6_decode, line, c, r)
                == outcome(plain_graph6_decode, line, c, r))

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

    @pytest.mark.parametrize("line, c, r", [(b"C?\n", 5, -1), (b"BW\n", 5, -2), (b"?\n", 1, -1)],
                             ids=["bare-coatoms", "one-connector", "no-vertex"])
    def test_negative_connector_count_rejected(self, line, c, r):
        # c + r is the line's vertex count, so the size check alone took each
        # line as a graph on c coatoms with no connector
        with pytest.raises(ValueError) as info:
            rank3.graph6_decode(line, c, r)
        assert type(info.value) is ValueError
        assert str(info.value) == "connector count must be nonnegative"

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
