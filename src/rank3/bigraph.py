"""Bicolored coatom/connector graphs with exact isomorphism machinery.

A connection graph records how the atoms of a graded rank-3 lattice that
lie under two or more coatoms ("connectors") attach to the coatoms.
Coatoms are labelled 0..c-1 and every connector is identified with its
coatom neighbourhood, stored as a bitmask over the coatom labels.

The module provides the graph type itself, validity checking for the
connection-graph invariants, a colour-respecting canonical form and the
automorphism action restricted to the coatoms (both from one search over
coatom relabellings, which reads each connector once as the tuple of
coatoms it covers), and graph6 interchange with other tools (coded
through a "0"/"1" string of the adjacency matrix's upper triangle).
"""

import functools
import itertools

Permutation = tuple[int, ...]


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class SizeMismatchError(Graph6Error):
    """Vertex count of the encoding differs from the declared class sizes."""


class ClassViolationError(Graph6Error):
    """Encoded graph has an edge inside a single colour class."""


class UnsupportedSizeError(ValueError):
    """Graph too large for the short graph6 form (more than 62 vertices)."""


class PermGroup:
    """Permutation group on {0..degree-1} stored as an explicit element list.

    Elements are permutations in array form: ``p[i]`` is the image of ``i``.
    The groups produced here are tiny (subgroups of S_c for c <= 9), so an
    explicit list is both the simplest and the most convenient shape for
    cycle-index computations, which iterate every element anyway.
    """

    __slots__ = ("degree", "elements")

    def __init__(self, degree: int, elements):
        self.degree = degree
        self.elements = tuple(tuple(p) for p in elements)
        for p in self.elements:
            if sorted(p) != list(range(degree)):
                raise ValueError("not a permutation of 0..%d: %r" % (degree - 1, p))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, len(self.elements))


class BicoloredGraph:
    """Bipartite graph on coatoms {0..c-1} and connectors {0..r-1}.

    Connectors carry no identity beyond their neighbourhood; the stored
    order only matters for graph6 round-trips.  Neighbourhoods are kept
    as bitmasks (bit i = coatom i).  Instances are treated as immutable.
    """

    __slots__ = ("coatom_count", "connector_masks")

    def __init__(self, coatom_count: int, neighborhoods=()):
        if coatom_count < 0:
            raise ValueError("coatom count must be nonnegative")
        masks = []
        for nb in neighborhoods:
            if isinstance(nb, int):
                mask = nb
                if mask < 0 or mask >> coatom_count:
                    raise ValueError("neighborhood mask %r out of range for %d coatoms"
                                     % (nb, coatom_count))
            else:
                mask = 0
                for i in nb:
                    if not 0 <= i < coatom_count:
                        raise ValueError("coatom index %r out of range for %d coatoms"
                                         % (i, coatom_count))
                    mask |= 1 << i
            masks.append(mask)
        self.coatom_count = coatom_count
        self.connector_masks = tuple(masks)

    @property
    def connector_count(self) -> int:
        return len(self.connector_masks)

    def neighborhood(self, j: int) -> frozenset:
        return frozenset(_members(self.connector_masks[j]))

    def neighborhoods(self) -> tuple:
        return tuple(self.neighborhood(j) for j in range(len(self.connector_masks)))

    def __eq__(self, other):
        if not isinstance(other, BicoloredGraph):
            return NotImplemented
        return (self.coatom_count == other.coatom_count
                and self.connector_masks == other.connector_masks)

    def __hash__(self):
        return hash((self.coatom_count, self.connector_masks))

    def __repr__(self):
        nbs = [_members(m) for m in self.connector_masks]
        return "BicoloredGraph(%d, %r)" % (self.coatom_count, nbs)


def validate_connection_graph(graph: BicoloredGraph) -> None:
    """Raise ValueError unless the graph satisfies all connection-graph
    invariants.

    Every connector must cover at least two coatoms, two connectors may
    share at most one coatom (this also forces distinct neighbourhoods),
    and consequently at most c(c-1)/2 connectors fit on c coatoms.
    """
    c = graph.coatom_count
    masks = graph.connector_masks
    if len(masks) > c * (c - 1) // 2:
        raise ValueError("%d connectors exceed the maximum %d for %d coatoms"
                         % (len(masks), c * (c - 1) // 2, c))
    for j, m in enumerate(masks):
        if m.bit_count() < 2:
            raise ValueError("connector %d covers fewer than two coatoms" % j)
        for k in range(j):
            if (m & masks[k]).bit_count() > 1:
                raise ValueError(
                    "connectors %d and %d share more than one coatom" % (k, j))


# -- isomorphism machinery ---------------------------------------------------
#
# Each connector is read once as its member tuple, the coatoms it covers.
# Refinement over that incidence splits the coatoms into classes that no
# colour-preserving isomorphism can mix.  One search then tries every
# order of every class (tiny for all but the most symmetric graphs),
# chains the orders in colour order and relabels each coatom by its index
# in the chain, so each class goes onto its own run of positions.  It maps
# the member tuples through the relabelling's powers of two and keeps the
# least sorted mask tuple, the canonical form, with every relabelling that
# attains it.  Those form a coset p0 Aut: an automorphism s fixes each
# class setwise, so p0 s attains the minimum too, and q(M) = p0(M) gives
# p0^-1 q(M) = M.  So the same search also yields the automorphisms.


@functools.cache
def _members(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending (cached: immutable, and a
    census on c coatoms has at most 2^c distinct masks)."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _coatom_search(c: int, masks) -> tuple[tuple[int, ...], list[Permutation]]:
    """The least sorted mapped mask tuple over the class orders, and every
    relabelling (old label -> new label) attaining it, in enumeration order."""
    members = [_members(m) for m in masks]
    incident = [[] for _ in range(c)]
    for j, mem in enumerate(members):
        for i in mem:
            incident[i].append(j)
    # refine integer colours until the class counts stop growing; ranking
    # by sorted signature keeps the class order label-independent
    coat = [0] * c
    conn = [len(mem) for mem in members]
    n_classes = (1, len(set(conn)))
    while True:
        coat_sig = [(coat[i], tuple(sorted([conn[j] for j in incident[i]])))
                    for i in range(c)]
        rank = {s: k for k, s in enumerate(sorted(set(coat_sig)))}
        coat = [rank[s] for s in coat_sig]
        conn_sig = [(conn[j], tuple(sorted([coat[i] for i in mem])))
                    for j, mem in enumerate(members)]
        rank = {s: k for k, s in enumerate(sorted(set(conn_sig)))}
        conn = [rank[s] for s in conn_sig]
        now = (len(set(coat)), len(set(conn)))
        if now == n_classes:
            break
        n_classes = now
    # the final colours are 0..K-1: classes[k] holds colour k in label order
    classes = [[] for _ in range(n_classes[0])]
    for i, k in enumerate(coat):
        classes[k].append(i)
    best, winners = None, []
    for choice in itertools.product(*map(itertools.permutations, classes)):
        perm = [0] * c
        for image, i in enumerate(itertools.chain.from_iterable(choice)):
            perm[i] = image
        power = [1 << image for image in perm]
        mapped = sorted([sum([power[i] for i in mem]) for mem in members])
        if best is None or mapped < best:
            best, winners = mapped, [tuple(perm)]
        elif mapped == best:
            winners.append(tuple(perm))
    return tuple(best), winners


def _canonical_masks(c: int, masks) -> tuple[int, ...]:
    """Lexicographically least sorted mask tuple over the class bijections."""
    if not masks:
        return ()
    return _coatom_search(c, masks)[0]


def canonicalize(graph: BicoloredGraph) -> BicoloredGraph:
    """Isomorphic copy in canonical labelling, connectors sorted by mask."""
    return BicoloredGraph(
        graph.coatom_count, _canonical_masks(graph.coatom_count, graph.connector_masks))


def canonical_form(graph: BicoloredGraph) -> bytes:
    """Byte-comparable key, equal for two graphs iff they are isomorphic.

    Isomorphism here preserves the colour classes but may relabel coatoms
    and connectors independently.  The key is one byte 63 + c followed by
    the graph6 line (without newline) of the canonically labelled graph;
    the explicit coatom count disambiguates colour splits that happen to
    share an underlying adjacency matrix.
    """
    canon = canonicalize(graph)
    return bytes([63 + graph.coatom_count]) + graph6_encode(canon).rstrip(b"\n")


def _canonical_masks_and_group(graph: BicoloredGraph) -> tuple[tuple[int, ...], PermGroup]:
    """Canonical masks and automorphism_group_on_coatoms, from one search."""
    best, winners = _coatom_search(graph.coatom_count, graph.connector_masks)
    inverse = [0] * graph.coatom_count
    for i, image in enumerate(winners[0]):
        inverse[image] = i
    return best, PermGroup(graph.coatom_count,
                           [tuple(inverse[image] for image in q) for q in winners])


def automorphism_group_on_coatoms(graph: BicoloredGraph) -> PermGroup:
    """Coatom permutations that extend to automorphisms of the graph.

    A coatom permutation extends iff it maps the multiset of connector
    neighbourhoods onto itself; the connector images are then induced by
    neighbourhood matching and carry no extra freedom worth recording.
    The group is read off the canonical search: with p0 the first
    bijection attaining the minimum, the automorphisms are p0^-1 q for
    every attaining q, the identity first.
    """
    return _canonical_masks_and_group(graph)[1]


# -- graph6 ------------------------------------------------------------------
#
# Standard short-form graph6: one byte 63 + n for n <= 62 vertices, then
# the upper triangle of the adjacency matrix in column order (0,1), (0,2),
# (1,2), (0,3), ..., packed six bits per byte, each byte offset by 63,
# zero-padded, newline-terminated.  Coatoms occupy vertex indices 0..c-1
# and connectors c..c+r-1; the (c, r) split travels out of band, here via
# the file naming convention conn_c{c}_r{r}.g6.  Both directions work on
# the upper triangle as a string of "0"/"1" characters, in which row v,
# the pairs (0, v) .. (v-1, v), is the slice [v(v-1)/2, v(v+1)/2).


def graph6_encode(graph: BicoloredGraph) -> bytes:
    """Encode a graph as one newline-terminated graph6 line, coatoms first."""
    c = graph.coatom_count
    masks = graph.connector_masks
    n = c + len(masks)
    if n > 62:
        raise UnsupportedSizeError("graph6 short form limited to 62 vertices, got %d" % n)
    # coatom rows are empty; connector row c + j is its mask, lowest bit
    # first, then j zeros for the earlier connectors
    bits = "0" * (c * (c - 1) // 2) + "".join(
        [bin(m | 1 << c)[:2:-1] + "0" * j for j, m in enumerate(masks)])
    bits += "0" * (-len(bits) % 6)
    return bytes([63 + n] + [63 + int(bits[k:k + 6], 2)
                             for k in range(0, len(bits), 6)]) + b"\n"


def graph6_decode(line: bytes, coatom_count: int, connector_count: int) -> BicoloredGraph:
    """Decode one graph6 line into a graph with the declared colour split.

    Raises SizeMismatchError when the vertex count disagrees with
    coatom_count + connector_count, ClassViolationError when the encoded
    graph has an edge within one colour class, and Graph6Error for any
    malformed encoding (bad characters, wrong length, nonzero padding).
    """
    if isinstance(line, str):
        line = line.encode("ascii")
    data = line.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 line")
    if data[0] == 126:
        raise Graph6Error("extended graph6 size forms are not supported")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise Graph6Error("bad graph6 size byte %r" % data[0:1])
    if n != coatom_count + connector_count:
        raise SizeMismatchError("encoding has %d vertices, expected %d + %d"
                                % (n, coatom_count, connector_count))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise Graph6Error("expected %d payload bytes, got %d" % (nbytes, len(data) - 1))
    for byte in data[1:]:
        if not 63 <= byte <= 126:
            raise Graph6Error("byte %r outside graph6 range" % bytes([byte]))
    bits = "".join([format(byte - 63, "06b") for byte in data[1:]])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    c = coatom_count
    masks = []
    for v in range(n):
        # row v holds the pairs (u, v) for u < v; an edge is allowed only
        # from a connector row (v >= c) to a coatom column (u < c)
        row = bits[v * (v - 1) // 2:v * (v + 1) // 2]
        u = row.find("1", c if 0 <= c <= v else 0)
        if u >= 0:
            raise ClassViolationError(
                "edge (%d, %d) lies inside one colour class" % (u, v))
        if v >= c:
            masks.append(int("0" + row[:c][::-1], 2))
    return BicoloredGraph(c, masks)
