"""Bicolored coatom/connector graphs with exact isomorphism machinery.

A connection graph records how the atoms of a graded rank-3 lattice that
lie under two or more coatoms ("connectors") attach to the coatoms.
Coatoms are labelled 0..c-1 and every connector is identified with its
coatom neighbourhood, stored as a bitmask over the coatom labels.

The module provides the graph type itself, validity checking for the
connection-graph invariants, a colour-respecting canonical form and the
automorphism action restricted to the coatoms (both from one search over
coatom relabellings, which reads each connector once as the tuple of
coatoms it covers), and graph6 interchange with other tools (encoded
and decoded through one integer holding the adjacency matrix's upper
triangle).
"""

import functools
import itertools
import math
import operator
import struct

from .polya import _members, _pairs

Permutation = tuple[int, ...]


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class SizeMismatchError(Graph6Error):
    """Vertex count of the encoding differs from the declared class sizes."""


class ClassViolationError(Graph6Error):
    """Encoded graph has an edge inside a single colour class."""


class UnsupportedSizeError(ValueError):
    """Graph too large for the short graph6 form (more than 62 vertices) or
    for the coatom search (more than 64 coatoms)."""


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


def _from_masks(coatom_count: int, masks: tuple) -> BicoloredGraph:
    """The graph of masks its caller has already bounded, a tuple of ints in
    0..2^c - 1 for c >= 0: it only sets the two slots, without the checks
    of BicoloredGraph.__init__ (the graph6 decoder and the generator)."""
    graph = object.__new__(BicoloredGraph)
    graph.coatom_count = coatom_count
    graph.connector_masks = masks
    return graph


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
    # one OR per connector; only an overlap looks for the earlier connector
    covered = 0
    for j, m in enumerate(masks):
        if m.bit_count() < 2:
            raise ValueError("connector %d covers fewer than two coatoms" % j)
        pairs = _pairs(m)
        if pairs & covered:
            k = next(k for k in range(j) if _pairs(masks[k]) & pairs)
            raise ValueError("connectors %d and %d share more than one coatom" % (k, j))
        covered |= pairs


# -- isomorphism machinery ---------------------------------------------------
#
# Each connector is read once as its member tuple, the coatoms it covers.
# Refinement over that incidence splits the coatoms into classes that no
# colour-preserving isomorphism can mix.  Both sides are kept as ordered
# cells, a member's colour being the number of members in the cells before
# its own, and a round re-sorts only cells of two or more members by the
# multiset of the other side's colours.  As every signature leads with the
# previous colour, this is the order of one global sort.  The first coatom
# round sorts tuples of connector sizes, whose lengths differ; later rounds
# key a member by the integer -Σ W^(c + r - colour), W a power of two above
# every multiplicity, which inside a cell sorts as the colour tuple.  A
# round that splits no cell ends it: the next, on the other side, could not.
#
# One search then tries every order of every class (tiny for all but the
# most symmetric graphs), chains the orders in colour order and relabels
# each coatom by its index in the chain, so each class goes onto its own
# run of positions.  The relabelled masks are the byte lanes of one
# integer, connector j in lane j, and a coatom sent to position p adds its
# connectors' lane bits shifted by p.  The singletons make one base integer
# and each order of a larger class one more, so an order costs an OR per
# larger class and a sort of the unpacked lanes.  The search keeps the
# least sorted mask tuple, the canonical form, with every relabelling that
# attains it.  Those form a coset p0 Aut: an automorphism s fixes each
# class setwise, so p0 s attains the minimum too, and q(M) = p0(M) gives
# p0^-1 q(M) = M.  So the same search also yields the automorphisms, and
# _canonical, its one caller, hands out the form, p0 and the group.


@functools.cache
def _lanes(c: int, r: int):
    """The lane width in bits for a search on c coatoms, the narrowest of 8,
    16, 32 and 64 that holds c bits, and the unpacker of r such lanes."""
    for lane, fmt in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
        if c <= lane:
            return lane, struct.Struct("<%d%s" % (r, fmt)).unpack
    raise UnsupportedSizeError("coatom search limited to 64 coatoms, got %d" % c)


def _split(cells, key, weight, pw) -> list[list[int]]:
    """Split each cell of two or more members by ascending key, label order
    kept inside each part, and weigh each part's members pw[k], k the number
    of members before the part.  Unsplit cells keep their weights."""
    out = []
    at = 0
    for cell in cells:
        if len(cell) > 1:
            ranked = sorted(cell, key=key)
            if key(ranked[0]) != key(ranked[-1]):
                for _, part in itertools.groupby(ranked, key):
                    part = list(part)
                    for x in part:
                        weight[x] = pw[at]
                    at += len(part)
                    out.append(part)
                continue
        at += len(cell)
        out.append(cell)
    return out


def _coatom_search(c: int, masks) -> tuple[tuple[int, ...], list[Permutation]]:
    """The least sorted mapped mask tuple over the class orders, and every
    relabelling (old label -> new label) attaining it, in enumeration order.
    A permutation is built only for an order that ties or beats the best so
    far.  More than 64 coatoms, the widest lane, raise UnsupportedSizeError."""
    lane, unpack = _lanes(c, len(masks))
    members = [_members(m) for m in masks]
    r = len(members)
    sizes = [len(mem) for mem in members]
    by_size = sorted(range(r), key=sizes.__getitem__)
    # incident lists in ascending connector size; spread[i] has the lane-0
    # bit of every connector on coatom i
    incident = [[] for _ in range(c)]
    spread = [0] * c
    for j in by_size:
        bit = 1 << lane * j
        for i in members[j]:
            incident[i].append(j)
            spread[i] |= bit
    # colour k weighs W^(c + r - k), W = 2^b above every multiplicity, which
    # is at most the length of a member tuple or a degree
    b = max([c, *map(len, incident)]).bit_length()
    pw = [1 << b * (c + r - k) for k in range(c + r)]
    coat_w = [0] * c
    size_sig = [tuple(map(sizes.__getitem__, inc)) for inc in incident]
    coat = _split([list(range(c))], size_sig.__getitem__, coat_w, pw)
    if len(coat) > 1:
        conn_w = [pw[0]] * r
        conn = _split([by_size], sizes.__getitem__, conn_w, pw)
        while len(coat) < c:
            keys = [-sum(map(coat_w.__getitem__, mem)) for mem in members]
            new = _split(conn, keys.__getitem__, conn_w, pw)
            if len(new) == len(conn):
                break
            conn = new
            keys = [-sum(map(conn_w.__getitem__, inc)) for inc in incident]
            new = _split(coat, keys.__getitem__, coat_w, pw)
            if len(new) == len(coat):
                break
            coat = new
    # coatom i sent to p adds spread[i] << p: singletons go into base, and
    # each larger class gets one (start, order, integer) option per order,
    # its integers summed from the same permutation of the class's spreads
    fixed = [0] * c
    base = 0
    runs = []
    start = 0
    for cls in coat:
        if len(cls) == 1:
            fixed[cls[0]] = start
            base |= spread[cls[0]] << start
        else:
            at = range(start, start + len(cls))
            runs.append([(start, order, sum(map(operator.lshift, vals, at)))
                         for order, vals in zip(itertools.permutations(cls),
                                                itertools.permutations([spread[i] for i in cls]))])
        start += len(cls)
    nbytes = lane // 8 * r
    best, winners = [1 << lane], []    # above every sorted mask list
    for choice in itertools.product(*runs):
        z = base
        for _, _, vec in choice:
            z |= vec
        mapped = sorted(unpack(z.to_bytes(nbytes, "little")))
        if mapped <= best:
            perm = fixed[:]
            for start, order, _ in choice:
                for image, i in enumerate(order, start):
                    perm[i] = image
            if mapped < best:
                best, winners = mapped, []
            winners.append(tuple(perm))
    return tuple(best), winners


def _symmetric(c: int, masks) -> bool:
    """Whether masks, any at all, are no connector, the one connector on all
    c coatoms or the c(c-1)/2 coatom pairs once each: graphs S_c maps onto
    themselves, so their sorted masks are canonical and every relabelling
    wins."""
    if len(masks) < 2:
        return not masks or masks[0] == (1 << c) - 1
    return (len(masks) == c * (c - 1) // 2
            and set(masks) == {1 << i | 1 << k for i in range(c) for k in range(i)})


def _canonical(c: int, masks) -> tuple[tuple[int, ...], Permutation, tuple | None]:
    """(canonical masks, p0, group) of masks on c coatoms: the least sorted
    mapped mask tuple, the first relabelling p0 (old label -> new label)
    attaining it, and the canonical form's automorphisms but the identity,
    q∘p0⁻¹ for each later winner q as the canonical labels' images (()
    if trivial).  The graphs _symmetric accepts get their sorted masks,
    the identity and None, S_c, with no search.  The one caller of
    _symmetric and _coatom_search."""
    if _symmetric(c, masks):
        return tuple(sorted(masks)), tuple(range(c)), None
    form, (p0, *later) = _coatom_search(c, masks)
    if later:
        # q∘p0⁻¹ reads q at p0⁻¹(0), p0⁻¹(1), ...
        image = operator.itemgetter(*sorted(range(c), key=p0.__getitem__))
        later = [image(q) for q in later]
    return form, p0, tuple(later)


def canonicalize(graph: BicoloredGraph) -> BicoloredGraph:
    """Isomorphic copy in canonical labelling, connectors sorted by mask."""
    c = graph.coatom_count
    return BicoloredGraph(c, _canonical(c, graph.connector_masks)[0])


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


def automorphism_group_on_coatoms(graph: BicoloredGraph) -> PermGroup:
    """Coatom permutations that extend to automorphisms of the graph.

    A coatom permutation extends iff it maps the multiset of connector
    neighbourhoods onto itself; the connector images are then induced by
    neighbourhood matching and carry no extra freedom worth recording.
    The group is _canonical's, conjugated back onto the graph's labels:
    p0⁻¹∘a∘p0 for the identity and each automorphism a of the canonical
    form, the identity first.  The graphs S_c maps onto themselves get
    S_c, listed directly, with no search.
    """
    c = graph.coatom_count
    _form, p0, group = _canonical(c, graph.connector_masks)
    if group is None:
        return PermGroup(c, itertools.permutations(range(c)))
    inverse = sorted(range(c), key=p0.__getitem__)
    return PermGroup(c, ([inverse[a[j]] for j in p0] for a in (range(c), *group)))


# -- graph6 ------------------------------------------------------------------
#
# Standard short-form graph6: one byte 63 + n for n <= 62 vertices, then
# the upper triangle of the adjacency matrix in column order (0,1), (0,2),
# (1,2), (0,3), ..., packed six bits per byte, each byte offset by 63,
# zero-padded, newline-terminated.  Coatoms occupy vertex indices 0..c-1
# and connectors c..c+r-1; the (c, r) split travels out of band, here via
# the file naming convention conn_c{c}_r{r}.g6.  Pair (u, v), u < v, is
# bit v(v-1)/2 + u of the upper triangle.  Both directions hold the
# triangle as one integer z, lowest bit first: payload byte k carries the
# six bits of z from 6k, reversed.  So row v of connector v - c is the c
# bits of z from v(v-1)/2 with no reversal.  Decoding reads the payload as
# one integer, six bits in each byte, and packs them by log2 of its length
# mask steps; encoding runs the same steps backwards, last first, to spread
# z six bits to a byte.  Padding and class checks are one mask each, the
# latter cached per (c, n) with the rows' shifts.

# the payload bytes 63..126, each one's six bits reversed, and back
_GRAPH6_BYTES = bytes(range(63, 127))
_REVERSED = bytes(int(format(x, "06b")[::-1], 2) for x in range(64))
_REVERSED_SIX_BITS = bytes.maketrans(_GRAPH6_BYTES, _REVERSED)
_SIX_BITS_TO_GRAPH6 = bytes.maketrans(_REVERSED, _GRAPH6_BYTES)


def _pack_step(k: int) -> tuple[int, int, int]:
    """(low, shift, high) of mask step k: lanes of 2^(k+4) bits, each holding
    two groups of 6 * 2^k bits, from bit 0 and bit 2^(k+3), of which the
    upper moves down by 2^(k+1) onto the lower; encoding moves it back up.
    The masks span the 512 bytes that nine steps pack, above the 316
    payload bytes of 62 vertices."""
    group = (1 << (6 << k)) - 1
    low = sum(group << j for j in range(0, 4096, 16 << k))
    return low, 2 << k, low << (6 << k)


_PACK_STEPS = tuple(map(_pack_step, range(9)))


@functools.cache
def _connector_rows(c: int, n: int) -> tuple[int, tuple[int, ...]]:
    """The bits of z that may be set, pairs (u, v) with u < c <= v, and the
    shift v(v-1)/2 of each connector row v = c..n-1, for c >= 0."""
    shifts = tuple(v * (v - 1) // 2 for v in range(c, n))
    return sum(((1 << c) - 1) << shift for shift in shifts), shifts


def graph6_encode(graph: BicoloredGraph) -> bytes:
    """Encode a graph as one newline-terminated graph6 line, coatoms first."""
    c = graph.coatom_count
    masks = graph.connector_masks
    n = c + len(masks)
    if n > 62:
        raise UnsupportedSizeError("graph6 short form limited to 62 vertices, got %d" % n)
    # coatom rows are empty; the mask of connector v = c + j is row v
    z = sum(m << v * (v - 1) // 2 for v, m in enumerate(masks, c))
    nbytes = (n * (n - 1) // 2 + 5) // 6
    for low, shift, high in reversed(_PACK_STEPS[:(nbytes - 1).bit_length()]):
        z = z & low | (z & high) << shift
    six = z.to_bytes(nbytes, "little")
    return bytes([63 + n]) + six.translate(_SIX_BITS_TO_GRAPH6) + b"\n"


def graph6_decode(line: bytes, coatom_count: int, connector_count: int) -> BicoloredGraph:
    """Decode one graph6 line into a graph with the declared colour split.

    Raises SizeMismatchError when the vertex count disagrees with
    coatom_count + connector_count, ValueError for a negative count,
    ClassViolationError when the encoded graph has an edge within one
    colour class, and Graph6Error for any malformed encoding (bad
    characters, wrong length, nonzero padding).
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
    if connector_count < 0:
        raise ValueError("connector count must be nonnegative")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise Graph6Error("expected %d payload bytes, got %d" % (nbytes, len(data) - 1))
    outside = data[1:].translate(None, _GRAPH6_BYTES)
    if outside:
        raise Graph6Error("byte %r outside graph6 range" % outside[:1])
    z = int.from_bytes(data[1:].translate(_REVERSED_SIX_BITS), "little")
    for low, shift, high in _PACK_STEPS[:(nbytes - 1).bit_length()]:
        z = z & low | z >> shift & high
    if z >> nbits:
        raise Graph6Error("nonzero padding bits")
    c = coatom_count
    allowed, shifts = _connector_rows(max(c, 0), n)
    stray = z & ~allowed
    if stray:
        # the lowest stray bit is the first pair (u, v) the rows meet
        k = (stray & -stray).bit_length() - 1
        v = (1 + math.isqrt(8 * k + 1)) // 2
        raise ClassViolationError("edge (%d, %d) lies inside one colour class"
                                  % (k - v * (v - 1) // 2, v))
    if c < 0:
        BicoloredGraph(c)    # raises the constructor's ValueError
    full = (1 << c) - 1
    # each row is masked to c bits, so the masks need no check of __init__'s
    return _from_masks(c, tuple([z >> shift & full for shift in shifts]))
