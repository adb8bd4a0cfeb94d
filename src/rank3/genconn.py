"""Connection graphs: isomorph-free generation, census files, labelled counts, an oracle.

Connection graphs on c coatoms are families of connector neighbourhoods:
distinct coatom subsets of size at least two, any two sharing at most one
coatom.  Families are generated stratum by stratum in the connector count
r.  Each class of stratum r is extended only by a largest connector,
ranked by (size, number of other connectors it meets), and of those
only by the least mask in each orbit of the class's automorphism group
(the orbit step of McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998).  The results are deduplicated through the
canonical form, so every isomorphism class appears exactly once, with
its automorphism group.

labelled_family_counts counts the labelled families per connector count
and uncovered coatoms without a census; by orbit-stabiliser, the classes
must add up to it, which the count checks.

brute_force_count answers the end question (how many rank-3 lattices with
c coatoms and a atoms) by direct enumeration of atom-neighbourhood
multisets.  It shares no counting machinery with the generator or the
cycle-index pipeline on purpose: it is the cross-check.
"""

import collections
import contextlib
import functools
import math
import os
import types

from .bigraph import BicoloredGraph, _coatom_search, _members, _pairs, graph6_encode


def count_r_s(graph: BicoloredGraph) -> tuple[int, int]:
    """Connector count r and number s of coatoms covering no connector."""
    covered = 0
    for m in graph.connector_masks:
        covered |= m
    return len(graph.connector_masks), graph.coatom_count - covered.bit_count()


def _bit_images(winners) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of a canonical form other than the identity, read off
    the winners of the coatom search that produced it: each is q∘p0⁻¹, p0 the
    first winner, stored as bit images s[i] = 1 << s(i).  Empty for a trivial
    group."""
    p0 = winners[0]
    images = []
    for q in winners[1:]:
        s = [0] * len(q)
        for i, image in zip(p0, q):
            s[i] = 1 << image
        images.append(tuple(s))
    return tuple(images)


def _classes(coatom_count: int):
    """Yield (canonical masks, kept group) for one class of connection graphs
    per isomorphism class, the group as bit images (see _bit_images).

    Output comes in ascending connector count r.  Stratum r+1 extends each
    class P of stratum r by every mask m that shares no coatom pair with P
    and that no connector of P + m outranks in (size, number of other
    connectors met), then deduplicates the canonical masks.  Each parent
    keeps its top-size connectors x with met(x) = #{y in P : x & y} - 1; a
    top-size m loses to x if met(x) + (x & m != 0) > #{x in P : x & m}.  No
    class is lost: G minus a top-ranked connector d has its class P in
    stratum r, and P plus the image of d is isomorphic to G and passes, the
    rank being invariant under isomorphism.

    Of those masks only the least of each Aut(P)-orbit is searched: m is
    skipped if an automorphism of P maps it to a smaller mask.  This loses
    nothing either: for s in Aut(P), P + s(m) is isomorphic to P + m, and
    both filters above are Aut(P)-invariant, so the least mask of every
    orbit still passes; at c = 7, 12,782 masks reach the search.  Each
    class keeps its group, read off the winners of the search that found
    it; the r = 0 class keeps only the transpositions (i i+1), which leave
    exactly the least mask of each size, as S_c would.  Each stratum is
    sorted once in graph6 byte order, without encoding, and its masks seed
    the next, so two runs produce byte-identical output.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    # largest masks first, so a parent's scan stops at its first smaller
    # mask; pairs[m] has one bit per coatom pair that m covers
    pool = sorted((m for m in range(1 << c) if m.bit_count() >= 2),
                  key=int.bit_count, reverse=True)
    pairs = {m: _pairs(m) for m in pool}
    flipped = {m: int(format(m, "0%db" % c)[::-1], 2) for m in pool}
    unit = [1 << i for i in range(c)]
    swaps = tuple(tuple(unit[:i] + [unit[i + 1], unit[i]] + unit[i + 2:]) for i in range(c - 1))
    level = [((), swaps)]
    yield level[0]
    for _r in range(1, c * (c - 1) // 2 + 1):
        seen = {}
        for fam, group in level:
            covered = 0
            for x in fam:
                covered |= pairs[x]
            top = max((x.bit_count() for x in fam), default=0)
            # each top-size connector with the number of other connectors it meets
            kept = [(x, sum(1 for y in fam if x & y) - 1) for x in fam if x.bit_count() == top]
            for m in pool:
                size = m.bit_count()
                if size < top:
                    break
                if pairs[m] & covered:
                    continue
                mem = _members(m)
                if any(sum(map(s.__getitem__, mem)) < m for s in group):
                    continue
                if size == top:
                    met = sum(1 for x in fam if x & m)
                    if any(k + (x & m != 0) > met for x, k in kept):
                        continue
                form, winners = _coatom_search(c, fam + (m,))
                if form not in seen:
                    seen[form] = _bit_images(winners)
        # for equal c and r, graph6 byte order is the order of the mask
        # tuples with each mask's c bits reversed
        level = sorted(seen.items(), key=lambda item: tuple(map(flipped.__getitem__, item[0])))
        yield from level


def generate_connection_graphs(coatom_count: int):
    """Yield one representative per isomorphism class of connection graphs.

    Output comes in ascending connector count r, each graph in its
    canonical labelling and each stratum in graph6 byte order; _classes
    describes the generation.
    """
    for fam, _group in _classes(coatom_count):
        yield BicoloredGraph(coatom_count, fam)


def graph_file_name(coatom_count: int, connector_count: int) -> str:
    """Name of the graph6 file holding the graphs with c coatoms and r connectors."""
    return "conn_c%d_r%d.g6" % (coatom_count, connector_count)


def manifest_text(coatom_count: int, counts) -> str:
    """The census manifest: one "file count" line per stratum r, then "total n"."""
    return "".join("%s %d\n" % (graph_file_name(coatom_count, r), n)
                   for r, n in enumerate(counts)) + "total %d\n" % sum(counts)


@contextlib.contextmanager
def atomic_open(path, mode="w", newline=None):
    """Open ``path`` + ".tmp" for writing in ``mode`` ("w" text, "wb" bytes).

    On a clean exit the file is closed and renamed over ``path``; on any
    failure after the open it is removed and ``path`` is left untouched.
    """
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, mode, newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_graph_files(directory, coatom_count: int, graphs=None) -> list[int]:
    """Write per-stratum graph6 files conn_c{c}_r{r}.g6 plus a manifest.

    One file per r = 0..c(c-1)/2 (empty strata get empty files), and a
    manifest listing the per-file counts with a final total line.  Every
    file is an atomic_open on one ExitStack, the manifest entered first:
    the strata are renamed into place only after the last graph, the
    manifest last.  A graph on other than c coatoms, or with more than
    c(c-1)/2 connectors, raises ValueError.  On any failure the
    temporary files are removed and the previous census is left
    untouched.  Returns the per-r counts.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    os.makedirs(directory, exist_ok=True)
    max_r = c * (c - 1) // 2
    counts = [0] * (max_r + 1)
    with contextlib.ExitStack() as stack:
        manifest = stack.enter_context(
            atomic_open(os.path.join(directory, "conn_c%d.manifest" % c)))
        paths = (os.path.join(directory, graph_file_name(c, r)) for r in range(max_r + 1))
        handles = [stack.enter_context(atomic_open(path, "wb")) for path in paths]
        for g in (graphs if graphs is not None else generate_connection_graphs(c)):
            r = g.connector_count
            if g.coatom_count != c or r > max_r:
                raise ValueError("graph with %d coatoms and %d connectors does not "
                                 "belong to a census on %d coatoms" % (g.coatom_count, r, c))
            handles[r].write(graph6_encode(g))
            counts[r] += 1
        manifest.write(manifest_text(c, counts))
    return counts


# -- labelled families ---------------------------------------------------------
#
# A class G stands for c!/|Aut G| labelled families, so for each (r, s) the
# classes with r connectors and s uncovered coatoms add up to L_c(r, s), the
# labelled families of that kind (orbit-stabiliser; Harary & Palmer,
# "Graphical Enumeration", 1973, ch. 1-2).  L_c needs no census.  A_n(r),
# the labelled linear families of r connectors on n points, covering or
# not, is counted by eliminating points: with H the graph of the point
# pairs that connectors already cover, the connectors through a point v
# are v plus disjoint H-independent sets of v's non-neighbours, and each
# choice leaves v's neighbourhood sets as cliques in H on the points left.
# Eliminating a v of largest degree keeps the choices few.  The count does
# not depend on labels, so the points left are relabelled by degree before
# each memo lookup: 70 states at c = 7, 152 at c = 8.  Then the families
# covering all n points are N_n(r) = sum_j (-1)^(n-j) C(n, j) A_j(r), and
# L_c(r, s) = C(c, s) N_(c-s)(r).


def _point_sets(adj, free, k, out):
    """Count into ``out[adj', k']`` every choice of disjoint H-independent sets
    among the points ``free``, k' = k + the number of sets, adj' being H with
    each set made a clique.  H is ``adj``, one neighbour mask per point."""
    if not free:
        out[adj, k] += 1
        return
    u = free & -free
    rest = free ^ u
    _point_sets(adj, rest, k, out)    # u in no set
    # every H-independent set whose least point is u
    stack = [(u, rest & ~adj[u.bit_length() - 1])]
    while stack:
        block, cand = stack.pop()
        clique = tuple(m | block & ~(1 << i) if block >> i & 1 else m for i, m in enumerate(adj))
        _point_sets(clique, free & ~block, k + 1, out)
        while cand:
            w = cand & -cand
            cand ^= w
            stack.append((block | w, cand & ~adj[w.bit_length() - 1]))


def _by_degree(adj) -> tuple[int, ...]:
    """The same graph with its points relabelled in ascending degree."""
    order = sorted(range(len(adj)), key=lambda i: adj[i].bit_count())
    where = [0] * len(adj)
    for new, old in enumerate(order):
        where[old] = new
    return tuple(sum(1 << where[u] for u in _members(adj[old])) for old in order)


def _linear_families(adj, memo, top) -> list[int]:
    """A(H) by connector count r < ``top``: the labelled linear families on the
    points of H that cover no pair joined in H."""
    if adj in memo:
        return memo[adj]
    n = len(adj)
    got = [0] * top
    if n <= 1:
        got[0] = 1
    else:
        v = max(range(n), key=lambda i: adj[i].bit_count())
        choices = collections.Counter()
        _point_sets(adj, (1 << n) - 1 & ~adj[v] & ~(1 << v), 0, choices)
        low = (1 << v) - 1
        for (after, k), ways in choices.items():
            # point v removed, the points above it moved down by one
            rest = after[:v] + after[v + 1:]
            sub = _linear_families(_by_degree([m & low | m >> 1 & ~low for m in rest]),
                                   memo, top)
            for r in range(top - k):
                got[r + k] += ways * sub[r]
    memo[adj] = got
    return got


@functools.cache
def labelled_family_counts(coatom_count: int):
    """{(r, s): L_c(r, s)}, read-only: the labelled connection families on c
    coatoms with r connectors and s coatoms covered by none, nonzero cells
    only.  Computed on first use per c, without a census."""
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    top = c * (c - 1) // 2 + 1
    memo = {}
    any_cover = [_linear_families((0,) * n, memo, top) for n in range(c + 1)]
    cells = {}
    for s in range(c + 1):
        n = c - s
        for r in range(top):
            covering = sum((-1) ** (n - j) * math.comb(n, j) * any_cover[j][r]
                           for j in range(n + 1))
            if covering:
                cells[r, s] = math.comb(c, s) * covering
    return types.MappingProxyType(cells)


# -- brute-force oracle --------------------------------------------------------
#
# A rank-3 lattice with c coatoms and a atoms is, up to isomorphism, a
# multiset of a atom neighbourhoods over the coatoms: loner atoms are
# size-1 neighbourhoods (repeats allowed), connector atoms are distinct
# size->=2 neighbourhoods pairwise intersecting in at most one coatom,
# and every coatom is covered.  The oracle enumerates such multisets as
# nondecreasing mask sequences, counting only the lexicographically
# minimal representative of each coatom-relabelling orbit.  Minimality of
# a sorted sequence is inherited by its prefixes, so non-minimal branches
# are cut as soon as they appear.


def _relabel_can_shrink(coatom_count: int, masks) -> bool:
    """True if some coatom relabelling sorts ``masks`` strictly smaller.

    Coatoms with the same membership pattern across the masks are
    interchangeable, so the search runs over assignments of labels to
    membership types, highest label first.  Unassigned labels contribute
    zero bits, which makes the sorted partial masks an elementwise lower
    bound of any completion: branches whose bound already compares >= to
    the target can never beat it and are pruned.
    """
    a = len(masks)
    target = tuple(masks)
    type_counts: dict[int, int] = {}
    for i in range(coatom_count):
        t = 0
        bit = 1 << i
        for j, m in enumerate(masks):
            if m & bit:
                t |= 1 << j
        type_counts[t] = type_counts.get(t, 0) + 1
    types = list(type_counts)
    counts = [type_counts[t] for t in types]
    members = [[j for j in range(a) if (t >> j) & 1] for t in types]
    mapped = [0] * a

    def assign(label: int) -> bool:
        opt = sorted(mapped)
        verdict = 0
        for o, t in zip(opt, target):
            if o != t:
                verdict = -1 if o < t else 1
                break
        if verdict >= 0:
            # completions only grow masks, so they stay >= the target
            return False
        if label < 0:
            return True
        bit = 1 << label
        for idx in range(len(types)):
            if counts[idx] == 0:
                continue
            counts[idx] -= 1
            for j in members[idx]:
                mapped[j] |= bit
            hit = assign(label - 1)
            for j in members[idx]:
                mapped[j] &= ~bit
            counts[idx] += 1
            if hit:
                return True
        return False

    # a fully unassigned state compares below any nonempty target, so the
    # initial verdict is -1 whenever a > 0
    if a == 0:
        return False
    return assign(coatom_count - 1)


def brute_force_count(coatom_count: int, atom_count: int) -> int:
    """Number of rank-3 lattices with the given coatom and atom counts.

    Direct enumeration; intended for cross-checking at small sizes
    (roughly coatom_count + atom_count <= 14).
    """
    c, a = coatom_count, atom_count
    if c < 1 or a < 1:
        raise ValueError("coatom and atom counts must be positive")
    full = (1 << c) - 1
    seq: list[int] = []
    bigs: list[int] = []
    total = 0

    def extend(lo: int, covered: int):
        nonlocal total
        k = len(seq)
        if k == a:
            if covered == full:
                total += 1
            return
        final = k + 1 == a
        for m in range(lo, full + 1):
            if final and (full & ~(covered | m)):
                continue
            if m.bit_count() >= 2:
                if any((m & x).bit_count() > 1 for x in bigs):
                    continue
                big = True
            else:
                big = False
            seq.append(m)
            if not _relabel_can_shrink(c, seq):
                if big:
                    bigs.append(m)
                extend(m, covered | m)
                if big:
                    bigs.pop()
            seq.pop()

    extend(1, 0)
    return total
