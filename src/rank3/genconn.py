"""Connection graphs: isomorph-free generation, census files, a brute-force oracle.

Connection graphs on c coatoms are families of connector neighbourhoods:
distinct coatom subsets of size at least two, any two sharing at most one
coatom.  Families are generated stratum by stratum in the connector count
r.  Each class of stratum r is extended only by a largest connector,
ranked by (size, sorted degrees of its coatoms), and the results are
deduplicated through the canonical form, so every isomorphism class
appears exactly once.

brute_force_count answers the end question (how many rank-3 lattices with
c coatoms and a atoms) by direct enumeration of atom-neighbourhood
multisets.  It shares no counting machinery with the generator or the
cycle-index pipeline on purpose: it is the cross-check.
"""

import contextlib
import os

from .bigraph import BicoloredGraph, _coatom_search, _pairs, graph6_encode


def count_r_s(graph: BicoloredGraph) -> tuple[int, int]:
    """Connector count r and number s of coatoms covering no connector."""
    covered = 0
    for m in graph.connector_masks:
        covered |= m
    return len(graph.connector_masks), graph.coatom_count - covered.bit_count()


def _outranked(fam, deg, m: int) -> bool:
    """True if a connector of ``fam`` the size of ``m`` has larger sorted
    coatom degrees than ``m`` in fam + (m,); ``deg`` are fam's degrees."""
    child = [d + (m >> i & 1) for i, d in enumerate(deg)]

    def key(x):
        return sorted(d for i, d in enumerate(child) if x >> i & 1)

    size, top = m.bit_count(), key(m)
    return any(x.bit_count() == size and key(x) > top for x in fam)


def generate_connection_graphs(coatom_count: int):
    """Yield one representative per isomorphism class of connection graphs.

    Output comes in ascending connector count r, each graph in its
    canonical labelling.  Stratum r+1 extends each class P of stratum r by
    every mask m that shares no coatom pair with P and that no connector
    of P + m outranks in (size, sorted coatom degrees), then deduplicates
    the canonical masks.  No class is lost: G minus a top-ranked connector
    d has its class P in stratum r, and P plus the image of d is
    isomorphic to G and passes, the rank being an isomorphism invariant.
    Each stratum is sorted once in graph6 byte order, without encoding,
    and its masks seed the next, so two runs produce byte-identical output.
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
    yield BicoloredGraph(c)
    level: list[tuple[int, ...]] = [()]
    for _r in range(1, c * (c - 1) // 2 + 1):
        seen = set()
        for fam in level:
            covered = 0
            for x in fam:
                covered |= pairs[x]
            top = max((x.bit_count() for x in fam), default=0)
            deg = [sum(x >> i & 1 for x in fam) for i in range(c)]
            for m in pool:
                size = m.bit_count()
                if size < top:
                    break
                if pairs[m] & covered or size == top and _outranked(fam, deg, m):
                    continue
                seen.add(_coatom_search(c, fam + (m,))[0])
        # for equal c and r, graph6 byte order is the order of the mask
        # tuples with each mask's c bits reversed
        level = sorted(seen, key=lambda fam: tuple(map(flipped.__getitem__, fam)))
        for fam in level:
            yield BicoloredGraph(c, fam)


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
