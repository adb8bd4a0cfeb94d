"""Isomorph-free generation of connection graphs, and a brute-force oracle.

Connection graphs on c coatoms are families of connector neighbourhoods:
distinct coatom subsets of size at least two, any two sharing at most one
coatom.  Families are generated stratum by stratum in the connector count
r, deduplicating each stratum through the canonical form, so every
isomorphism class appears exactly once.

brute_force_count answers the end question (how many rank-3 lattices with
c coatoms and a atoms) by direct enumeration of atom-neighbourhood
multisets.  It shares no counting machinery with the generator or the
cycle-index pipeline on purpose: it is the cross-check.
"""

import contextlib
import os

from .bigraph import BicoloredGraph, _canonical_masks, graph6_encode


def count_r_s(graph: BicoloredGraph) -> tuple[int, int]:
    """Connector count r and number s of coatoms covering no connector."""
    covered = 0
    for m in graph.connector_masks:
        covered |= m
    return len(graph.connector_masks), graph.coatom_count - covered.bit_count()


def generate_connection_graphs(coatom_count: int):
    """Yield one representative per isomorphism class of connection graphs.

    Output comes in ascending connector count r, each graph in its
    canonical labelling.  The stratum for r+1 is built by extending every
    class of stratum r with each compatible new neighbourhood and
    deduplicating the canonical masks; removing a connector never breaks
    validity, so this reaches every class.  Each stratum is sorted once by
    graph6 bytes, and its masks seed the next, so two runs produce
    byte-identical output.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    pool = [m for m in range(1 << c) if m.bit_count() >= 2]
    yield BicoloredGraph(c)
    level: list[tuple[int, ...]] = [()]
    for _r in range(1, c * (c - 1) // 2 + 1):
        seen = set()
        for fam in level:
            for m in pool:
                if any((m & x).bit_count() > 1 for x in fam):
                    continue
                seen.add(_canonical_masks(c, fam + (m,)))
        graphs = sorted((BicoloredGraph(c, canon) for canon in seen), key=graph6_encode)
        level = [g.connector_masks for g in graphs]
        yield from graphs


def graph_file_name(coatom_count: int, connector_count: int) -> str:
    return "conn_c%d_r%d.g6" % (coatom_count, connector_count)


def write_graph_files(directory, coatom_count: int, graphs=None) -> list[int]:
    """Write per-stratum graph6 files conn_c{c}_r{r}.g6 plus a manifest.

    One file per r = 0..c(c-1)/2 (empty strata get empty files), and a
    manifest listing the per-file counts with a final total line.  Each
    file streams to a temporary name (".tmp" appended); the strata are
    renamed into place only after the last graph, the manifest last.  A
    graph on other than c coatoms, or with more than c(c-1)/2
    connectors, raises ValueError.  On any failure the temporary files
    are removed and the previous census is left untouched.  Returns the
    per-r counts.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    os.makedirs(directory, exist_ok=True)
    max_r = c * (c - 1) // 2
    counts = [0] * (max_r + 1)
    names = [graph_file_name(c, r) for r in range(max_r + 1)] + ["conn_c%d.manifest" % c]
    paths = [os.path.join(directory, name) for name in names]
    try:
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(path + ".tmp", "wb")) for path in paths[:-1]]
            for g in (graphs if graphs is not None else generate_connection_graphs(c)):
                r = g.connector_count
                if g.coatom_count != c or r > max_r:
                    raise ValueError("graph with %d coatoms and %d connectors does not "
                                     "belong to a census on %d coatoms" % (g.coatom_count, r, c))
                handles[r].write(graph6_encode(g))
                counts[r] += 1
        with open(paths[-1] + ".tmp", "w") as fh:
            for r, n in enumerate(counts):
                fh.write("%s %d\n" % (graph_file_name(c, r), n))
            fh.write("total %d\n" % sum(counts))
        for path in paths:
            os.replace(path + ".tmp", path)
    except BaseException:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")
        raise
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
