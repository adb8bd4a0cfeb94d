"""Connection graphs: isomorph-free generation, census files, the fold of
graphs into cells and its check, an oracle.

Connection graphs on c coatoms are families of connector neighbourhoods:
distinct coatom subsets of size at least two, any two sharing at most one
coatom.  Families are generated stratum by stratum in the connector count
r.  Each class of stratum r is extended only by a largest connector,
ranked by (size, number of other connectors it meets), of those only by
the least mask in each orbit of the class's automorphism group, and a
search is kept only from the class's canonical parent (the orbit step
and canonical construction path of McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  So every isomorphism class past
r = 0 is found exactly once, with its automorphism group in the form
fold_graphs folds (bigraph._canonical's; None for S_c).

Each parent class is extended on its own, so the parents of a stratum
are extended through _in_shares, the forked map fold_graphs also uses.
With no class found twice, the classes, kept groups and census bytes
are those of one process, and no child is alive once the stratum's
first class is yielded.  Strata below 256 parents, every stratum up to
c = 6, stay in this process.  ROADMAP.md, "Where it stands", gives the
census times on one and on two cores.

Graphs passed in or read are checked and measured (r and s) once each,
on every usable CPU, by _search, and walked in order by fold_graphs,
the one loop over them.  bigraph._canonical gives a graph's group, in
the form the census keeps, and the canonical form that checks the list
is isomorph-free; the graphs S_c maps onto themselves get their sorted
masks and S_c with no search, so the r = 0 class folds at once at any
c.  fold_graphs maps _search over each chunk through _in_shares, which
says when it forks (not for the 72 graphs at c = 5).  check_graphs gates the fold on the cells of
polya.fixed_family_counts: a class G stands for c!/|Aut G| labelled
families, so a missing class (a stratum truncated with its manifest
line) breaks the identity's cells, the labelled families, and a group
of the right order with the wrong elements breaks another type's.

This module and bigraph are the graph layer: rank3 loads them on first
use, for a census or a check of graphs, so a count, from
polya.fixed_family_counts, starts without them, and no forked child
compiles a module.  bigraph's names are looked up on the module at each
call, so a patch of one reaches this module whenever it is made.

brute_force_count answers the end question (how many rank-3 lattices with
c coatoms and a atoms) by direct enumeration of atom-neighbourhood
multisets.  It shares no counting machinery with the generator or the
cycle-index pipeline on purpose: it is the cross-check.
"""

import contextlib
import functools
import itertools
import marshal
import math
import os
import signal
import threading
from collections import Counter, defaultdict

from . import bigraph
from .pipeline import GraphInputError, MemoStats, atomic_open
from .polya import _members, _pairs, cycle_index, fixed_family_counts, symmetric_cycle_index


def count_r_s(graph: bigraph.BicoloredGraph) -> tuple[int, int]:
    """Connector count r and number s of coatoms covering no connector."""
    covered = 0
    for m in graph.connector_masks:
        covered |= m
    return len(graph.connector_masks), graph.coatom_count - covered.bit_count()


def _extended(c: int, pools, pairs, parent) -> list:
    """(canonical masks, kept group) of each search that extends parent, a
    (family, group) class, to a class of which it is the canonical parent.
    pools[k] holds the masks of k or more coatoms, largest first."""
    fam, group = parent
    covered = 0
    for x in fam:
        covered |= pairs[x]
    top = max((x.bit_count() for x in fam), default=0)
    # each top-size connector with the number of other connectors it meets
    kept = [(x, sum(1 for y in fam if x & y) - 1) for x in fam if x.bit_count() == top]
    found = []
    # the masks at least as large as fam's largest that share no coatom pair with it
    for m in [m for m in pools[top] if not pairs[m] & covered]:
        size = m.bit_count()
        mem = _members(m)
        if group is None:
            # S_c leaves the least mask of each size, of the bits 0..size-1
            if m & (m + 1):
                continue
        elif any(sum(1 << s[i] for i in mem) < m for s in group):
            continue
        ties = []
        if size == top:
            met = sum(1 for x in fam if x & m)
            if any(k + (x & m != 0) > met for x, k in kept):
                continue
            ties = [x for x, k in kept if k + (x & m != 0) == met]
        form, p0, automorphisms = bigraph._canonical(c, fam + (m,))
        if ties and automorphisms is not None:
            # kept only if p0, or p0 then an automorphism, maps m to the least
            # canonical mask of its rank; under S_c (None) every relabelling wins
            image = sum(1 << p0[i] for i in mem)
            least = min(image, *(sum(1 << p0[i] for i in _members(x)) for x in ties))
            if image != least and all(sum(1 << a[i] for i in _members(image)) != least
                                      for a in automorphisms):
                continue
        found.append((form, automorphisms))
    return found


def _classes(coatom_count: int):
    """Yield (canonical masks, kept group) for one class of connection graphs
    per isomorphism class, the group as image tuples (see
    bigraph._canonical), or None for S_c.

    Output comes in ascending connector count r.  Stratum r+1 extends each
    class P of stratum r by every mask m that shares no coatom pair with P
    and that no connector of P + m outranks in (size, number of other
    connectors met), each through one coatom search.  Each parent keeps
    its top-size connectors x with met(x) = #{y in P : x & y} - 1; a
    top-size m loses to x if met(x) + (x & m != 0) > #{x in P : x & m}.  No
    class is lost: G minus a top-ranked connector d has its class P in
    stratum r, and P plus the image of d is isomorphic to G and passes, the
    rank being invariant under isomorphism.

    Of those masks only the least of each Aut(P)-orbit is kept: m is
    skipped if an automorphism of P maps it to a smaller mask.  This loses
    nothing either: for s in Aut(P), P + s(m) is isomorphic to P + m, and
    both filters above are Aut(P)-invariant, so the least mask of every
    orbit still passes; at c = 7, 12,782 masks pass, and 12,780 are searched.

    Each class comes from exactly one extension, its canonical parent's
    (McKay's canonical construction path).  Every winner of the search of
    G = P + m maps the connectors of m's rank onto the same canonical
    masks, rank being invariant, and G is kept iff some winner (p0, or p0
    then an automorphism bigraph._canonical gives) maps m to the least of
    them, L.  So G is kept only from the class of G minus a connector that
    a winner maps to L, and two masks of P that give G so differ by an
    automorphism of P, of which the orbit filter keeps one.  The class
    keeps that group, but the S_c-invariant classes (r = 0, the full
    connector, all coatom pairs) keep None, S_c, whose orbit filter keeps
    only the least mask of each size, m & (m + 1) == 0: the last two are
    found with no search or tie test.
    Each stratum is sorted once in graph6 byte order, without encoding,
    and its masks seed the next, so two runs give byte-identical output.

    The parents of a stratum are extended by _extended through _in_shares
    (see the module docstring), and their lists joined.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    # largest masks first, so pools[k], the masks of k or more coatoms, is
    # a head of the pool; pairs[m] has one bit per coatom pair that m covers
    pool = sorted((m for m in range(1 << c) if m.bit_count() >= 2),
                  key=int.bit_count, reverse=True)
    pools = [[m for m in pool if m.bit_count() >= k] for k in range(c + 1)]
    pairs = [_pairs(m) for m in range(1 << c)]
    # each mask with its c bits reversed, in bytes of one width
    width = (c + 7) // 8
    flipped = {m: int(format(m, "0%db" % c)[::-1], 2).to_bytes(width, "big") for m in pool}
    level, extend = [((), None)], functools.partial(_extended, c, pools, pairs)
    yield level[0]
    for _r in range(1, c * (c - 1) // 2 + 1):
        # for equal c and r, graph6 byte order is the order of the mask
        # tuples with each mask's c bits reversed, so of those masks packed
        # into one integer per class, the first highest
        level = sorted(itertools.chain.from_iterable(_in_shares(extend, level)),
                       key=lambda item: int.from_bytes(
                           b"".join(map(flipped.__getitem__, item[0])), "big"))
        yield from level


def generate_connection_graphs(coatom_count: int):
    """Yield one representative per isomorphism class of connection graphs.

    Output comes in ascending connector count r, each graph in its
    canonical labelling and each stratum in graph6 byte order; _classes
    describes the generation.
    """
    for fam, _group in _classes(coatom_count):
        # a search's canonical masks, a tuple of ints below 2^c
        yield bigraph._from_masks(coatom_count, fam)


def graph_file_name(coatom_count: int, connector_count: int) -> str:
    """Name of the graph6 file holding the graphs with c coatoms and r connectors."""
    return "conn_c%d_r%d.g6" % (coatom_count, connector_count)


def manifest_text(coatom_count: int, counts) -> str:
    """The census manifest: one "file count" line per stratum r, then "total n"."""
    return "".join("%s %d\n" % (graph_file_name(coatom_count, r), n)
                   for r, n in enumerate(counts)) + "total %d\n" % sum(counts)


# the fewest items one process takes when work is dealt over forked children
_MIN_SHARE = 128


def _processes(n: int) -> int:
    """The number of shares _in_shares deals n items into."""
    most = n // _MIN_SHARE
    if most < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), most)


def _child(work, share, read_end: int, write_end: int) -> None:
    """In a forked child: send marshal([work(item) for each item of share])
    down write_end and exit, with status 0 once it is sent.  Writes nothing
    else, never returns."""
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(list(map(work, share))))
        status = 0
    finally:
        os._exit(status)


def _fork(work, share):
    """(pid, read end) of a child running work over share, or None if none started."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
        if pid == 0:
            _child(work, share, read_end, write_end)
    except OSError:
        os.close(read_end)
        return None
    finally:
        os.close(write_end)
    return pid, read_end


def _in_shares(work, items) -> list:
    """A forked map: work(item) for each item, in item order.

    The items are dealt round-robin into n shares, share p holding
    positions p, p + n, ...: one share per CPU in the affinity mask, each
    of at least _MIN_SHARE items.  n is 1, and all of it runs in this
    process, below 2 * _MIN_SHARE items, with one usable CPU, without
    os.fork or os.sched_getaffinity, and while another thread runs, since
    forking it is unsafe.  Share 0 runs in this process and each other
    share in a forked child, whose list of results comes back through a
    pipe by marshal.  The share of a child that did not start, died,
    exited non-zero or sent anything but a list of one result per item is
    run again here once every child is reaped: the one fallback, so the
    callers walk results only.  Every child is reaped, and killed first if
    still running, before this returns or raises."""
    n = _processes(len(items))
    shares, found = [items[p::n] for p in range(n)], [None] * len(items)
    # children: [pid or None once reaped, share, read end]; missing: shares not placed
    children, missing = [], set(range(1, n))
    try:
        for p in range(1, n):
            started = _fork(work, shares[p])
            if started is not None:
                children.append([started[0], p, started[1]])
        found[0::n] = list(map(work, shares[0]))
        for child in children:
            pid, p, read_end = child
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            child[0] = None
            if status == 0:
                with contextlib.suppress(EOFError, ValueError, TypeError):
                    results = marshal.loads(data)
                    if isinstance(results, list):
                        # n > 1, so an extended slice: a list of another length raises ValueError
                        found[p::n] = results
                        missing.remove(p)
            del data    # one child's bytes at a time, none once decoded
    finally:
        for pid, _p, read_end in children:
            os.close(read_end)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for p in sorted(missing):
        found[p::n] = list(map(work, shares[p]))
    return found


# graphs taken from the input at a time: the c = 7 census in one round, one
# fork on two CPUs and no child idle between chunks, for 0.2 MB more than
# with 4096; a c = 8 --graphs count still streams, in 34 rounds
_CHUNK = 16384


def _search(c: int, kept: dict, graph):
    """Why graph is rejected, if it does not have c coatoms or fails
    validate_connection_graph, else (canonical masks, or None where they
    are the graph's own, group, r, s), the form and group of
    bigraph._canonical, which gives the graphs S_c maps onto themselves
    group None, S_c's slot, with no search.  Equal groups are one object
    through kept, one dict per fold, since marshal writes each object
    once: a child's share of 5404 graphs of the c = 7 census sends
    256,334 bytes with it, 678,637 without."""
    try:
        if graph.coatom_count != c:
            raise ValueError("%d coatoms, expected %d" % (graph.coatom_count, c))
        bigraph.validate_connection_graph(graph)
    except ValueError as exc:
        return str(exc)
    masks = graph.connector_masks
    canon, _p0, group = bigraph._canonical(c, masks)
    return (None if canon == masks else canon, kept.setdefault(group, group), *count_r_s(graph))


def fold_graphs(coatom_count: int, graphs) -> tuple:
    """({cycle type: {(r, s): n}}, MemoStats) of graphs passed in or read:
    n adds c!/|G| times the elements of that type in G over the graphs
    with group G, r connectors and s uncovered coatoms, the shape of
    polya.fixed_family_counts.  Each distinct group of _search gets one
    slot and cycle index (182 groups for the 10808 graphs at c = 7), the
    group's elements being the identity and its tuples, and S_c's slot,
    the group None, the index polya.symmetric_cycle_index makes from its
    class sizes.

    This is the one loop over the graphs.  Each round takes up to _CHUNK
    of them, has _in_shares check, search and measure each by _search,
    then walks the results in order: it dedupes by canonical masks and
    raises GraphInputError by 1-based position at the first rejected
    graph or isomorphic copy, so no answer or error depends on a child.
    If the input raises, the graphs taken before it are walked first, so
    the first error is the one a graph-by-graph count meets."""
    c = coatom_count
    c_factorial = math.factorial(c)
    search = functools.partial(_search, c, {})
    it, seen, slots, profile, k = iter(graphs), set(), {}, Counter(), 0
    while True:
        chunk, failure = [], None
        try:
            # appended one by one, so the graphs taken before a raise are kept
            for graph in itertools.islice(it, _CHUNK):
                chunk.append(graph)
        except Exception as exc:
            failure = exc
        for graph, found in zip(chunk, _in_shares(search, chunk)):
            k += 1
            if isinstance(found, str):
                raise GraphInputError("graph %d %r: %s" % (k, graph, found))
            canon, group, r, s = found
            # the graph's own tuple when it is canonical, so keeping it makes no second copy
            canon = graph.connector_masks if canon is None else canon
            if canon in seen:
                raise GraphInputError("graph %d is isomorphic to an earlier graph" % k)
            seen.add(canon)
            profile[slots.setdefault(group, len(slots)), r, s] += 1
        if failure is not None:
            raise failure
        if len(chunk) < _CHUNK:
            break
    identity = tuple(range(c))
    indices = [symmetric_cycle_index(c) if group is None
               else cycle_index(bigraph.PermGroup(c, [identity, *group])) for group in slots]
    cells, trivial = defaultdict(Counter), 0
    for (slot, r, s), n in profile.items():
        zindex = indices[slot]
        trivial += n if zindex.order == 1 else 0
        copies = n * (c_factorial // zindex.order)    # an integer by Lagrange
        for expo, count in zindex.counts:
            cells[expo][r, s] += copies * count
    return ({expo: dict(by_cell) for expo, by_cell in cells.items()},
            MemoStats(k, len(set(indices)), trivial))


def check_graphs(coatom_count: int, graphs) -> MemoStats:
    """The MemoStats of fold_graphs(coatom_count, graphs), once its cells
    equal those of polya.fixed_family_counts.

    ``graphs`` is any iterable of connection graphs meant as a complete,
    isomorph-free list for ``coatom_count``.  A wrong coatom count, a
    failed validate_connection_graph or an isomorph of an earlier graph
    raises GraphInputError naming its 1-based position, as fold_graphs
    says.  Then the first (cycle type, r, s) whose cells differ raises
    it, with both numbers, the types in descending order, so the
    identity's cells, the labelled families, come first."""
    c = coatom_count
    cells, stats = fold_graphs(c, graphs)
    want = fixed_family_counts(c)
    for expo in sorted(want.keys() | cells.keys(), reverse=True):
        got_cells, want_cells = cells.get(expo, {}), want.get(expo, {})
        for cell in sorted(got_cells.keys() | want_cells.keys()):
            got, exist = got_cells.get(cell, 0), want_cells.get(cell, 0)
            if got != exist:
                what = ("labelled families" if expo[0] == c
                        else "families fixed by the permutations of cycle type %s" % (expo,))
                raise GraphInputError("the graphs stand for %d %s with %d connectors and %d "
                                      "uncovered coatoms, but there are %d"
                                      % (got, what, *cell, exist))
    return stats


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
            handles[r].write(bigraph.graph6_encode(g))
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
