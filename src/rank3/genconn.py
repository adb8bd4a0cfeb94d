"""Connection graphs: isomorph-free generation, census files, Burnside counts, an oracle.

Connection graphs on c coatoms are families of connector neighbourhoods:
distinct coatom subsets of size at least two, any two sharing at most one
coatom.  Families are generated stratum by stratum in the connector count
r.  Each class of stratum r is extended only by a largest connector,
ranked by (size, number of other connectors it meets), of those only by
the least mask in each orbit of the class's automorphism group, and a
search is kept only from the class's canonical parent (the orbit step
and canonical construction path of McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  So every isomorphism class comes
from exactly one search, with its automorphism group.

Each parent class is extended on its own, so the parents of a stratum
are extended through _in_shares, a forked map that says how it deals
the items over forked children and runs the share of a failed child
again here, its one fallback; pipeline._fold_profile, the one loop over
graphs read or passed in, is its other user.  With no class found twice,
the classes, kept groups and census bytes are those of one process.
Every child is reaped before the stratum's first class is yielded, so
none is alive while a caller holds the generator.  Shares hold at least
256 parents, so strata below 512 parents stay in this process: every
stratum up to c = 6, so a count for c <= 6 never forks here.  On two
cores the c = 7 census takes 1.0-1.2 s against 1.3-1.8 s in one
process, and c = 8 47-51 s against 99 s.

fixed_family_counts counts, without a census, the labelled families each
cycle type of S_c fixes, per connector count and uncovered coatoms: by
Burnside's lemma these are the count's polynomials, so a count without
graphs needs no census, and a count of graphs is a gated check: its fold
must give the same cells.  It keeps no cells per c (pipeline keeps one
entry per c); what it keeps for the process, shared by every c, is each
sub-type's fixed families covering or not (_fixed_families, keyed by the
cycle type without trailing zero multiplicities, so a sub-type of S_4
serves S_5 as well: 139 entries up to c = 10), from which a call
assembles its cells afresh.  The point-elimination memo
(_linear_families) is freed when each count returns or raises.  A count
that fails its gate frees the sub-type counts too.  In one process c = 9
takes about 0.2 s, c = 10 1.3 s at a 29 MB peak and c = 11 16 s at
140 MB.

brute_force_count answers the end question (how many rank-3 lattices with
c coatoms and a atoms) by direct enumeration of atom-neighbourhood
multisets.  It shares no counting machinery with the generator or the
cycle-index pipeline on purpose: it is the cross-check.
"""

import collections
import contextlib
import functools
import itertools
import marshal
import math
import os
import signal
import threading

from .bigraph import BicoloredGraph, _coatom_search, _members, _pairs, graph6_encode
from .polya import symmetric_cycle_index


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


def _extended(c: int, pool, pairs, parent) -> list:
    """(canonical masks, kept group) of each search that extends parent, a
    (family, group) class, to a class of which it is the canonical parent."""
    fam, group = parent
    covered = 0
    for x in fam:
        covered |= pairs[x]
    top = max((x.bit_count() for x in fam), default=0)
    # each top-size connector with the number of other connectors it meets
    kept = [(x, sum(1 for y in fam if x & y) - 1) for x in fam if x.bit_count() == top]
    found = []
    for m in pool:
        size = m.bit_count()
        if size < top:
            break
        if pairs[m] & covered:
            continue
        mem = _members(m)
        if any(sum(map(s.__getitem__, mem)) < m for s in group):
            continue
        ties = []
        if size == top:
            met = sum(1 for x in fam if x & m)
            if any(k + (x & m != 0) > met for x, k in kept):
                continue
            ties = [x for x, k in kept if k + (x & m != 0) == met]
        form, winners = _coatom_search(c, fam + (m,))
        if ties:
            # kept only if a winner maps m to the least canonical mask of its rank
            p0 = winners[0]
            least = min(sum(1 << p0[i] for i in _members(x)) for x in ties + [m])
            if all(sum(1 << q[i] for i in mem) != least for q in winners):
                continue
        found.append((form, _bit_images(winners)))
    return found


def _classes(coatom_count: int):
    """Yield (canonical masks, kept group) for one class of connection graphs
    per isomorphism class, the group as bit images (see _bit_images).

    Output comes in ascending connector count r.  Stratum r+1 extends each
    class P of stratum r by every mask m that shares no coatom pair with P
    and that no connector of P + m outranks in (size, number of other
    connectors met), each through one coatom search.  Each parent keeps
    its top-size connectors x with met(x) = #{y in P : x & y} - 1; a
    top-size m loses to x if met(x) + (x & m != 0) > #{x in P : x & m}.  No
    class is lost: G minus a top-ranked connector d has its class P in
    stratum r, and P plus the image of d is isomorphic to G and passes, the
    rank being invariant under isomorphism.

    Of those masks only the least of each Aut(P)-orbit is searched: m is
    skipped if an automorphism of P maps it to a smaller mask.  This loses
    nothing either: for s in Aut(P), P + s(m) is isomorphic to P + m, and
    both filters above are Aut(P)-invariant, so the least mask of every
    orbit still passes; at c = 7, 12,782 masks reach the search.

    Each class comes from exactly one search, its canonical parent's
    (McKay's canonical construction path).  Every winner of the search of
    G = P + m maps the connectors of m's rank onto the same canonical
    masks, rank being invariant, and G is kept iff some winner maps m to
    the least of them, L.  So G is kept only from the class of G minus a
    connector that a winner maps to L, and two masks of P that give G so
    differ by an automorphism of P, of which the orbit filter keeps one.
    The class keeps the group read off that search's winners; the r = 0
    class keeps only the transpositions (i i+1), which leave exactly the
    least mask of each size, as S_c would.  Each stratum is sorted once in
    graph6 byte order, without encoding, and its masks seed the next, so
    two runs produce byte-identical output.

    The parents of a stratum are extended by _extended through
    _in_shares, forked where the module docstring says, and their lists
    joined: a forked run gives the classes and groups of one process.  No
    child outlives the stratum's first yield.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    # largest masks first, so a parent's scan stops at its first smaller
    # mask; pairs[m] has one bit per coatom pair that m covers
    pool = sorted((m for m in range(1 << c) if m.bit_count() >= 2),
                  key=int.bit_count, reverse=True)
    pairs = {m: _pairs(m) for m in pool}
    # each mask with its c bits reversed, in bytes of one width
    width = (c + 7) // 8
    flipped = {m: int(format(m, "0%db" % c)[::-1], 2).to_bytes(width, "big") for m in pool}
    unit = [1 << i for i in range(c)]
    swaps = tuple(tuple(unit[:i] + [unit[i + 1], unit[i]] + unit[i + 2:]) for i in range(c - 1))
    level, extend = [((), swaps)], functools.partial(_extended, c, pool, pairs)
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


# the fewest items one process takes when work is dealt over forked children
_MIN_SHARE = 256


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
    """A forked map: work(item) for each item, in item order, never None.

    The items are dealt round-robin into n shares, share p holding
    positions p, p + n, ...: one share per CPU in the affinity mask, each
    of at least _MIN_SHARE items.  n is 1, and all of it runs in this
    process, below 2 * _MIN_SHARE items, with one usable CPU, without
    os.fork or os.sched_getaffinity, and while another thread runs, since
    forking it is unsafe.  Share 0 runs in this process and each other
    share in a forked child, whose list of results comes back through a
    pipe by marshal.  The share of a child that did not start, died,
    exited non-zero or sent anything but a list of one result per item,
    none of them None, is run again here once every child is reaped: the
    one fallback, so the callers (_classes here, pipeline._fold_profile
    for graphs read or passed in) walk results only.  A None from work in
    this process raises RuntimeError.  Every child is reaped, and killed
    first if still running, before this returns or raises."""
    n = _processes(len(items))
    shares, found = [items[p::n] for p in range(n)], [None] * len(items)

    def place(p, results):
        # the length checked first, since found[::1] = shorter would shrink found
        fits = isinstance(results, list) and len(results) == len(shares[p]) and None not in results
        if fits:
            found[p::n] = results
        return fits

    def here(p):
        if not place(p, list(map(work, shares[p]))):
            raise RuntimeError("share %d of %d did not give one result per item" % (p, n))

    # children: [pid or None once reaped, share, read end]; missing: shares not placed
    children, missing = [], set(range(1, n))
    try:
        for p in range(1, n):
            started = _fork(work, shares[p])
            if started is not None:
                children.append([started[0], p, started[1]])
        here(0)
        for child in children:
            pid, p, read_end = child
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            child[0] = None
            if status == 0:
                with contextlib.suppress(EOFError, ValueError, TypeError):
                    if place(p, marshal.loads(data)):
                        missing.remove(p)
            del data    # one child's bytes at a time, none once decoded
    finally:
        for pid, _p, read_end in children:
            os.close(read_end)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for p in sorted(missing):
        here(p)
    return found


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


# -- fixed labelled families ---------------------------------------------------
#
# By Burnside's lemma the classes with r connectors and s uncovered
# coatoms are 1/c! times the sum over sigma in S_c of the labelled
# families of that kind that sigma fixes (Harary & Palmer, "Graphical
# Enumeration", 1973, ch. 1-2; Bergeron, Labelle & Leroux, "Combinatorial
# Species", 1998, ch. 1); the identity fixes all of them, L_c(r, s).
#
# A fixed family is a union of sigma-orbits of connectors.  The orbits that
# touch a point sigma moves are listed, those linear inside themselves
# kept, and their compatible unions tallied, keyed by the pairs a union
# holds inside the fixed points F and its connector count.  Two orbits
# conflict when they hold a common pair, so the tally is the independence
# polynomial of the conflict graph: the product of its components', each
# by deleting an orbit of most conflicts (Gutman & Harary, "Generalizations
# of the matching polynomial", Utilitas Math. 24, 1983; Knuth, TAOCP 4A,
# 7.1.4).  The connectors on F are then any linear family on F that avoids
# those pairs: A(H), H the graph of the pairs, counted by eliminating
# points.  The connectors through a point v are v plus disjoint blocks,
# H-independent sets of v's non-neighbours, and each choice leaves its
# blocks as cliques in H on the points left; a v of largest degree keeps
# the choices few, and the points left are relabelled by degree before
# each memo lookup.  Swapping two twins among v's non-neighbours (points
# of one open or one closed neighbourhood in H) is an automorphism of H
# fixing v, so the choices are taken once per orbit of such swaps, by how
# many points each block takes of each twin class, and weighted by the
# orbit's size.
#
# That counts the fixed families covering or not.  The coatoms a fixed
# family leaves bare are a union of sigma's cycles, so the families with
# s bare come by inclusion-exclusion over the cycles (Stanley, "Enumerative
# Combinatorics I", 2.1): k_i of the m_i cycles of length i kept bare
# weigh the covering-or-not families of the other cycles by C(m_i, k_i)
# [x^s] prod (x^i - 1)^k_i.  The identity's L_c(r, s) is this sum with all
# c cycles fixed points.


def _twin_classes(adj, free) -> list:
    """The points of ``free`` in twin classes of H (``adj``, one neighbour mask
    per point): (points ascending, most of them one block takes) each.
    Points with one open neighbourhood are pairwise apart, so a block may
    take all of them; points with one closed neighbourhood are pairwise
    joined, so a block takes one.  No point has twins of both kinds."""
    by_open, by_closed = {}, {}
    for u in _members(free):
        by_open.setdefault(adj[u], []).append(u)
    classes = []
    for points in by_open.values():
        if len(points) > 1:
            classes.append((points, len(points)))
        else:
            by_closed.setdefault(adj[points[0]] | 1 << points[0], []).append(points[0])
    return classes + [(points, 1) for points in by_closed.values()]


def _by_degree(adj) -> tuple[int, ...]:
    """The same graph with its points relabelled in ascending degree."""
    order = sorted(range(len(adj)), key=lambda i: adj[i].bit_count())
    where = [0] * len(adj)
    for new, old in enumerate(order):
        where[old] = new
    return tuple(sum(1 << where[u] for u in _members(adj[old])) for old in order)


@functools.cache
def _linear_families(adj) -> tuple[int, ...]:
    """A(H) by connector count r <= n(n-1)/2, n the points of H: the labelled
    linear families on those points that cover no pair joined in H."""
    n = len(adj)
    if n <= 2:
        # no pair, or one pair that is joined or not
        return (1, 0 if adj[0] else 1) if n == 2 else (1,)
    got = [0] * (n * (n - 1) // 2 + 1)
    v = max(range(n), key=lambda i: adj[i].bit_count())
    classes = _twin_classes(adj, (1 << n) - 1 & ~adj[v] & ~(1 << v))
    # every block: (class, points taken) over classes pairwise apart, two
    # classes being joined in full or not at all
    apart = [sum(1 << j for j, (other, _most) in enumerate(classes)
                 if not adj[points[0]] >> other[0] & 1) for points, _most in classes]
    blocks, stack = [], [((), (1 << len(classes)) - 1)]
    while stack:
        block, later = stack.pop()
        blocks += [block] if block else []
        for i in _members(later):
            # -(2 << i) keeps the classes after i
            stack += [(block + ((i, b),), later & apart[i] & -(2 << i))
                      for b in range(1, classes[i][1] + 1)]
    # every choice, its blocks in ascending order: realised by the lowest
    # points left in their classes, each made a clique of H; t repeats of
    # one block weigh 1/t!
    choices = collections.Counter()
    stack = [(0, 0, tuple(len(points) for points, _most in classes), 1, adj, 0)]
    while stack:
        first, t, left, ways, after, k = stack.pop()
        choices[after, k] += ways
        for j in range(first, len(blocks)):
            block = blocks[j]
            if any(left[i] < b for i, b in block):
                continue
            mask, rest, more = 0, list(left), ways
            for i, b in block:
                points = classes[i][0]
                used = len(points) - rest[i]
                mask |= sum(1 << p for p in points[used:used + b])
                more *= math.comb(rest[i], b)
                rest[i] -= b
            clique = after if not mask & mask - 1 else tuple(
                m | mask & ~(1 << p) if mask >> p & 1 else m for p, m in enumerate(after))
            times = t + 1 if j == first else 1
            stack.append((j, times, tuple(rest), more // times, clique, k + 1))
    low = (1 << v) - 1
    for (after, k), ways in choices.items():
        # point v removed, the points above it moved down by one
        rest = after[:v] + after[v + 1:]
        for r, x in enumerate(_linear_families(_by_degree([m & low | m >> 1 & ~low
                                                           for m in rest]))):
            got[r + k] += ways * x
    return tuple(got)


def _linear_orbits(perm) -> list:
    """The orbits under perm (a list of images) of the connectors that touch
    a point perm moves, only those with no two members sharing two points:
    (pairs covered, size) each."""
    image = [1 << p for p in perm]
    moved = sum(1 << i for i, p in enumerate(perm) if p != i)
    orbits, seen = [], set()
    for m in range(1 << len(perm)):
        if not m & moved or m.bit_count() < 2 or m in seen:
            continue
        orbit, x = [], m
        while x not in orbit:
            orbit.append(x)
            x = sum(image[i] for i in _members(x))
        seen.update(orbit)
        pairs = list(map(_pairs, orbit))
        covered = functools.reduce(int.__or__, pairs)
        if covered == sum(pairs):    # no pair held twice
            orbits.append((covered, len(orbit)))
    return orbits


# a connected set of at most this many orbits has at most 2^11 + 1 pairwise
# compatible subsets (a star), so _orbit_unions lists them.  That is kept for
# the small counts that answer queries: with _LISTED = 1 perfbench's queries
# wall_s rose 5.2 % (6 of 6 pairs, 2-core VM); c = 9 and 10 were no slower
_LISTED = 12


def _orbit_unions(keys, conflicts) -> dict:
    """{key: ways} over the sets of pairwise compatible orbits, a set's key
    the sum of its orbits' keys: the independence polynomial of the
    conflict graph, conflicts[j] the mask of the orbits that orbit j
    conflicts with.

    A set's tally is the product of its connected components'.  A
    connected set of at most _LISTED orbits lists its compatible subsets.
    A larger one drops its orbit v of most conflicts, adding v's key times
    the tally of the rest without v's conflicts, and goes on with the rest
    while that stays connected, larger and untallied.  Each connected
    set's tally is kept until the call returns, and the sets wait on a
    list, not on the call stack, so no chain of dropped orbits recurses."""
    def parts(s):
        # the connected components of s
        out = []
        while s:
            part = front = s & -s
            while front:
                reach = 0
                while front:
                    low = front & -front
                    front ^= low
                    reach |= conflicts[low.bit_length() - 1]
                front = reach & s & ~part
                part |= front
            out.append(part)
            s ^= part
        return out

    def product(key, sets):
        # the product of the tallies of sets, key added to each of its keys
        if not sets:
            return {key: 1}
        tally = {key + other: ways for other, ways in memo[sets[0]].items()}
        for s in sets[1:]:
            got = {}
            for have, ways in tally.items():
                for other, more in memo[s].items():
                    got[have + other] = got.get(have + other, 0) + ways * more
            tally = got
        return tally

    memo, plans, whole = {}, {}, parts((1 << len(keys)) - 1)
    todo = list(whole)
    while todo:
        s = todo.pop()
        if s in memo:
            continue
        if s in plans:
            # back on top, so every part it waited on is tallied
            chain, split = plans.pop(s)
            tally = product(0, split)
            for key, joined in chain:
                for other, ways in product(key, joined).items():
                    tally[other] = tally.get(other, 0) + ways
            memo[s] = tally
            continue
        if s.bit_count() <= _LISTED:
            # its pairwise compatible subsets listed, each by its least orbit
            tally, stack = {}, [(s, 0)]
            while stack:
                cand, key = stack.pop()
                tally[key] = tally.get(key, 0) + 1
                while cand:
                    low = cand & -cand
                    cand ^= low
                    j = low.bit_length() - 1
                    stack.append((cand & ~conflicts[j], key + keys[j]))
            memo[s] = tally
            continue
        chain, rest = [], s
        while True:
            most, x = -1, rest
            while x:
                low = x & -x
                x ^= low
                j = low.bit_length() - 1
                met = (conflicts[j] & rest).bit_count()
                if met > most:
                    most, v = met, j
            rest &= ~(1 << v)
            chain.append((keys[v], parts(rest & ~conflicts[v])))
            split = parts(rest)
            if len(split) > 1 or split[0] in memo or rest.bit_count() <= _LISTED:
                break
        plans[s] = chain, split
        todo += [s, *split, *(part for _key, joined in chain for part in joined)]
    return product(0, whole)


@functools.cache
def _fixed_families(expo) -> tuple:
    """The nonzero (r, n): n labelled linear families with r connectors,
    covering or not, that one permutation of cycle type expo fixes, its
    fixed points first.  expo has no trailing zero multiplicity, so one
    entry serves every coatom count."""
    perm = []
    for length, m in enumerate(expo, 1):
        for start in range(len(perm), len(perm) + m * length, length):
            perm += [*range(start + 1, start + length), start]
    fixed = expo[0] if expo else 0
    top = len(perm) * (len(perm) - 1) // 2 + 1
    orbits = _linear_orbits(perm)
    # a union's tally key: its connector count r in the low bits, the pairs
    # it holds inside the fixed points F above them; compatible orbits hold
    # disjoint pairs, so a union's key is the sum of its orbits'
    shift, inside = top.bit_length(), _pairs((1 << fixed) - 1)
    keys = [(pairs & inside) << shift | size for pairs, size in orbits]
    conflicts = [0] * len(orbits)
    for j, (pairs, _size) in enumerate(orbits):
        for k in range(j):
            if pairs & orbits[k][0]:
                conflicts[j] |= 1 << k
                conflicts[k] |= 1 << j
    out, on_fixed = [0] * top, {}
    for key, ways in _orbit_unions(keys, conflicts).items():
        held, r = divmod(key, 1 << shift)
        if held not in on_fixed:
            adj = [sum(1 << k for k in range(fixed) if held & _pairs(1 << i | 1 << k))
                   for i in range(fixed)]
            on_fixed[held] = _linear_families(_by_degree(adj))
        for rf, n in enumerate(on_fixed[held][:top - r]):
            out[r + rf] += ways * n
    return tuple((r, n) for r, n in enumerate(out) if n)


# bound once, so a failed gate empties this cache even while the name is rebound
_forget_fixed_families = _fixed_families.cache_clear


def fixed_family_counts(coatom_count: int) -> dict:
    """{cycle type: {(r, s): |C| fix(r, s)}}, nonzero cells only, new on every call.

    For each cycle type (m_1, ..., m_c) of S_c, |C| is its class size and
    fix(r, s) the labelled families with r connectors and s uncovered
    coatoms fixed by one permutation of that type; summed over r + s = k
    this is the Q[k] of pipeline's count, by Burnside's lemma, without a
    census or a search.  The sub-types' counts (_fixed_families) are kept
    for the process and shared by every c, so a later call only assembles
    the cells; the point-elimination memo (_linear_families) is emptied
    when each call returns or raises.  Each (r, s) must sum, over the
    types, to c! times its classes (the orbit-counting identity); a cell
    that does not raises ArithmeticError, and no sub-type's count is kept.
    """
    c = coatom_count
    if c < 1:
        raise ValueError("coatom count must be positive")
    out, cells = {}, collections.Counter()
    try:
        for expo, size in symmetric_cycle_index(c).counts:
            tally = collections.Counter()
            # inclusion-exclusion over the cycles kept bare (see above)
            for bare in itertools.product(*(range(m + 1) for m in expo)):
                poly = {0: size * math.prod(map(math.comb, expo, bare))}
                for i, k in enumerate(bare, 1):
                    for _ in range(k):    # poly times x^i - 1
                        step = {s: -n for s, n in poly.items()}
                        for s, n in poly.items():
                            step[s + i] = step.get(s + i, 0) + n
                        poly = step
                rest = [m - k for m, k in zip(expo, bare)]
                while rest and not rest[-1]:
                    rest.pop()
                for r, n in _fixed_families(tuple(rest)):
                    for s, p in poly.items():
                        tally[r, s] += n * p
            out[expo] = {cell: n for cell, n in tally.items() if n}
            cells.update(out[expo])
    finally:
        _linear_families.cache_clear()
    order = math.factorial(c)
    for (r, s), n in sorted(cells.items()):
        if n % order:
            _forget_fixed_families()
            raise ArithmeticError("the cycle types' fixed families with %d connectors and %d "
                                  "uncovered coatoms add up to %d, which %d! does not divide"
                                  % (r, s, n, c))
    return out


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
