"""End-to-end lattice counting: graphs in, exact count tables out.

Each connection graph contributes the number of ways to distribute the
leftover atoms (those not forced by its connectors and bare coatoms) into
its coatoms up to the graph's own symmetry; summing over all graphs gives
R(c, a), the number of rank-3 lattices with c coatoms and a atoms.  A
graph g adds x^(r+s) Z_g(A(x), A(x^2), ...) with A(x) = 1/(1 - x).  Swapped
into a sum over cycle types lambda, R(c, .) is (1/c!) sum Q_lambda(x)
prod_i (1 - x^i)^(-m_i), where Q_lambda[k] adds (c!/|Aut g|) times the
elements of Aut g of type lambda over the graphs with r + s = k (10808
graphs at c = 7 fold into 15 polynomials).  The fold builds one cycle
index per distinct automorphism group (182 for the 10808 graphs at c = 7).
Graphs passed in or read from a census are checked and searched once
each: the search gives the group and the canonical form that checks the
list is isomorph-free.  Generated graphs are folded from the groups the
generator keeps, with no second search.

Graphs passed in or read are checked and searched on every usable CPU.
The input is taken 4096 graphs at a time, and each chunk is dealt
round-robin into shares of at least 256 graphs, one per CPU in the
affinity mask at most, by genconn._in_shares, the helper that also
splits the generator's strata.  This process searches the first share
while a forked child searches each other one and sends back, through a
pipe, the canonical masks and winners of its graphs up to its first
failing one.  Then one in-order loop here dedupes and raises; it checks
and searches any graph whose result did not come back (after a share's
first failure, or from a child that died, exited non-zero or sent short
or undecodable data), so every answer and every error is that of a
count in one process.  Each child is reaped before its results are used, and killed
first if the count raises.  The count stays in this process without
os.fork or os.sched_getaffinity, with one usable CPU, while another
thread runs (forking a threaded process is unsafe), and for a chunk
below two shares, such as the 72 graphs at c = 5.  If the input itself
raises, the graphs taken before it are checked first, so the first error
is the one a graph-by-graph count meets.

Every count is gated after its fold: a class G stands for c!/|Aut G|
labelled families, so for each (r, s) the classes must add up to the
labelled count L_c(r, s) of genconn.labelled_family_counts.  A missing
class (a stratum truncated with its manifest line, a generator that loses
one) or a wrong group breaks that sum.

The polynomials of c are the same for every a, and the first n terms of
their truncated series do not depend on where it is truncated.  So the
generated graphs of c are cached per process in one entry: their
polynomials, their MemoStats and the longest series substituted so far.
Repeated counts for one c generate and fold its graphs once, and a count
the series already covers is a copy of its first a + 1 terms; a longer
one substitutes again to at least twice the old length.  Graphs passed in
explicitly bypass the cache.
"""

import csv
import functools
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .bigraph import (PermGroup, _coatom_search, _group_of_winners, graph6_decode,
                      validate_connection_graph)
from .genconn import (_classes, _in_shares, atomic_open, count_r_s, graph_file_name,
                      labelled_family_counts)
from .polya import cycle_index, substitute_cycle_types, symmetric_cycle_index


class GraphInputError(ValueError):
    """Graph input that is not an isomorph-free census for the requested coatom
    count: the count names a bad graph by position, iter_graph_dir a damaged file."""


@dataclass
class CountTable:
    """Exact counts R(c, a) for a = 0..a_max at a fixed coatom count."""
    coatom_count: int
    a_max: int
    values: list[int] = field(default_factory=list)

    def __post_init__(self):
        if len(self.values) != self.a_max + 1:
            raise ValueError("expected %d values, got %d" % (self.a_max + 1, len(self.values)))


@dataclass(frozen=True)
class MemoStats:
    """Graphs counted, distinct cycle indices, and graphs with trivial Aut."""
    graphs_processed: int
    distinct_cycle_indices: int
    trivial_action_graphs: int


def _fold(coatom_count: int, classes, cycle_index_of) -> tuple:
    """((cycle type, Q), ...) as in the module docstring, the MemoStats and
    {(r, s): labelled families} of ``classes``: one (group key, r, s) per
    class, cycle_index_of(key) being the cycle index of its group.  Each
    distinct key gets one cycle index, and a class with group G stands
    for c!/|G| labelled families."""
    c = coatom_count
    c_factorial = math.factorial(c)
    slots, profile, k = {}, Counter(), 0
    for k, (key, r, s) in enumerate(classes, 1):
        profile[slots.setdefault(key, len(slots)), r, s] += 1
    indices = list(map(cycle_index_of, slots))
    q = defaultdict(lambda: [0] * (c * (c + 1) // 2 + 1))    # r + s <= c(c-1)/2 + c
    labelled, trivial = Counter(), 0
    for (slot, r, s), n in profile.items():
        zindex = indices[slot]
        trivial += n if zindex.order == 1 else 0
        copies = n * (c_factorial // zindex.order)    # an integer by Lagrange
        labelled[r, s] += copies
        for expo, count in zindex.counts:
            q[expo][r + s] += copies * count
    return (tuple((expo, tuple(row)) for expo, row in sorted(q.items())),
            MemoStats(k, len(set(indices)), trivial), dict(labelled))


def _check_labelled(coatom_count: int, labelled) -> None:
    """GraphInputError naming the first (r, s), and both numbers, where a
    fold's labelled families differ from labelled_family_counts."""
    want = labelled_family_counts(coatom_count)
    for cell in sorted(want.keys() | labelled.keys()):
        got, exist = labelled.get(cell, 0), want.get(cell, 0)
        if got != exist:
            raise GraphInputError("the graphs stand for %d labelled families with %d "
                                  "connectors and %d uncovered coatoms, but there are %d"
                                  % (got, *cell, exist))


# graphs taken from the input at a time
_CHUNK = 4096


def _check(c: int, graph) -> None:
    """ValueError unless graph has c coatoms and is a connection graph."""
    if graph.coatom_count != c:
        raise ValueError("%d coatoms, expected %d" % (graph.coatom_count, c))
    validate_connection_graph(graph)


def _search(c: int, graph) -> tuple:
    """(canonical masks, or None where they are the graph's own, winners tuple)."""
    canon, winners = _coatom_search(c, graph.connector_masks)
    return None if canon == graph.connector_masks else canon, tuple(winners)


def _share(c: int, graphs) -> list:
    """_search of each graph after _check, in order, up to the first graph
    that fails or raises; the in-order loop meets that one again.  Equal
    winner tuples are kept once (182 distinct among 10808 graphs at c = 7)."""
    found, kept = [], {}
    try:
        for graph in graphs:
            _check(c, graph)
            canon, winners = _search(c, graph)
            found.append((canon, kept.setdefault(winners, winners)))
    except Exception:
        pass
    return found


def _presearched(c: int, chunk) -> list:
    """Per graph of chunk, its _search result or None where none came back:
    each share of genconn._in_shares is _share of its graphs, searched here
    or in a forked child."""
    shares = _in_shares(functools.partial(_share, c), chunk)
    n = len(shares)
    found = [None] * len(chunk)
    for p, theirs in enumerate(shares):
        theirs = theirs or []
        found[p:p + n * len(theirs):n] = theirs
    return found


def _chunks(graphs):
    """The graphs in lists of up to _CHUNK.  If the input raises, the graphs
    taken before it come as one last list, so they are checked first."""
    it = iter(graphs)
    while True:
        chunk = []
        try:
            for graph in it:
                chunk.append(graph)
                if len(chunk) == _CHUNK:
                    break
        except Exception:
            yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _searched(c: int, graphs):
    """(winners, r, s) per graph, after its checks: the coatom count,
    validate_connection_graph and no isomorph of an earlier graph.  This
    in-order loop alone dedupes and raises; it takes a graph's search from
    _presearched where there is one and checks and searches it here where
    there is none, so no answer or error depends on a child."""
    seen, k = set(), 0
    for chunk in _chunks(graphs):
        for graph, found in zip(chunk, _presearched(c, chunk)):
            k += 1
            if found is None:
                try:
                    _check(c, graph)
                except ValueError as exc:
                    raise GraphInputError("graph %d %r: %s" % (k, graph, exc)) from None
                found = _search(c, graph)
            canon, winners = found
            # the graph's own tuple when it is canonical, so keeping it makes no second copy
            canon = graph.connector_masks if canon is None else canon
            if canon in seen:
                raise GraphInputError("graph %d is isomorphic to an earlier graph" % k)
            seen.add(canon)
            yield (winners, *count_r_s(graph))


def _fold_profile(coatom_count: int, graphs) -> tuple:
    """_fold of graphs passed in or read, each checked and searched."""
    c = coatom_count
    return _fold(c, _searched(c, graphs),
                 lambda winners: cycle_index(_group_of_winners(c, winners)))


def _fold_classes(coatom_count: int, classes) -> tuple:
    """_fold of the generator's (masks, kept group) classes, with no search:
    the r = 0 class keeps only transpositions and gets S_c's cycle index."""
    c = coatom_count
    identity = tuple(range(c))

    def cycle_index_of(images):
        if images is None:
            return symmetric_cycle_index(c)
        perms = [tuple(bit.bit_length() - 1 for bit in s) for s in images]
        return cycle_index(PermGroup(c, [identity] + perms))

    def keyed():
        for fam, images in classes:
            covered = 0
            for m in fam:
                covered |= m
            yield images if fam else None, len(fam), c - covered.bit_count()

    return _fold(c, keyed(), cycle_index_of)


# coatom count -> (Q terms, MemoStats, the longest series substituted so far)
_generated = {}


def count_lattices_stats(coatom_count: int, max_atoms: int, graphs=None,
                         jobs=None) -> tuple[CountTable, MemoStats]:
    """Count table plus the MemoStats of its graphs for one pipeline run.

    ``graphs`` is any iterable of connection graphs forming a complete
    isomorph-free list for ``coatom_count``.  Every graph passed in or read
    is checked here: a wrong coatom count, a failed
    validate_connection_graph or an isomorph of an earlier graph raises
    GraphInputError naming its 1-based position, and its coatom search gives
    its group.  Those checks and searches are spread over forked children on
    the usable CPUs, chunk by chunk, as the module docstring says; they stay
    in this process with one usable CPU, without os.fork, while another
    thread runs and below 512 graphs.  One in-order loop in this process is
    the only place that dedupes and raises, so the result and the error are
    those of a count in one process; no child outlives the call.  Without
    ``graphs`` the classes are generated once per process and coatom count,
    their larger strata split over forked children the same way, and
    folded from the groups the generator keeps, with no check or search
    of their own.  Either way the graphs fold into one Q per cycle type,
    substituted once as in the module docstring, and the fold's labelled
    sums are gated on labelled_family_counts: a cell that misses raises
    GraphInputError.  A generated count is a slice of that count's cached
    series, which is substituted again, to at least twice its length, only
    when a longer table is asked for.  The returned table and its values are
    new on every call; the cached series is never handed out.  ``jobs`` is
    accepted and ignored, because the benchmark's traced replay still passes
    ``jobs=2``; it does not choose the split, which follows the usable CPUs
    alone.
    """
    if coatom_count < 1:
        raise ValueError("coatom count must be positive")
    if max_atoms < 0:
        raise ValueError("maximum atom count must be nonnegative")
    c = coatom_count
    if graphs is not None:
        terms, stats, labelled = _fold_profile(c, graphs)
        _check_labelled(c, labelled)
        values = substitute_cycle_types(terms, math.factorial(c), max_atoms + 1)
        return CountTable(c, max_atoms, values), stats
    if c in _generated:
        terms, stats, series = _generated[c]
    else:
        terms, stats, labelled = _fold_classes(c, _classes(c))
        _check_labelled(c, labelled)
        series = []
    if len(series) <= max_atoms:
        # stored once substituted, so a substitution that raises leaves the entry as it was
        length = max(max_atoms + 1, 2 * len(series))
        series = substitute_cycle_types(terms, math.factorial(c), length)
        _generated[c] = terms, stats, series
    return CountTable(c, max_atoms, series[:max_atoms + 1]), stats


def count_lattices(coatom_count: int, max_atoms: int, graphs=None) -> CountTable:
    """Count table R(c, a) for a = 0..max_atoms; see count_lattices_stats."""
    table, _stats = count_lattices_stats(coatom_count, max_atoms, graphs)
    return table


# -- interchange ---------------------------------------------------------------


def write_csv(table: CountTable, path) -> None:
    """Write an ``a,R`` table, one row per atom count 0..a_max, atomically."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "R"])
        for a, v in enumerate(table.values):
            writer.writerow([a, v])


def read_csv(path, coatom_count: int) -> CountTable:
    """Read an ``a,R`` table written by write_csv as a table for ``coatom_count``.

    Every c >= 1 has R(c, 0) = 0, R(c, 1) = 1 and R(c, 2) = c, so a table
    whose first rows disagree belongs to another coatom count and raises
    ValueError; a table with a_max < 2 cannot be told apart this way.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["a", "R"]:
            raise ValueError("expected header 'a,R', got %r" % (header,))
        values = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError("expected 2 fields per row, got %r" % (row,))
            a, v = int(row[0]), int(row[1])
            if a != len(values):
                raise ValueError("rows must run a = 0, 1, ... without gaps")
            values.append(v)
    if not values:
        raise ValueError("table has no rows after the header")
    expected = [0, 1, coatom_count][:len(values)]
    if values[:3] != expected:
        raise ValueError("table starts %r, but R(%d, 0..2) = %r"
                         % (values[:3], coatom_count, expected))
    return CountTable(coatom_count, len(values) - 1, values)


def iter_graph_dir(directory, coatom_count: int):
    """Yield the graphs of a census written by write_graph_files, ascending in r.

    Before any graph, conn_c{c}.manifest must list the strata
    conn_c{c}_r{r}.g6 for r = 0..c(c-1)/2 in order, then their total, and
    list the sizes every census has at r = 0, 1 and c(c-1)/2 (1, c - 1
    and 1); each stratum must exist and hold as many graphs as listed
    (checked before its first graph), and each line must decode, else
    GraphInputError names the file (and line).  The count, not this
    reader, rejects invalid graphs; a stratum in between truncated along
    with its manifest line passes here, and the count's labelled gate
    rejects it.
    """
    c = coatom_count
    manifest = os.path.join(directory, "conn_c%d.manifest" % c)
    try:
        with open(manifest) as fh:
            listed = [(name, int(n)) for name, n in map(str.split, fh)]
    except FileNotFoundError:
        raise GraphInputError("no manifest %r for %d coatoms" % (manifest, c)) from None
    except ValueError:
        raise GraphInputError("malformed manifest %r" % manifest) from None
    strata = [graph_file_name(c, r) for r in range(c * (c - 1) // 2 + 1)]
    if [name for name, _n in listed] != strata + ["total"]:
        raise GraphInputError("%r must list the %d strata, then total" % (manifest, len(strata)))
    *listed, (_total, total) = listed
    if total != sum(n for _name, n in listed):
        raise GraphInputError("%r: total %d is not the sum of the strata" % (manifest, total))
    # every census holds the bare coatoms, c - 1 single connectors (sizes 2..c)
    # and one graph with all c(c-1)/2 coatom pairs as connectors
    for r, want in {0: 1, 1: c - 1, len(listed) - 1: 1}.items():
        if r < len(listed) and listed[r][1] != want:
            raise GraphInputError("%r lists %d graphs in %s, every census has %d"
                                  % (manifest, listed[r][1], listed[r][0], want))
    for r, (name, n) in enumerate(listed):
        try:
            with open(os.path.join(directory, name), "rb") as fh:
                lines = [(k, line) for k, line in enumerate(fh, 1) if line.strip()]
        except FileNotFoundError:
            raise GraphInputError("missing stratum %s listed in %r" % (name, manifest)) from None
        if len(lines) != n:
            raise GraphInputError("%s holds %d graphs, the manifest %d" % (name, len(lines), n))
        for k, line in lines:
            try:
                graph = graph6_decode(line, c, r)
            except ValueError as exc:
                raise GraphInputError("%s line %d: %s" % (name, k, exc)) from None
            yield graph
