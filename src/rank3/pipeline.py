"""End-to-end lattice counting: graphs in, exact count tables out.

Each connection graph contributes the number of ways to distribute the
leftover atoms (those not forced by its connectors and bare coatoms) into
its coatoms up to the graph's own symmetry; summing over all graphs gives
R(c, a), the number of rank-3 lattices with c coatoms and a atoms.  A
graph g adds x^(r+s) Z_g(A(x), A(x^2), ...) with A(x) = 1/(1 - x).  Swapped
into a sum over cycle types lambda, R(c, .) is (1/c!) sum Q_lambda(x)
prod_i (1 - x^i)^(-m_i), where Q_lambda[k] adds (c!/|Aut g|) times the
elements of Aut g of type lambda over the graphs with r + s = k (10808
graphs at c = 7 fold into 15 polynomials).  Both paths below first
tally these terms per (lambda, r, s), the cells of
polya.fixed_family_counts, and _terms sums each lambda's cells into
its Q_lambda.  The fold builds one cycle index per distinct automorphism
group (182 for the 10808 graphs at c = 7).

A count without graphs lists none.  Summed over the labelled families
instead of the classes, the cell (lambda, r, s) is |C_lambda| times the
labelled families with r connectors and s uncovered coatoms fixed by
one permutation of type lambda (Burnside's lemma; |C_lambda| the class
size), which polya.fixed_family_counts counts by orbits of
connectors, with no census and no search (ROADMAP.md, "Where it
stands", gives its times).  Its MemoStats carry the class count alone.
It loads no module: the graph layer, bigraph and genconn, is imported
only by _fold_profile and iter_graph_dir, on the first count of graphs
or read of a census.

Graphs passed in or read are checked and measured (r and s) once each,
on every usable CPU, by _search, and walked in order by _fold_profile,
the one loop over them.  A graph's coatom search gives its group and
the canonical form that checks the list is isomorph-free; the graphs
S_c maps onto themselves (bigraph._symmetric) get their sorted masks
and S_c with no search, so the r = 0 class folds at once at any c.
_fold_profile maps _search over each chunk through genconn._in_shares,
which says when it forks (not for the 72 graphs at c = 5); it imports
the graph layer before the first fork, so no child compiles a module.

Every count of graphs is a gated check: after its fold its cells must
equal those of polya.fixed_family_counts, cell by cell, the identity's
first.  A class G stands for c!/|Aut G| labelled families, so a missing
class (a stratum truncated with its manifest line) breaks the
identity's cells, the labelled families; a group of the right order
with the wrong elements breaks another type's.  The cells of
fixed_family_counts are checked by the orbit-counting identity: in each
(r, s) the cells of all cycle types add up to c! times the classes, a
multiple of c!.

The table comes from those cells, with or without graphs: the
polynomials summed into one numerator N over polya's one denominator
D = prod_i (1 - x^i)^M_i, M_i the largest m_i of any type, and N / D
expanded by sum_i M_i running sums.  The polynomials of c are the same
for every a, and the first n terms of their truncated series do not
depend on where it is truncated.  So each c has one entry per process:
its cells, N, D's exponents, its MemoStats and the longest series
expanded so far.  A count of graphs gates its fold on the entry's cells
and returns the fold's MemoStats with a slice of the entry's series.
Repeated counts for one c count its cells once, and a count the series
already covers is a copy of its first a + 1 terms; a longer one expands
N / D again, to at least twice the old length, which costs only the
running sums.  The polya docstring says what its counts keep.
"""

import contextlib
import functools
import itertools
import math
import os
from collections import Counter, defaultdict, namedtuple

# the package, whose hook loads the graph layer, rank3.bigraph and rank3.genconn,
# on first access (see __init__): only a count of graphs and iter_graph_dir use it
import rank3

from .polya import (cycle_index, expand_rational, fixed_family_counts, one_denominator,
                    symmetric_cycle_index)


class GraphInputError(ValueError):
    """Graph input that is not an isomorph-free census for the requested coatom
    count: the count names a bad graph by position, iter_graph_dir a damaged file."""


class CountTable:
    """Exact counts R(c, a) for a = 0..a_max at a fixed coatom count."""

    def __init__(self, coatom_count: int, a_max: int, values: list[int] | None = None):
        self.coatom_count, self.a_max = coatom_count, a_max
        self.values = [] if values is None else values
        if len(self.values) != a_max + 1:
            raise ValueError("expected %d values, got %d" % (a_max + 1, len(self.values)))

    def __repr__(self):
        return "CountTable(coatom_count=%r, a_max=%r, values=%r)" % (
            self.coatom_count, self.a_max, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.coatom_count, self.a_max, self.values)
                == (other.coatom_count, other.a_max, other.values))


class MemoStats(namedtuple(
        "MemoStats", "graphs_processed distinct_cycle_indices trivial_action_graphs")):
    """Graphs counted, distinct cycle indices, and graphs with trivial Aut.

    A count without graphs lists no graphs: graphs_processed is then its
    class count, and the two census statistics are None.
    """

    __slots__ = ()


def _check_cells(coatom_count: int, cells, want) -> None:
    """GraphInputError naming the first (cycle type, r, s), and both numbers,
    where a fold's cells (see _fold_profile) differ from ``want``, the
    cells of polya.fixed_family_counts: the types in descending order,
    so the identity's cells, the labelled families, come first."""
    c = coatom_count
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


# graphs taken from the input at a time: the c = 7 census in one round, one
# fork on two CPUs and no child idle between chunks, for 0.2 MB more than
# with 4096; a c = 8 --graphs count still streams, in 34 rounds
_CHUNK = 16384


def _search(c: int, kept: dict, graph):
    """Why graph is rejected, if it does not have c coatoms or fails
    validate_connection_graph, else (canonical masks, or None where they
    are the graph's own, winners tuple, r, s).

    A graph that bigraph._symmetric accepts gets its sorted masks and
    winners None, S_c's slot, with no search.  Equal winner tuples are one
    object through kept, one dict per fold, since marshal writes each
    object once: a child's share of 5404 graphs of the c = 7 census sends
    262,365 bytes with it, 871,504 without."""
    bigraph, genconn = rank3.bigraph, rank3.genconn
    try:
        if graph.coatom_count != c:
            raise ValueError("%d coatoms, expected %d" % (graph.coatom_count, c))
        bigraph.validate_connection_graph(graph)
    except ValueError as exc:
        return str(exc)
    masks = graph.connector_masks
    r, s = genconn.count_r_s(graph)
    if bigraph._symmetric(c, masks):
        canon, winners = tuple(sorted(masks)), None
    else:
        canon, winners = bigraph._coatom_search(c, masks)
        winners = tuple(winners)
        winners = kept.setdefault(winners, winners)
    return (None if canon == masks else canon, winners, r, s)


def _fold_profile(coatom_count: int, graphs) -> tuple:
    """({cycle type: {(r, s): n}}, MemoStats) of graphs passed in or read:
    n adds c!/|G| times the elements of that type in G over the graphs
    with group G, r connectors and s uncovered coatoms, the shape of
    polya.fixed_family_counts.  Each distinct winners tuple gets one
    group and cycle index, and S_c's slot, the winners None of _search,
    the index polya.symmetric_cycle_index makes from its class sizes.

    This is the one loop over the graphs.  Each round takes up to _CHUNK
    of them, has genconn._in_shares check, search and measure each by
    _search, then walks the results in order: it dedupes by canonical
    masks and raises GraphInputError by 1-based position at the first
    rejected graph or isomorphic copy, so no answer or error depends on a
    child.  If the input raises, the graphs taken before it are walked
    first, so the first error is the one a graph-by-graph count meets.
    The graph layer is imported here, before any child forks."""
    bigraph, genconn = rank3.bigraph, rank3.genconn
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
        for graph, found in zip(chunk, genconn._in_shares(search, chunk)):
            k += 1
            if isinstance(found, str):
                raise GraphInputError("graph %d %r: %s" % (k, graph, found))
            canon, winners, r, s = found
            # the graph's own tuple when it is canonical, so keeping it makes no second copy
            canon = graph.connector_masks if canon is None else canon
            if canon in seen:
                raise GraphInputError("graph %d is isomorphic to an earlier graph" % k)
            seen.add(canon)
            profile[slots.setdefault(winners, len(slots)), r, s] += 1
        if failure is not None:
            raise failure
        if len(chunk) < _CHUNK:
            break
    indices = [symmetric_cycle_index(c) if winners is None
               else cycle_index(bigraph._group_of_winners(c, winners)) for winners in slots]
    cells, trivial = defaultdict(Counter), 0
    for (slot, r, s), n in profile.items():
        zindex = indices[slot]
        trivial += n if zindex.order == 1 else 0
        copies = n * (c_factorial // zindex.order)    # an integer by Lagrange
        for expo, count in zindex.counts:
            cells[expo][r, s] += copies * count
    return ({expo: dict(by_cell) for expo, by_cell in cells.items()},
            MemoStats(k, len(set(indices)), trivial))


def _terms(coatom_count: int, cells) -> tuple:
    """((cycle type, Q), ...) in type order, as in the module docstring: Q[k]
    of a type is its cells (see _fold_profile) summed over r + s = k."""
    terms = []
    for expo, by_cell in sorted(cells.items()):
        row = [0] * (coatom_count * (coatom_count + 1) // 2 + 1)    # r + s <= c(c-1)/2 + c
        for (r, s), n in by_cell.items():
            row[r + s] += n
        terms.append((expo, tuple(row)))
    return tuple(terms)


# coatom count -> (cells, N, D's exponents, MemoStats, the longest series substituted so far)
_generated = {}


def count_lattices_stats(coatom_count: int, max_atoms: int, graphs=None,
                         jobs=None) -> tuple[CountTable, MemoStats]:
    """Count table plus the MemoStats of its graphs for one pipeline run.

    Every table is a slice of the coatom count's one entry, made and
    lengthened as the module docstring says; a cell that breaks the
    orbit-counting identity raises ArithmeticError.  Without
    ``graphs`` no graph is listed, and the MemoStats hold the class count,
    with distinct_cycle_indices and trivial_action_graphs None.

    ``graphs`` is any iterable of connection graphs forming a complete
    isomorph-free list for ``coatom_count``; a count of them is a gated
    check.  _fold_profile checks, searches and folds them with the result
    and error of a count in one process, and no child outlives the call:
    a wrong coatom count, a failed validate_connection_graph or an
    isomorph of an earlier graph raises GraphInputError naming its 1-based
    position, and so does the first cell that misses the entry's.  The
    MemoStats are then the fold's.

    The returned table and its values are new on every call; the entry is
    never handed out.  ``jobs`` is accepted and ignored, because the
    benchmark's traced replay still passes ``jobs=2``; it does not choose
    the split, which follows the usable CPUs alone.
    """
    if coatom_count < 1:
        raise ValueError("coatom count must be positive")
    if max_atoms < 0:
        raise ValueError("maximum atom count must be nonnegative")
    c = coatom_count
    if graphs is not None:
        cells, stats = _fold_profile(c, graphs)
    if c in _generated:
        want, numerator, exponents, generated, series = _generated[c]
    else:
        want = fixed_family_counts(c)
        terms = _terms(c, want)
        # the cells of every type add up to c! times the classes
        generated = MemoStats(sum(sum(q) for _expo, q in terms) // math.factorial(c), None, None)
        numerator, exponents = one_denominator(terms)
        series = []
    if len(series) <= max_atoms:
        # stored once substituted, so a substitution that raises leaves the entry as it was
        length = max(max_atoms + 1, 2 * len(series))
        series = expand_rational(numerator, exponents, math.factorial(c), length)
        _generated[c] = want, numerator, exponents, generated, series
    table = CountTable(c, max_atoms, series[:max_atoms + 1])
    if graphs is None:
        return table, generated
    _check_cells(c, cells, want)
    return table, stats


def count_lattices(coatom_count: int, max_atoms: int, graphs=None) -> CountTable:
    """Count table R(c, a) for a = 0..max_atoms; see count_lattices_stats."""
    table, _stats = count_lattices_stats(coatom_count, max_atoms, graphs)
    return table


# -- interchange ---------------------------------------------------------------


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


def _ascii_int(text: str) -> int:
    """int(text) where text is ASCII digits alone, as write_csv and
    genconn.manifest_text write a count; any other string int() takes (a
    sign, spaces, underscores, another script's digits) raises ValueError."""
    value = int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected ASCII digits, got %r" % text)
    return value


def write_csv(table: CountTable, path) -> None:
    """Write an ``a,R`` table, one row per atom count 0..a_max, atomically."""
    import csv
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "R"])
        for a, v in enumerate(table.values):
            writer.writerow([a, v])


def read_csv(path, coatom_count: int) -> CountTable:
    """Read an ``a,R`` table written by write_csv as a table for ``coatom_count``.

    Each field must be ASCII digits, as write_csv writes it.  Every c >= 1
    has R(c, 0) = 0, R(c, 1) = 1 and R(c, 2) = c, so a table whose first
    rows disagree belongs to another coatom count and raises ValueError; a
    table with a_max < 2 cannot be told apart this way.
    """
    import csv
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
            a, v = _ascii_int(row[0]), _ascii_int(row[1])
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
    conn_c{c}_r{r}.g6 for r = 0..c(c-1)/2 in order, then their total, in
    ASCII digits, and list the sizes every census has at r = 0, 1 and
    c(c-1)/2 (1, c - 1 and 1); each stratum must exist and hold as many
    graphs as listed (checked before its first graph), and each line must
    decode, else GraphInputError names the file (and line).  The count,
    not this reader, rejects invalid graphs; a stratum in between
    truncated along with its manifest line passes here, and the count's
    cell gate rejects it.
    """
    bigraph, genconn = rank3.bigraph, rank3.genconn
    c = coatom_count
    manifest = os.path.join(directory, "conn_c%d.manifest" % c)
    try:
        with open(manifest) as fh:
            listed = [(name, _ascii_int(n)) for name, n in map(str.split, fh)]
    except FileNotFoundError:
        raise GraphInputError("no manifest %r for %d coatoms" % (manifest, c)) from None
    except ValueError:
        raise GraphInputError("malformed manifest %r" % manifest) from None
    strata = [genconn.graph_file_name(c, r) for r in range(c * (c - 1) // 2 + 1)]
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
                graph = bigraph.graph6_decode(line, c, r)
            except ValueError as exc:
                raise GraphInputError("%s line %d: %s" % (name, k, exc)) from None
            yield graph
