"""End-to-end lattice counting: exact count tables, CSV and the census reader.

Each connection graph contributes the number of ways to distribute the
leftover atoms (those not forced by its connectors and bare coatoms) into
its coatoms up to the graph's own symmetry; summing over all graphs gives
R(c, a), the number of rank-3 lattices with c coatoms and a atoms.  A
graph g adds x^(r+s) Z_g(A(x), A(x^2), ...) with A(x) = 1/(1 - x).  Swapped
into a sum over cycle types lambda, R(c, .) is (1/c!) sum Q_lambda(x)
prod_i (1 - x^i)^(-m_i), where Q_lambda[k] adds (c!/|Aut g|) times the
elements of Aut g of type lambda over the graphs with r + s = k (10808
graphs at c = 7 fold into 15 polynomials).  The fold of graphs
(genconn.fold_graphs) and the count alike tally these terms per
(lambda, r, s), the cells of polya.fixed_family_counts, and
polya.one_denominator sums each lambda's cells into its Q_lambda.

A count lists no graphs.  Summed over the labelled families instead
of the classes, the cell (lambda, r, s) is |C_lambda| times the
labelled families with r connectors and s uncovered coatoms fixed by
one permutation of type lambda (Burnside's lemma; |C_lambda| the class
size), which polya.fixed_family_counts counts by orbits of connectors,
with no census and no search (ROADMAP.md, "Where it stands", gives its
times).  Its MemoStats carry the class count alone.
It loads no module: the graph layer, bigraph and genconn, is imported
only by a check of graphs and by iter_graph_dir.

A list of graphs is checked, not counted: genconn.check_graphs folds
it, and its cells must equal those of polya.fixed_family_counts, cell
by cell, the identity's first.  The cells of fixed_family_counts are
checked by the orbit-counting identity: in each (r, s) the cells of
all cycle types add up to c! times the classes, a multiple of c!.

The table comes from those cells alone: the polynomials summed into
one numerator N over polya's one denominator D = prod_i (1 - x^i)^M_i,
M_i the largest m_i of any type, and N / D expanded by sum_i M_i
running sums.  The polynomials of c are the same for every a, and the
first n terms of their truncated series do not depend on where it is
truncated.  So each c has one entry per process: N, its MemoStats, the
longest series expanded so far and each running sum's carries, its
last terms.  Repeated counts for one c count its cells once, and a
count the series already covers is one lookup and one copy of its
first a + 1 terms; a longer one continues the series from its carries,
to at least twice the old length, running the sums over the new terms
alone.  The polya docstring says what its counts keep.
"""

import contextlib
import math
import operator
import os
from collections import namedtuple

# the package, whose hook loads the graph layer, rank3.bigraph and rank3.genconn,
# on first access (see __init__): only a check of graphs and iter_graph_dir use it
import rank3

from .polya import extend_rational, fixed_family_counts, one_denominator, start_carries


class GraphInputError(ValueError):
    """Graph input that is not an isomorph-free census for the requested coatom
    count: the count names a bad graph by position, iter_graph_dir a damaged file."""


class CountTable:
    """Exact counts R(c, a) for a = 0..a_max at a fixed coatom count."""

    __slots__ = ("coatom_count", "a_max", "values")

    def __init__(self, coatom_count: int, a_max: int, values: list[int]):
        self.coatom_count, self.a_max, self.values = coatom_count, a_max, values
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


# coatom count -> (N, MemoStats, the carries at the series' end, the longest
# series substituted so far)
_generated = {}


def count_lattices_stats(coatom_count: int, max_atoms: int, graphs=None,
                         jobs=None) -> tuple[CountTable, MemoStats]:
    """Count table plus the MemoStats of its graphs for one pipeline run.

    The table is a slice of the coatom count's one entry, made as the
    module docstring says: one lookup and one copy where the entry's
    series covers ``max_atoms``, else the series is continued from its
    carries first.  A cell that breaks the orbit-counting identity raises
    ArithmeticError, and a coatom count that is not an integer TypeError.
    Without ``graphs`` no graph is listed, and the MemoStats hold the
    class count, with distinct_cycle_indices and trivial_action_graphs
    None.

    With ``graphs`` the MemoStats are those of
    genconn.check_graphs(coatom_count, graphs), which gates the graphs
    once the entry is made and the table sliced.  ``graphs`` and ``jobs``
    now serve only the benchmark's ``table`` round, until it times the
    production path (ROADMAP.md): ``rank3 count --graphs`` calls
    check_graphs itself, before it counts.  ``jobs``, which the traced
    replay passes as 2, is ignored: the split follows the usable CPUs.

    The returned table and its values are new on every call; the entry is
    never handed out.
    """
    # not >= so that NaN, which no comparison admits, is refused here
    if not coatom_count >= 1:
        raise ValueError("coatom count must be positive")
    if not max_atoms >= 0:
        raise ValueError("maximum atom count must be nonnegative")
    # TypeError for 3.0 before the entry of 3 is looked up, as with no entry
    c = operator.index(coatom_count)
    entry = _generated.get(c)
    if entry is None:
        cells = fixed_family_counts(c)
        # the cells of every type add up to c! times the classes
        classes = sum(sum(by_cell.values()) for by_cell in cells.values()) // math.factorial(c)
        numerator, exponents = one_denominator(cells)
        entry = numerator, MemoStats(classes, None, None), start_carries(exponents), []
    series = entry[3]
    if len(series) <= max_atoms:
        # to at least twice the old length, and stored once grown, so a growth
        # that raises leaves the entry as it was
        terms, carries = extend_rational(entry[0], entry[2], math.factorial(c),
                                         range(len(series), max(max_atoms + 1, 2 * len(series))))
        entry = _generated[c] = (*entry[:2], carries, series + terms)
    table = CountTable(c, max_atoms, entry[3][:max_atoms + 1])
    return table, entry[1] if graphs is None else rank3.genconn.check_graphs(c, graphs)


def count_lattices(coatom_count: int, max_atoms: int) -> CountTable:
    """Count table R(c, a) for a = 0..max_atoms; see count_lattices_stats.

    Where the entry's series covers max_atoms, the table is one lookup and
    one copy; any other count is count_lattices_stats's."""
    entry = _generated.get(coatom_count)
    if entry is not None and coatom_count.__class__ is int and 0 <= max_atoms < len(entry[3]):
        return CountTable(coatom_count, max_atoms, entry[3][:max_atoms + 1])
    return count_lattices_stats(coatom_count, max_atoms)[0]


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
