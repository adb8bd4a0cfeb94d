"""End-to-end lattice counting: graphs in, exact count tables out.

Each connection graph contributes the number of ways to distribute the
leftover atoms (those not forced by its connectors and bare coatoms) into
its coatoms up to the graph's own symmetry; summing over all graphs gives
R(c, a), the number of rank-3 lattices with c coatoms and a atoms.  A
graph g adds x^(r+s) Z_g(A(x), A(x^2), ...) with A(x) = 1/(1 - x).  Swapped
into a sum over cycle types lambda, R(c, .) is (1/c!) sum Q_lambda(x)
prod_i (1 - x^i)^(-m_i), where Q_lambda[k] adds (c!/|Aut g|) times the
elements of Aut g of type lambda over the graphs with r + s = k (10808
graphs at c = 7 fold into 15 polynomials); the canonical forms found with
the groups check the list is isomorph-free.

The polynomials of c are the same for every a, so those of the generated
graphs are cached per process, one entry per coatom count: repeated
counts for one c generate and fold its graphs once.  Every call builds
its table afresh.  Graphs passed in explicitly bypass the cache.
"""

import csv
import functools
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field

from .bigraph import _canonical_masks_and_group, graph6_decode, validate_connection_graph
from .genconn import atomic_open, count_r_s, generate_connection_graphs, graph_file_name
from .polya import cycle_index, substitute_cycle_types


class GraphInputError(ValueError):
    """Graph input that is not an isomorph-free census for the requested coatom count."""


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


def _fold_profile(coatom_count: int, graphs) -> tuple:
    """The graphs' ((cycle type, Q), ...) as in the module docstring, and their MemoStats."""
    c = coatom_count
    c_factorial = math.factorial(c)
    seen, indices, trivial, k = set(), set(), 0, 0
    q = defaultdict(lambda: [0] * (c * (c + 1) // 2 + 1))    # r + s <= c(c-1)/2 + c
    for k, graph in enumerate(graphs, 1):
        if graph.coatom_count != c:
            raise GraphInputError("graph has %d coatoms, expected %d" % (graph.coatom_count, c))
        canon, group = _canonical_masks_and_group(graph)
        if canon in seen:
            raise GraphInputError("graph %d is isomorphic to an earlier graph" % k)
        # the graph's own tuple when it is canonical, so keeping it makes no second copy
        seen.add(graph.connector_masks if canon == graph.connector_masks else canon)
        zindex = cycle_index(group)
        indices.add(zindex)
        trivial += zindex.order == 1
        shift = sum(count_r_s(graph))
        for expo, count in zindex.counts:
            q[expo][shift] += c_factorial // zindex.order * count    # an integer by Lagrange
    return (tuple((expo, tuple(row)) for expo, row in sorted(q.items())),
            MemoStats(k, len(indices), trivial))


@functools.cache
def _generated_profile(coatom_count: int) -> tuple:
    """Cycle-type polynomials and MemoStats of the generated graphs."""
    return _fold_profile(coatom_count, generate_connection_graphs(coatom_count))


def count_lattices_stats(coatom_count: int, max_atoms: int, graphs=None,
                         jobs=None) -> tuple[CountTable, MemoStats]:
    """Count table plus memo statistics for one pipeline run.

    ``graphs`` is any iterable of connection graphs forming a complete
    isomorph-free list for ``coatom_count``; a graph isomorphic to an
    earlier one raises GraphInputError.  They fold into one polynomial Q
    per cycle type, substituted once into (1/c!) sum Q prod (1 - x^i)^(-m_i).
    Without ``graphs`` the graphs are generated and their polynomials
    cached per process, so a later call for the same coatom count skips
    generation and folding.  The returned table and its values are new on
    every call.  ``jobs`` is accepted and ignored, because the benchmark's
    traced replay still passes ``jobs=2``.
    """
    if coatom_count < 1:
        raise ValueError("coatom count must be positive")
    if max_atoms < 0:
        raise ValueError("maximum atom count must be nonnegative")
    terms, stats = (_generated_profile(coatom_count) if graphs is None
                    else _fold_profile(coatom_count, graphs))
    values = substitute_cycle_types(terms, math.factorial(coatom_count), max_atoms + 1)
    return CountTable(coatom_count, max_atoms, values), stats


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
    conn_c{c}_r{r}.g6 for r = 0..c(c-1)/2 in order, then their total; each
    stratum must exist and hold as many graphs as listed (checked before
    its first graph), and each line must decode to a valid connection
    graph, so a damaged census raises GraphInputError naming the file and
    line instead of counting a wrong table.
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
                validate_connection_graph(graph)
            except ValueError as exc:
                raise GraphInputError("%s line %d: %s" % (name, k, exc)) from None
            yield graph
