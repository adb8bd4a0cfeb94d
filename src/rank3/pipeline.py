"""End-to-end lattice counting: graphs in, exact count tables out.

Each connection graph contributes the number of ways to distribute the
leftover atoms (those not forced by its connectors and bare coatoms) into
its coatoms up to the graph's own symmetry; summing over all graphs gives
R(c, a), the number of rank-3 lattices with c coatoms and a atoms.  A
graph enters that sum only through its cycle index and its shift r + s, so
the graphs are first reduced to a profile, Counter{(cycle index, shift):
multiplicity} (10808 graphs at c = 7 give 365 entries over 38 cycle
indices); the canonical forms found with the groups check the list is
isomorph-free.  The ball series of each distinct cycle index is then
computed once and added at each of its shifts, scaled by the multiplicity.

The profile of c is the same for every a, so the profiles of generated
graphs are kept in a small per-process cache (at most PROFILE_CACHE_SIZE,
least recently used dropped first): repeated counts for one c generate
and reduce its graphs once.  Only the profile is cached; every call
builds its ball series and table afresh.  Graphs passed in explicitly
bypass the cache.
"""

import contextlib
import csv
import functools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import add

from .bigraph import _canonical_masks_and_group, graph6_decode, validate_connection_graph
from .genconn import atomic_open, count_r_s, generate_connection_graphs, graph_file_name
from .polya import cycle_index, group_balls


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


def _reduce(coatom_count: int, graph) -> tuple:
    """(canonical masks, cycle index of Aut, r + s) of one graph; the masks are the
    graph's own tuple when it is canonical, so keeping them makes no second copy."""
    if graph.coatom_count != coatom_count:
        raise GraphInputError("graph has %d coatoms, expected %d"
                              % (graph.coatom_count, coatom_count))
    canon, group = _canonical_masks_and_group(graph)
    r, s = count_r_s(graph)
    return (graph.connector_masks if canon == graph.connector_masks else canon,
            cycle_index(group), r + s)


# Generated profiles one process keeps.  Each is a few hundred entries
# (365 at c = 7), and no c above 8 can be generated in practice.
PROFILE_CACHE_SIZE = 8


def _fold_profile(coatom_count: int, graphs, jobs: int) -> tuple:
    """The graphs' profile as ((cycle index, shift), multiplicity) items."""
    reduce = functools.partial(_reduce, coatom_count)
    seen, profile = set(), Counter()
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for k, (canon, zindex, shift) in enumerate(
                pool.map(reduce, graphs, chunksize=512) if pool else map(reduce, graphs), 1):
            if canon in seen:
                raise GraphInputError("graph %d is isomorphic to an earlier graph" % k)
            seen.add(canon)
            profile[zindex, shift] += 1
    return tuple(profile.items())


@functools.lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _generated_profile(coatom_count: int, jobs: int) -> tuple:
    """Profile of the generated graphs.  ``jobs`` is part of the key only
    because lru_cache keys on every argument; it does not change the result."""
    return _fold_profile(coatom_count, generate_connection_graphs(coatom_count), jobs)


def count_lattices_stats(coatom_count: int, max_atoms: int, graphs=None,
                         jobs: int = 1) -> tuple[CountTable, MemoStats]:
    """Count table plus memo statistics for one pipeline run.

    ``graphs`` is any iterable of connection graphs forming a complete
    isomorph-free list for ``coatom_count``; a graph isomorphic to an
    earlier one raises GraphInputError.  Without ``graphs`` the graphs
    are generated, and their profile is cached per process (bounded by
    PROFILE_CACHE_SIZE; explicit graphs are always reduced afresh), so a
    later call for the same coatom count skips generation and reduction.
    ``jobs`` only decides where the per-graph search runs, in this
    process or in that many workers; one loop folds the results in input
    order.  The returned table and its values are new on every call.
    """
    if coatom_count < 1:
        raise ValueError("coatom count must be positive")
    if max_atoms < 0:
        raise ValueError("maximum atom count must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    profile = (_generated_profile(coatom_count, jobs) if graphs is None
               else _fold_profile(coatom_count, graphs, jobs))
    values = [0] * (max_atoms + 1)
    balls = {}
    for (zindex, shift), multiplicity in profile:
        if zindex not in balls:
            balls[zindex] = group_balls(zindex, coatom_count, max_atoms)
        series = balls[zindex]
        if multiplicity > 1:
            series = [multiplicity * b for b in series]
        values[shift:] = map(add, values[shift:], series)
    trivial = sum(n for (zindex, _shift), n in profile if zindex.order == 1)
    return (CountTable(coatom_count, max_atoms, values),
            MemoStats(sum(n for _key, n in profile), len(balls), trivial))


def count_lattices(coatom_count: int, max_atoms: int, graphs=None,
                   jobs: int = 1) -> CountTable:
    """Count table R(c, a) for a = 0..max_atoms; see count_lattices_stats."""
    table, _stats = count_lattices_stats(coatom_count, max_atoms, graphs, jobs)
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
    stratum must hold as many graphs as listed (checked before its first
    graph), and each line must decode to a valid connection graph, so a
    damaged census raises GraphInputError naming the file and line
    instead of counting a wrong table.
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
        with open(os.path.join(directory, name), "rb") as fh:
            lines = [(k, line) for k, line in enumerate(fh, 1) if line.strip()]
        if len(lines) != n:
            raise GraphInputError("%s holds %d graphs, the manifest %d" % (name, len(lines), n))
        for k, line in lines:
            try:
                graph = graph6_decode(line, c, r)
                validate_connection_graph(graph)
            except ValueError as exc:
                raise GraphInputError("%s line %d: %s" % (name, k, exc)) from None
            yield graph
