"""Exact counting of unlabeled graded rank-3 lattices.

A lattice here is determined by a bicolored connection graph (coatoms
versus connectors, the atoms shared by at least two coatoms) together
with a distribution of the remaining atoms over the coatoms.  The
package generates the graphs up to isomorphism, counts distributions by
cycle-index methods, aggregates exact count tables, and fits the tables'
eventual quasipolynomial closed forms.
"""

from .bigraph import (
    BicoloredGraph,
    ClassViolationError,
    Graph6Error,
    PermGroup,
    SizeMismatchError,
    UnsupportedSizeError,
    automorphism_group_on_coatoms,
    canonical_form,
    canonicalize,
    graph6_decode,
    graph6_encode,
    validate_connection_graph,
)
from .genconn import (
    brute_force_count,
    count_r_s,
    generate_connection_graphs,
    graph_file_name,
    write_graph_files,
)
from .pipeline import (
    CountTable,
    GraphInputError,
    MemoStats,
    count_lattices,
    count_lattices_stats,
    iter_graph_dir,
    read_csv,
    write_csv,
)
from .polya import (
    CycleIndex,
    cycle_index,
    group_balls,
)

__version__ = "0.1.0"

# rank3.quasifit and its public names below load on first access (PEP 562), so
# a count, which never fits, starts without it and its dataclasses, fractions and json
_FIT_NAMES = frozenset({
    "LEADING_TERMS",
    "FitArityError",
    "FitRejectedError",
    "NonIntegerValueError",
    "Quasipolynomial",
    "TheoremReport",
    "default_fit_parameters",
    "eval_quasipolynomial",
    "expand_period",
    "fit_for_coatoms",
    "fit_quasipolynomial",
    "p2",
    "p21",
    "p3",
    "quasipolynomial_from_json",
    "quasipolynomial_to_json",
    "reference_quasipolynomial",
    "verify_theorems",
})


def __getattr__(name):
    if name != "quasifit" and name not in _FIT_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # import_module, since a "from . import" here would ask this hook again
    from importlib import import_module
    quasifit = import_module(".quasifit", __name__)
    globals().update((n, getattr(quasifit, n)) for n in _FIT_NAMES)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _FIT_NAMES | {"quasifit"})


__all__ = [
    "BicoloredGraph",
    "ClassViolationError",
    "CountTable",
    "CycleIndex",
    "FitArityError",
    "FitRejectedError",
    "Graph6Error",
    "GraphInputError",
    "LEADING_TERMS",
    "MemoStats",
    "NonIntegerValueError",
    "PermGroup",
    "Quasipolynomial",
    "SizeMismatchError",
    "TheoremReport",
    "UnsupportedSizeError",
    "automorphism_group_on_coatoms",
    "brute_force_count",
    "canonical_form",
    "canonicalize",
    "count_lattices",
    "count_lattices_stats",
    "count_r_s",
    "cycle_index",
    "default_fit_parameters",
    "eval_quasipolynomial",
    "expand_period",
    "fit_for_coatoms",
    "fit_quasipolynomial",
    "generate_connection_graphs",
    "graph6_decode",
    "graph6_encode",
    "graph_file_name",
    "group_balls",
    "iter_graph_dir",
    "p2",
    "p21",
    "p3",
    "quasipolynomial_from_json",
    "quasipolynomial_to_json",
    "read_csv",
    "reference_quasipolynomial",
    "validate_connection_graph",
    "verify_theorems",
    "write_csv",
    "write_graph_files",
]
