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
from .quasifit import (
    LEADING_TERMS,
    FitArityError,
    FitRejectedError,
    NonIntegerValueError,
    Quasipolynomial,
    TheoremReport,
    closed_form_p,
    default_fit_parameters,
    eval_quasipolynomial,
    expand_period,
    fit_for_coatoms,
    fit_quasipolynomial,
    p2,
    p21,
    p3,
    quasipolynomial_from_json,
    quasipolynomial_to_json,
    reference_quasipolynomial,
    verify_theorems,
)

__version__ = "0.1.0"

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
    "closed_form_p",
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
