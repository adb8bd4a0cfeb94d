"""Shared fixtures: graph lists and count tables reused across test files."""

import time

import pytest

import rank3

_c7_timing = {}


@pytest.fixture(scope="session")
def graphs_by_c():
    """Connection-graph lists for coatom counts 1..6."""
    return {c: list(rank3.generate_connection_graphs(c)) for c in range(1, 7)}


@pytest.fixture(scope="session")
def graphs_c7():
    """The 7-coatom census (about twenty seconds to build)."""
    t0 = time.time()
    graphs = list(rank3.generate_connection_graphs(7))
    _c7_timing["seconds"] = time.time() - t0
    return graphs


@pytest.fixture(scope="session")
def c7_build_seconds(graphs_c7):
    """Wall-clock seconds the 7-coatom census took to build."""
    return _c7_timing["seconds"]


@pytest.fixture(scope="session")
def tables_to_1000(graphs_by_c):
    """Count tables up to 1000 atoms for 2..6 coatoms."""
    return {c: rank3.count_lattices(c, 1000, graphs_by_c[c])
            for c in range(2, 7)}


@pytest.fixture(scope="session")
def table_c7(graphs_c7):
    """Count table up to 30 atoms for 7 coatoms."""
    return rank3.count_lattices(7, 30, graphs_c7)
