"""Shared fixtures: graph lists, count tables and oracle values reused across test files."""

import functools
import os
import time

import pytest

import rank3

from forking import usable_cpus

_c7_timing = {}


@pytest.fixture(scope="session")
def graphs_by_c():
    """Connection-graph lists for coatom counts 1..6."""
    return {c: list(rank3.generate_connection_graphs(c)) for c in range(1, 7)}


@pytest.fixture(scope="session")
def classes_by_c():
    """The generator's (canonical masks, kept group) classes for coatom counts 1..6."""
    return {c: list(rank3.genconn._classes(c)) for c in range(1, 7)}


@pytest.fixture(scope="session")
def classes_c7():
    """The generator's 7-coatom classes, built once per session (c7_build_seconds times it)."""
    t0 = time.time()
    classes = list(rank3.genconn._classes(7))
    _c7_timing["seconds"] = time.time() - t0
    return classes


@pytest.fixture(scope="session")
def graphs_c7(classes_c7):
    """The 7-coatom census: the graphs of classes_c7, as generate_connection_graphs yields them."""
    return [rank3.BicoloredGraph(7, masks) for masks, _group in classes_c7]


@pytest.fixture(scope="session")
def c7_build_seconds(classes_c7):
    """Wall-clock seconds the 7-coatom census took to build."""
    return _c7_timing["seconds"]


@pytest.fixture(scope="session")
def tables_to_1000(graphs_by_c):
    """Count tables up to 1000 atoms for 2..6 coatoms."""
    return {c: rank3.count_lattices_stats(c, 1000, graphs_by_c[c])[0]
            for c in range(2, 7)}


@pytest.fixture(scope="session")
def table_c7(graphs_c7):
    """Count table up to 2960 atoms for 7 coatoms, the length its fit needs."""
    return rank3.count_lattices_stats(7, 2960, graphs_c7)[0]


@pytest.fixture(scope="session")
def brute_force():
    """rank3.brute_force_count, each (c, a) computed once per session."""
    return functools.cache(rank3.brute_force_count)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, and the pids os.fork returns in this process, in order."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    usable_cpus(monkeypatch, 2)
    return pids
