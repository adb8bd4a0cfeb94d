"""Public API: ``rank3.__all__`` is sorted, resolves, and is documented, and
``import rank3`` loads the graph and fitting layers only when a name of
them is used, so a count without graphs runs on pipeline and polya alone."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rank3

DOCUMENTED = [name for name in rank3.__all__
              if inspect.isclass(getattr(rank3, name, None))
              or inspect.isfunction(getattr(rank3, name, None))]


def test_all_sorted_and_unique():
    assert rank3.__all__ == sorted(set(rank3.__all__))


def test_every_name_resolves():
    assert [name for name in rank3.__all__ if not hasattr(rank3, name)] == []


@pytest.mark.parametrize("name", DOCUMENTED)
def test_own_docstring(name):
    obj = getattr(rank3, name)
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    # a dataclass without a docstring gets its signature, Name(field: type, ...)
    assert doc and doc.strip() and not doc.startswith(name + "(")


# -- what start-up loads -------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rank3.__file__)))
# modules only a fit needs: rank3.quasifit and the standard modules it alone brings in
FIT_ONLY = ("rank3.quasifit", "dataclasses", "fractions")
# modules a count without graphs never needs: the graph layer, and the standard
# modules that the graph layer, the CSV interchange or a typing.NamedTuple bring in
GRAPH_ONLY = ("rank3.bigraph", "rank3.genconn", "csv", "signal", "typing")


def _fresh(code):
    """The last line code prints in a fresh ``python -S`` with this rank3 first on its path."""
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys\nsys.path.insert(0, %r)\n%s"
                           % (SRC, code)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_count_loads_no_fit():
    assert _fresh("import rank3\nrank3.count_lattices(5, 10)\n"
                  "print([m for m in %r if m in sys.modules])" % (FIT_ONLY,)) == "[]"


def test_count_loads_no_graph_layer():
    # nor does the count itself load any module
    assert _fresh("import rank3\nbefore = set(sys.modules)\nrank3.count_lattices(5, 10)\n"
                  "print([m for m in %r if m in sys.modules], sorted(set(sys.modules) - before))"
                  % (GRAPH_ONLY,)) == "[] []"


@pytest.mark.parametrize("argv", [
    ["count", "--coatoms", "5", "--max-atoms", "10", "--out", "{dir}/c5.csv"],
    ["generate", "--coatoms", "4", "--out", "{dir}"],
    ["verify", "--max-total", "5"],
    ["count", "--coatoms", "4", "--max-atoms", "10", "--graphs", "{dir}/g4",
     "--out", "{dir}/c4.csv"],
], ids=["count", "generate", "verify", "count-graphs"])
def test_commands_load_no_fit(tmp_path, argv):
    rank3.write_graph_files(tmp_path / "g4", 4)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert _fresh("import rank3.cli\nassert rank3.cli.main(%r) == 0\n"
                  "print([m for m in %r if m in sys.modules])" % (argv, FIT_ONLY)) == "[]"


def test_count_command_loads_no_graph_layer(tmp_path):
    argv = ["count", "--coatoms", "5", "--max-atoms", "10", "--out", str(tmp_path / "c5.csv")]
    assert _fresh("import rank3.cli\nassert rank3.cli.main(%r) == 0\n"
                  "print([m for m in ('rank3.bigraph', 'rank3.genconn') if m in sys.modules])"
                  % (argv,)) == "[]"


def test_fit_name_loads_fit():
    assert _fresh("import rank3\nloaded = 'rank3.quasifit' in sys.modules\n"
                  "fit = rank3.fit_for_coatoms\n"
                  "print(loaded, fit is sys.modules['rank3.quasifit'].fit_for_coatoms)"
                  ) == "False True"


def test_names_resolve_to_their_submodules():
    # after a bare import rank3 the graph layer loads on its first name, and
    # every name of __all__ is the object of each submodule that holds it
    assert _fresh("import rank3\nloaded = 'rank3.bigraph' in sys.modules\n"
                  "layer = [rank3.bigraph, rank3.genconn] == [sys.modules['rank3.bigraph'],\n"
                  "                                           sys.modules['rank3.genconn']]\n"
                  "names = {n: getattr(rank3, n) for n in rank3.__all__}\n"
                  "subs = [vars(sys.modules['rank3.' + m])\n"
                  "        for m in ('bigraph', 'genconn', 'pipeline', 'polya', 'quasifit')]\n"
                  "print(loaded, layer,\n"
                  "      [n for n, obj in names.items() if not [ns for ns in subs if n in ns]\n"
                  "       or any(ns[n] is not obj for ns in subs if n in ns)])"
                  ) == "False True []"


def test_first_use_is_listed_by_importtime():
    # the hook imports the graph layer by __import__, which -X importtime
    # times, so its first use lists both modules
    proc = subprocess.run([sys.executable, "-X", "importtime", "-S", "-c",
                           "import sys\nsys.path.insert(0, %r)\nimport rank3\nrank3.genconn" % SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"rank3.bigraph", "rank3.genconn"} <= listed


def test_dir_and_star_import_give_every_name():
    assert _fresh("import rank3\nlisted = set(dir(rank3))\nns = {}\n"
                  "exec('from rank3 import *', ns)\n"
                  "print([n for n in rank3.__all__ if n not in listed or n not in ns],\n"
                  "      all(ns[n] is getattr(rank3, n) for n in rank3.__all__), 'quasifit' in listed)"
                  ) == "[] True True"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'rank3' has no attribute 'nope'$"):
        getattr(rank3, "nope")


# -- one rule for every count argument -----------------------------------------

# 3 and True are counts, 0 and -1 ints out of some ranges, the rest no counts
VALUES = [3, True, 0, -1, 3.0, 0.5, float("nan"), float("inf"), Fraction(3), "3", None]
# a graph on 3 coatoms and 3 connectors, 6 vertices
LINE = rank3.graph6_encode(rank3.BicoloredGraph(3, [0b011, 0b110, 0b101]))


def _size_checked_first(coatoms, connectors):
    """graph6_decode's size check, which meets both counts before either is
    checked: its SizeMismatchError where the sum is not 6, else None."""
    try:
        if coatoms + connectors == 6:
            return None
    except TypeError:
        return None
    return (rank3.SizeMismatchError,
            "encoding has 6 vertices, expected %s + %s" % (coatoms, connectors))


# the call of one count argument -> (its count's name, least value, the outcome
# of an earlier check that meets the value first, or None)
COUNT_ARGUMENTS = {
    "BicoloredGraph": (lambda v: rank3.BicoloredGraph(v, []), "coatom count", 0, None),
    "graph6_decode-coatoms": (lambda v: rank3.graph6_decode(LINE, v, 3), "coatom count", 0,
                              lambda v: _size_checked_first(v, 3)),
    "graph6_decode-connectors": (lambda v: rank3.graph6_decode(LINE, 3, v), "connector count",
                                 0, lambda v: _size_checked_first(3, v)),
    "generate_connection_graphs": (lambda v: list(rank3.generate_connection_graphs(v)),
                                   "coatom count", 1, None),
    # into the working directory, the test's own
    "write_graph_files": (lambda v: rank3.write_graph_files("census", v), "coatom count", 1,
                          None),
    "graph_file_name-coatoms": (lambda v: rank3.genconn.graph_file_name(v, 1), "coatom count",
                                1, None),
    "graph_file_name-connectors": (lambda v: rank3.genconn.graph_file_name(3, v),
                                   "connector count", 0, None),
    # a census of 3 coatoms in "census3", written by the test
    "iter_graph_dir": (lambda v: list(rank3.iter_graph_dir("census3", v)), "coatom count", 1,
                       None),
    "fold_graphs": (lambda v: rank3.genconn.fold_graphs(v, rank3.generate_connection_graphs(3)),
                    "coatom count", 1, None),
    "check_graphs": (lambda v: rank3.genconn.check_graphs(v, rank3.generate_connection_graphs(3)),
                     "coatom count", 1, None),
    "brute_force_count-coatoms": (lambda v: rank3.brute_force_count(v, 2), "coatom count", 1,
                                  None),
    "brute_force_count-atoms": (lambda v: rank3.brute_force_count(2, v), "atom count", 1, None),
    "count_lattices-coatoms": (lambda v: rank3.count_lattices(v, 5), "coatom count", 1, None),
    "count_lattices-atoms": (lambda v: rank3.count_lattices(3, v), "maximum atom count", 0,
                             None),
    "count_lattices_stats-coatoms": (lambda v: rank3.count_lattices_stats(v, 5), "coatom count",
                                     1, None),
    "count_lattices_stats-atoms": (lambda v: rank3.count_lattices_stats(3, v),
                                   "maximum atom count", 0, None),
    # R(3, 0..5) in "c3.csv", written by the test
    "read_csv": (lambda v: rank3.read_csv("c3.csv", v), "coatom count", 1, None),
    "expand_rational": (lambda v: rank3.polya.expand_rational((1,), (1,), 1, v),
                        "series length", 0, None),
    "group_balls-boxes": (lambda v: rank3.group_balls(rank3.polya.symmetric_cycle_index(3), v, 5),
                          "box count", 0, None),
    "group_balls-balls": (lambda v: rank3.group_balls(rank3.polya.symmetric_cycle_index(3), 3, v),
                          "maximum ball count", 0, None),
    "fixed_family_counts": (rank3.polya.fixed_family_counts, "coatom count", 1, None),
    "symmetric_cycle_index": (rank3.polya.symmetric_cycle_index, "degree", 0, None),
    "default_fit_parameters": (rank3.default_fit_parameters, "coatom count", 1, None),
    "eval_quasipolynomial": (lambda v: rank3.eval_quasipolynomial(
        rank3.reference_quasipolynomial(3), v), "atom count", 0, None),
    "reference_quasipolynomial": (rank3.reference_quasipolynomial, "coatom count", 1, None),
}


def _outcome(call, value):
    """What call(value) returns, or the class and text of what it raises."""
    try:
        return call(value)
    except Exception as exc:
        return type(exc), str(exc)


def _cold():
    for c in 1, 3:
        rank3.pipeline._generated.pop(c, None)


def _cached():
    # entries whose series cover 5 atoms, for 3 and its alikes and for True
    for c in 1, 3:
        rank3.count_lattices(c, 10)


@pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
def test_count_argument_rule(argument, tmp_path, monkeypatch):
    # an int or bool in range gives the int's answer; below the range, or NaN,
    # the one ValueError text; any other type TypeError, whose text is Python's
    # (operator.index's, or that of the slice of a count's cached hit); each
    # alike with no entry made for the count and with its entry cached
    call, name, least, earlier = COUNT_ARGUMENTS[argument]
    monkeypatch.chdir(tmp_path)
    rank3.write_graph_files("census3", 3)
    rank3.write_csv(rank3.count_lattices(3, 5), "c3.csv")
    below = (ValueError, "%s must be %s" % (name, "positive" if least else "nonnegative"))
    for value in VALUES:
        outcomes = []
        for state in _cold, _cached:
            state()
            outcomes.append(_outcome(call, value))
        expected = earlier and earlier(value)
        if expected is None and isinstance(value, int):
            expected = _outcome(call, int(value)) if value >= least else below
            if value == 3:    # a count of every kind here, so an answer
                assert not (type(expected) is tuple
                            and expected[0] in (TypeError, ValueError)), (argument, expected)
        elif expected is None:
            numeric = isinstance(value, (float, Fraction))
            expected = below if numeric and not value >= least else TypeError
        for got, state in zip(outcomes, ("cold", "cached")):
            if expected is TypeError:
                assert type(got) is tuple and got[0] is TypeError, (argument, value, state, got)
            else:
                assert got == expected, (argument, value, state)
