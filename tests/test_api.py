"""Public API: ``rank3.__all__`` is sorted, resolves, and is documented, and
``import rank3`` loads the graph and fitting layers only when a name of
them is used, so a count without graphs runs on pipeline and polya alone."""

import inspect
import os
import subprocess
import sys

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


def test_dir_and_star_import_give_every_name():
    assert _fresh("import rank3\nlisted = set(dir(rank3))\nns = {}\n"
                  "exec('from rank3 import *', ns)\n"
                  "print([n for n in rank3.__all__ if n not in listed or n not in ns],\n"
                  "      all(ns[n] is getattr(rank3, n) for n in rank3.__all__), 'quasifit' in listed)"
                  ) == "[] True True"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'rank3' has no attribute 'nope'$"):
        getattr(rank3, "nope")
