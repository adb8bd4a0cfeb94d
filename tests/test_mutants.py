"""Each check catches the defect it exists for: a standing list of source mutants.

A mutant is a copy of src/ with one exact fragment of one file replaced.
The runner asserts that the fragment occurs exactly once in the copy, so
a refactor that moves or rewrites it fails here until its entry is
updated.  It then runs the tests named with the mutant, with -x, in a
fresh process whose rank3 is the copy, and expects them to fail; on an
unmutated copy they must pass.  Each case prints its mutant's time.
"""

import os
import shutil
import subprocess
import sys
import time

import pytest

import rank3

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rank3.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

# check -> (file under rank3/, fragment, replacement, tests that must fail)
MUTANTS = {
    "inclusion-exclusion sign of the bare coatoms": (
        "polya.py",
        "(i * j, (-1) ** (k - j) * math.comb(k, j))",
        "(i * j, math.comb(k, j))",
        ["test_pipeline.py::TestCycleTypes::test_burnside_structure"]),
    "compatibility of orbit pairs": (
        "polya.py",
        "            if pairs & orbits[k][0]:",
        "            if False:",
        ["test_pipeline.py::TestCycleTypes::test_burnside_structure"]),
    "continuation of a series from its carries": (
        "polya.py",
        "total[width - stride:width] = carry if exact else [value * divisor for value in carry]",
        "total[width - stride:width] = [0] * stride",
        ["test_pipeline.py::TestProfileCache"]),
    "orbit-counting gate": (
        "polya.py",
        "        if n % order:",
        "        if False:",
        ["test_pipeline.py::TestOrbitCountingGate"]),
    "exact division of a series": (
        "polya.py",
        "    exact = not any(value % divisor for value in head)",
        "    exact = True",
        ["test_polya.py::TestOneDenominator::"
         "test_divides_first_up_to_the_first_coefficient_it_cannot"]),
    "cell gate on graphs": (
        "genconn.py",
        "            if got != exist:",
        "            if False:",
        ["test_pipeline.py::TestCellGate"]),
    "isomorph check of a list of graphs": (
        "genconn.py",
        "            if canon in seen:",
        "            if False:",
        ["test_pipeline.py::TestCounting::test_isomorphic_copy_rejected"]),
    "canonical parent of a census class": (
        "genconn.py",
        "        if ties and automorphisms is not None:",
        "        if False:",
        ["test_genconn.py::TestGeneration::test_census_counts"]),
    "graph6 padding": (
        "bigraph.py",
        "    if z >> nbits:",
        "    if False:",
        ["test_bigraph.py::TestGraph6"]),
    "graph6 colour classes": (
        "bigraph.py",
        "    if stray:",
        "    if False:",
        ["test_bigraph.py::TestGraph6"]),
    "graph6 connector count": (
        "bigraph.py",
        "    if connector_count < 0:",
        "    if False:",
        ["test_bigraph.py::TestGraph6::test_negative_connector_count_rejected"]),
    "atom bound of a cached count": (
        "pipeline.py",
        "0 <= max_atoms < len(entry[3])",
        "-1 < max_atoms < len(entry[3])",
        ["test_pipeline.py::TestCounting::test_bad_atom_count_raises_alike_fresh_and_cached"]),
    "CSV digits": (
        "pipeline.py",
        "    if not (text.isascii() and text.isdigit()):",
        "    if False:",
        ["test_pipeline.py::TestCountTable::test_csv_takes_only_what_write_csv_writes"]),
    "CSV row gaps": (
        "pipeline.py",
        "            if a != len(values):",
        "            if False:",
        ["test_pipeline.py::TestCountTable::test_csv_gap_checked"]),
    "manifest total": (
        "pipeline.py",
        "    if total != sum(n for _name, n in listed):",
        "    if False:",
        ["test_cli.py::TestDamagedCensus"]),
    "stratum line count": (
        "pipeline.py",
        "        if len(lines) != n:",
        "        if False:",
        ["test_cli.py::TestDamagedCensus"]),
    "constituent count of a fit JSON": (
        "quasifit.py",
        "    if len(constituents) != period:",
        "    if False:",
        ["test_cli.py::TestMalformedInput::test_eval_rejects_missing_constituent"]),
    "fit's check against its table": (
        "quasifit.py",
        "    if failures:",
        "    if False:",
        ["test_quasifit.py::TestFitting::test_rejection_reports_index"]),
}

# the mutated process prints its rank3's path first, then runs pytest
_RUN = ("import sys, pytest, rank3\nprint(rank3.__file__, flush=True)\n"
        "sys.exit(pytest.main(sys.argv[1:]))")


def _copy(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return copy


def _run(copy, tests):
    """(exit code, seconds, output) of pytest -x on ``tests`` in a fresh
    process whose rank3 is the one in ``copy``."""
    argv = ["-x", "-q", "-p", "no:cacheprovider", *(os.path.join(TESTS, t) for t in tests)]
    start = time.perf_counter()
    # run from the copy's parent, so that a failing Hypothesis example is stored there
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=copy.parent,
                          env=dict(os.environ, PYTHONPATH=str(copy)),
                          capture_output=True, text=True, timeout=300)
    seconds = time.perf_counter() - start
    assert proc.stdout.startswith(str(copy / "rank3") + os.sep), proc.stdout + proc.stderr
    return proc.returncode, seconds, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.slow
def test_named_tests_pass_unmutated(tmp_path):
    # so that each failure below is its mutant's
    tests = sorted({t for *_edit, named in MUTANTS.values() for t in named})
    code, _seconds, output = _run(_copy(tmp_path), tests)
    assert code == 0, output


@pytest.mark.slow
@pytest.mark.parametrize("check", MUTANTS)
def test_mutant_fails_its_tests(tmp_path, capsys, check):
    name, fragment, replacement, tests = MUTANTS[check]
    copy = _copy(tmp_path)
    path = copy / "rank3" / name
    text = path.read_text()
    assert text.count(fragment) == 1, "%s: fragment not found once in %s" % (check, name)
    path.write_text(text.replace(fragment, replacement))
    code, seconds, output = _run(copy, tests)
    with capsys.disabled():
        print("\nmutant of the %s: %.1f s" % (check, seconds))
    # 1: tests ran and failed (not a usage error, an empty selection or a crash)
    assert code == 1, output
