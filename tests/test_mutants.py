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
        "total[width - stride:width] = carry",
        "total[width - stride:width] = [0] * stride",
        ["test_pipeline.py::TestProfileCache"]),
    "orbit-counting gate": (
        "polya.py",
        "        if n % order:",
        "        if False:",
        ["test_pipeline.py::TestOrbitCountingGate"]),
    "exact division of a series": (
        "polya.py",
        "        if value % divisor:",
        "        if False:",
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
    "share of a child that sends a list of another length": (
        "genconn.py",
        "suppress(EOFError, ValueError, TypeError)",
        "suppress(EOFError, TypeError)",
        ["test_genconn.py::TestInShares::test_short_list_is_run_here"]),
    "NaN coatom count": (
        "pipeline.py",
        "    if not coatom_count >= 1:",
        "    if coatom_count < 1:",
        ["test_pipeline.py::TestCounting::test_bad_arguments"]),
    "group without the identity": (
        "polya.py",
        "    if group.order == 0:",
        "    if False:",
        ["test_polya.py::TestCycleIndex::test_empty_group_rejected"]),
    "degree of a cycle index": (
        "polya.py",
        "    if zindex.degree != boxes:",
        "    if False:",
        ["test_polya.py::TestGroupBalls::test_degree_mismatch_rejected"]),
    "cycle types of a cycle index": (
        "polya.py",
        "if len(expo) != boxes or sum(i * m for i, m in enumerate(expo, 1)) != boxes:",
        "if False:",
        ["test_polya.py::TestCycleIndex::test_rejects_wrong_exponent_arity"]),
    "connector size": (
        "bigraph.py",
        "        if m.bit_count() < 2:",
        "        if False:",
        ["test_bigraph.py::TestValidation::test_rejects_small_connector"]),
    "pair shared by two connectors": (
        "bigraph.py",
        "        if pairs & covered:",
        "        if False:",
        ["test_bigraph.py::TestValidation::test_rejects_overlapping_pair"]),
    "connector maximum": (
        "bigraph.py",
        "    if len(masks) > c * (c - 1) // 2:",
        "    if False:",
        ["test_bigraph.py::TestValidation::test_equals_pairwise_oracle_on_damage"]),
    "graph6 size mismatch": (
        "bigraph.py",
        "    if n != coatom_count + connector_count:",
        "    if False:",
        ["test_bigraph.py::TestGraph6::test_decoder_equals_string_oracle_on_damage"]),
    "graph6 payload length": (
        "bigraph.py",
        "    if len(data) - 1 != nbytes:",
        "    if False:",
        ["test_bigraph.py::TestGraph6::test_decoder_equals_string_oracle_on_damage"]),
    "graph6 byte range": (
        "bigraph.py",
        "    if outside:",
        "    if False:",
        ["test_bigraph.py::TestGraph6::test_decoder_equals_string_oracle_on_damage"]),
    "permutations of a PermGroup": (
        "bigraph.py",
        "            if sorted(p) != list(range(degree)):",
        "            if False:",
        ["test_bigraph.py::TestAutomorphisms::test_permgroup_rejects_non_permutation"]),
    "mask range": (
        "bigraph.py",
        "                if mask < 0 or mask >> coatom_count:",
        "                if False:",
        ["test_bigraph.py::TestConstruction::test_rejects_bad_coatom_index"]),
    "coatom-index range": (
        "bigraph.py",
        "                    if not 0 <= i < coatom_count:",
        "                    if False:",
        ["test_bigraph.py::TestConstruction::test_rejects_bad_coatom_index"]),
    "coatom count of a searched graph": (
        "genconn.py",
        "        if graph.coatom_count != c:",
        "        if False:",
        ["test_pipeline.py::TestCounting::test_mixed_coatom_counts_rejected"]),
    "foreign graph of a census": (
        "genconn.py",
        "            if g.coatom_count != c or r > max_r:",
        "            if False:",
        ["test_genconn.py::TestGraphFiles::test_foreign_graphs_leave_census"]),
    "brute force's arguments": (
        "genconn.py",
        "    if c < 1 or a < 1:",
        "    if False:",
        ["test_genconn.py::TestBruteForceOracle::test_rejects_nonpositive_arguments"]),
    "manifest's strata list": (
        "pipeline.py",
        '    if [name for name, _n in listed] != strata + ["total"]:',
        "    if False:",
        ["test_cli.py::TestDamagedCensus"]),
    "manifest's census sizes": (
        "pipeline.py",
        "        if r < len(listed) and listed[r][1] != want:",
        "        if False:",
        ["test_cli.py::TestDamagedCensus"]),
    "CSV header": (
        "pipeline.py",
        '        if header != ["a", "R"]:',
        "        if False:",
        ["test_pipeline.py::TestCountTable::test_csv_header_checked"]),
    "R(c, 0..2) of a CSV": (
        "pipeline.py",
        "    if values[:3] != expected:",
        "    if False:",
        ["test_cli.py::TestFitEval::test_table_of_other_coatom_count"]),
    "CSV field count": (
        "pipeline.py",
        "            if len(row) != 2:",
        "            if False:",
        ["test_cli.py::TestMalformedInput::test_fit_rejects_table"]),
    "empty CSV": (
        "pipeline.py",
        "    if not values:",
        "    if False:",
        ["test_cli.py::TestMalformedInput::test_fit_rejects_table"]),
    "CountTable length": (
        "pipeline.py",
        "        if len(self.values) != a_max + 1:",
        "        if False:",
        ["test_pipeline.py::TestCountTable::test_length_checked"]),
    "coefficient form of a fit JSON": (
        "quasifit.py",
        "        if type(rows) is not list or not all(",
        "        if False and not all(",
        ["test_cli.py::TestMalformedInput::test_eval_rejects_fit"]),
    "integer fields of a fit JSON": (
        "quasifit.py",
        "    if not all(type(v) is int for v in known) or period < 1:",
        "    if False:",
        ["test_cli.py::TestMalformedInput::test_eval_rejects_fit"]),
    "threshold order of a fit JSON": (
        "quasifit.py",
        "    if c < 1 or threshold < 0 or observed is not None and not 0 <= observed <= threshold:",
        "    if False:",
        ["test_cli.py::TestMalformedInput::test_eval_rejects_fit"]),
    "fit arity": (
        "quasifit.py",
        "    if a_max < required:",
        "    if False:",
        ["test_cli.py::TestFitEval::test_short_table_exits_arity_code"]),
    "fit parameters": (
        "quasifit.py",
        "    if period < 1 or degree < 0 or threshold < 0:",
        "    if False:",
        ["test_quasifit.py::TestFitting::test_rejects_out_of_range_parameters"]),
    "negative atoms": (
        "quasifit.py",
        "    if atoms < 0:",
        "    if False:",
        ["test_quasifit.py::TestEvaluation::test_negative_atoms_rejected"]),
    "period of expand_period": (
        "quasifit.py",
        "    if period < 1 or period % quasipoly.period:",
        "    if False:",
        ["test_quasifit.py::TestEvaluation::test_expand_period"]),
}
# Left out: cmd_verify's range check (--max-total 2..14).  Its mutant makes
# test_cli.py::TestVerify::test_range_checked run the brute force up to
# c + a = 40, which does not end in any reasonable time.

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
