"""Self-test of the benchmark at small size (every workload at c <= 5).

    python3 perfbench/selftest.py

Checks that each workload, untraced and traced, passes and emits every
metric named in BENCHMARK.json with its unit; that the correctness gate
fails on a copy of the checkout whose library returns a corrupted
count-table value or drops a graph from the census; and that a directory
holding only the benchmark exits nonzero without printing a result.
Takes about half a minute.
"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seed", "7", "--seconds", "1", "--size", "small"]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(workload, trace, spec, failures):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--trace", str(trace)] + SMALL, cwd=ROOT, capture_output=True, text=True)
    result = last_json(done.stdout)
    label = "%s trace=%d" % (workload, trace)
    if done.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        failures.append("%s: exit %d, result %r\n%s" % (label, done.returncode, result, done.stderr))
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["attempted"] < 1:
        failures.append("%s: malformed result keys %r" % (label, sorted(result)))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        failures.append("%s: metrics %r, expected %r" % (label, got, wanted))
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("%s: %s = %r is not a finite number" % (label, name, value))
        elif not trace and value <= 0:
            failures.append("%s: end-to-end %s = %r is not positive" % (label, name, value))


CORRUPT_TABLE = """

_exact_count_lattices_stats = count_lattices_stats


def count_lattices_stats(*args, **kwargs):
    table, stats = _exact_count_lattices_stats(*args, **kwargs)
    table.values[1] += 1    # below the fit threshold: only the benchmark's check sees it
    table.values[-1] += 1   # the value a query reads
    return table, stats
"""

DROP_LAST_GRAPH = """

_every_connection_graph = generate_connection_graphs


def generate_connection_graphs(coatom_count):
    return list(_every_connection_graph(coatom_count))[:-1]
"""


@contextlib.contextmanager
def checkout_copy(name, library=True, patch=None):
    """BENCHMARK.json and perfbench/ under .perfbench/, with the library unless told not.

    ``patch`` is (module file, source appended to it): a deliberately
    wrong library in the copy, the original untouched.
    """
    where = os.path.join(ROOT, ".perfbench", "selftest-" + name)
    shutil.rmtree(where, ignore_errors=True)
    try:
        os.makedirs(where)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
        shutil.copytree(HERE, os.path.join(where, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        if library:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(where, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            os.makedirs(os.path.join(where, "tests"))
            shutil.copy(os.path.join(ROOT, "tests", "reference_values.py"),
                        os.path.join(where, "tests"))
        if patch:
            with open(os.path.join(where, "src", "rank3", patch[0]), "a") as fh:
                fh.write(patch[1])
        yield where
    finally:
        shutil.rmtree(where, ignore_errors=True)


def gate_fails(workload, patch, failures):
    """Run a workload on a copy with one library function made wrong; the gate must fail."""
    with checkout_copy("gate", patch=patch) as where:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--trace", "0"] + SMALL, cwd=where, capture_output=True,
                              text=True, timeout=180)
    result = last_json(done.stdout)
    if done.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append("%s with %s patched: a wrong answer passed the gate (exit %d, %r)"
                        % (workload, patch[0], done.returncode, result))


def empty_checkout_fails(failures):
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    with checkout_copy("empty", library=False) as where:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=where, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        failures.append("benchmark without the library: exit %d, stdout %r"
                        % (done.returncode, done.stdout))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, spec, failures)
    gate_fails("table", ("pipeline.py", CORRUPT_TABLE), failures)
    gate_fails("queries", ("pipeline.py", CORRUPT_TABLE), failures)
    gate_fails("table", ("genconn.py", DROP_LAST_GRAPH), failures)
    empty_checkout_fails(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest: %s" % ("%d failures" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
