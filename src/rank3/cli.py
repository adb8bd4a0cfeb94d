"""Command-line front end.

Subcommands: generate (graph6 files per connector stratum), count (CSV
count table), fit (quasipolynomial JSON), eval (one exact value), verify
(pipeline against the brute-force oracle).  The RANK3_OUT environment
variable names the default output directory; --out overrides it.
count --graphs checks the graphs it reads before it counts, so a wrong
or missing directory is named at once, even where the count is long.
Each command imports only what it runs, through the package's hook:
generate, verify and count --graphs the graph layer (genconn, bigraph),
fit, eval and an error rank3.quasifit.

Exit codes: 0 success, 1 a failed internal check, with a traceback (the
orbit-counting gate's ArithmeticError), 2 bad input, 3 table too short
for a fit, 4 fit rejected by the table, 5 verification mismatch.
"""

import argparse
import os
import sys

import rank3

from . import pipeline

EXIT_INPUT = 2
EXIT_ARITY = 3
EXIT_REJECTED = 4
EXIT_MISMATCH = 5

# verify counts above this c only through the coatom/atom symmetry, which keeps
# its bytes; a count without graphs takes 0.04 s at c = 8, 0.2 s at c = 9,
# 1.3 s at c = 10 and 16 s at c = 11
_DIRECT_LIMIT = 8


def _default_out_dir() -> str:
    return os.environ.get("RANK3_OUT", ".")


def cmd_generate(args) -> int:
    counts = rank3.genconn.write_graph_files(args.out or _default_out_dir(), args.coatoms)
    print(rank3.genconn.manifest_text(args.coatoms, counts), end="")
    return 0


def cmd_count(args) -> int:
    c, a = args.coatoms, args.max_atoms
    # the graphs are checked before the count, so a wrong directory is named at
    # once; bad arguments are left to the count, whose errors come first
    checked = (rank3.genconn.check_graphs(c, pipeline.iter_graph_dir(args.graphs, c))
               if args.graphs and c >= 1 and a >= 0 else None)
    table, stats = pipeline.count_lattices_stats(c, a)
    stats = stats if checked is None else checked
    out = args.out or os.path.join(_default_out_dir(), "counts_c%d.csv" % c)
    pipeline.write_csv(table, out)
    print("wrote %s" % out)
    line = "graphs=%d" % stats.graphs_processed
    if stats.distinct_cycle_indices is not None:    # genconn.check_graphs's stats
        line += " cycle_indices=%d trivial=%d" % (stats.distinct_cycle_indices,
                                                  stats.trivial_action_graphs)
    print(line)
    return 0


def cmd_fit(args) -> int:
    import json
    c = args.coatoms
    table = pipeline.read_csv(args.values, c)
    fit = rank3.quasifit.fit_for_coatoms(table, c)
    out = args.out or os.path.join(_default_out_dir(), "fit_c%d.json" % c)
    with pipeline.atomic_open(out) as fh:
        json.dump(rank3.quasifit.quasipolynomial_to_json(fit, c), fh, indent=2)
        fh.write("\n")
    print("wrote %s" % out)
    print("period=%d degree=%d n0_guaranteed=%d n0_observed=%d"
          % (fit.period, fit.degree, fit.threshold, fit.observed_threshold))
    return 0


def cmd_eval(args) -> int:
    with open(args.quasipoly) as fh:
        _c, fit = rank3.quasifit.quasipolynomial_from_json(fh.read())
    print(rank3.quasifit.eval_quasipolynomial(fit, args.atoms))
    return 0


def cmd_verify(args) -> int:
    n = args.max_total
    if not 2 <= n <= 14:
        raise ValueError("--max-total must be between 2 and 14")
    failures = 0
    for c in range(1, n):
        for a in range(1, n - c + 1):
            values = [pipeline.count_lattices(x, n - x).values[y]
                      for x, y in ((c, a), (a, c)) if x <= _DIRECT_LIMIT]
            got = rank3.genconn.brute_force_count(c, a)
            ok = all(v == got for v in values)
            print("c=%-2d a=%-2d pipeline=%-12d oracle=%-12d %s"
                  % (c, a, values[0], got, "ok" if ok else "MISMATCH"))
            if not ok:
                failures += 1
    print("checked %d pairs, %d mismatches" % (sum(range(1, n)), failures))
    return EXIT_MISMATCH if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank3",
        description="Exact counts of rank-3 lattices by coatom and atom count.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write connection-graph graph6 files")
    p.add_argument("--coatoms", type=int, required=True)
    p.add_argument("--out", help="output directory (default $RANK3_OUT or .)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("count", help="compute a count table and write it as CSV")
    p.add_argument("--coatoms", type=int, required=True)
    p.add_argument("--max-atoms", type=int, required=True)
    p.add_argument("--graphs", help="directory of pre-generated graph6 files")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("fit", help="fit the closed quasipolynomial form of a table")
    p.add_argument("--coatoms", type=int, required=True)
    p.add_argument("--values", required=True, help="CSV table from the count command")
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_fit)

    text = ("evaluate a fitted form at one atom count: the value is R(c, a) only "
            "from the fit's n0_observed on")
    p = sub.add_parser("eval", help=text, description=text)
    p.add_argument("--quasipoly", required=True, help="JSON file from the fit command")
    p.add_argument("--atoms", type=int, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="cross-check the pipeline against brute force")
    p.add_argument("--max-total", type=int, default=10,
                   help="check all coatom/atom pairs with sum up to this (max 14)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each except clause's class is looked up only once an exception reaches it
    try:
        return args.func(args)
    except rank3.quasifit.FitArityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ARITY
    except rank3.quasifit.FitRejectedError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_REJECTED
    except (ValueError, OSError, rank3.quasifit.NonIntegerValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
