"""Run one benchmark workload, check its answers and print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Run it in a checkout of the repository: the library is imported from the
checkout's ``src`` directory, never from an installed copy, and outputs
go under ``.perfbench/`` in the checkout.  Workloads and metrics are
described in ``perfbench/README.md``; metric names and units come from
``BENCHMARK.json``.

Standard output lists every metric by name with its unit, then the run
record (seed, Python version, processor count, commit, source digest),
and ends with one JSON line holding correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  The exit code is 0 only when every answer
passed its check, 1 when one failed, and 2 when the checkout has no
library to run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="small runs every workload at c <= 5, for the self-test")
    return parser.parse_args(argv)


def end_to_end_metrics(outcome) -> dict:
    """Timings of the untraced run, from each operation's scaled segment medians.

    latency_p90_ms is the nearest-rank 90th percentile when at least ten
    operations lie beyond it (150 queries); a table run has one
    operation, the pass, and every latency is that pass.
    """
    lat = sorted(outcome.latencies) or [0.0]   # no round passed: the run fails anyway
    p90 = math.ceil(0.9 * len(lat))
    return {
        "wall_s": sum(lat),
        "setup_s": outcome.setup_s,
        "req_per_s": len(lat) / sum(lat) if sum(lat) else 0.0,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * (lat[p90 - 1] if len(lat) - p90 >= 10 else statistics.median(lat)),
        "peak_rss_mb": outcome.rss_mb,
    }


def layer_metrics(tracer, outcome) -> dict:
    """Per-layer times and counts of a traced run; 0 where a workload never calls the layer.

    A layer's time is its raw spans in this process (set-up, census check)
    plus its raw spans in the first round, the one that also made the
    layer replays, so that self times subtract spans of one round.
    Counts come from the same places.
    """
    first = outcome.results[0] if outcome.results and outcome.results[0] else None
    spans_of_round = first["spans"] if first else []
    counts_of_round = first["counts"] if first else {}

    def total(name):
        return tracer.total(name) + spans.total(spans_of_round, name)

    def count(name):
        return tracer.counts.get(name, 0) + counts_of_round.get(name, 0)

    count_s = total("pipeline.count")
    jobs2_s = total("pipeline.count_jobs2")
    processed = count("pipeline.graphs_processed")
    distinct = count("polya.distinct_cycle_indices")
    return {
        "genconn.generate_s": total("genconn.generate"),
        "genconn.graphs": count("genconn.graphs"),
        "genconn.write_s": total("genconn.write"),
        "bigraph.canonical_form_s": total("bigraph.canonical_form"),
        "bigraph.automorphism_s": total("bigraph.automorphism"),
        "bigraph.group_order_sum": count("bigraph.group_order_sum"),
        "bigraph.graph6_decode_s": total("bigraph.graph6_decode"),
        "polya.cycle_index_s": total("polya.cycle_index"),
        "polya.group_balls_s": total("polya.group_balls"),
        "polya.distinct_cycle_indices": distinct,
        "polya.memo_hit_ratio": 1 - distinct / processed if processed else 0.0,
        "pipeline.count_s": count_s,
        "pipeline.self_s": count_s - total("bigraph.automorphism")
                           - total("polya.cycle_index") - total("polya.group_balls"),
        "pipeline.accumulate_terms": count("pipeline.accumulate_terms"),
        "pipeline.parallel_efficiency": count_s / (2 * jobs2_s) if jobs2_s else 0.0,
        "quasifit.fit_s": total("quasifit.fit"),
        "quasifit.values_verified": count("quasifit.values_verified"),
        "quasifit.eval_s": total("quasifit.eval"),
        "trace.wall_s": sum(outcome.latencies),
    }


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library's source files, to tell two checkouts apart without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    rank3, reference = workloads.load_library(ROOT)
    if rank3 is None:
        print("perfbench: %s holds no rank3 sources (src/rank3) and reference values "
              "(tests/reference_values.py)" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for sub in ("work", "runs", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work", "%s-%d" % (tag, os.getpid()))
    tracer = spans.Tracer(bool(args.trace))
    rounds = max(workloads.MIN_ROUNDS, int(args.seconds // workloads.ROUND_SECONDS[args.workload]))
    run = workloads.Run(rank3, reference, ROOT, workdir, args.seed, rounds,
                        workloads.SIZES[args.size], tracer)
    os.makedirs(workdir)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured, wanted = layer_metrics(tracer, outcome), spec["per_layer"]
        tracer.write(os.path.join(OUT, "traces", tag + ".json"),
                     [r and {"spans": r["spans"], "counts": r["counts"]} for r in outcome.results])
    else:
        measured, wanted = end_to_end_metrics(outcome), spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = outcome.attempted, outcome.failed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "source_sha256": source_digest(),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "latency_samples": len(outcome.latencies), "metrics": metrics,
    }
    with open(os.path.join(OUT, "runs", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print("%-30s %-22r %s" % (name, m["value"], m["unit"]))
    print("%-30s %-22r ratio  (%d failed of %d operations)"
          % ("error_rate", record["error_rate"], failed, attempted))
    for key in ("workload", "seed", "size", "rounds", "latency_samples", "python", "nproc",
                "commit", "source_sha256"):
        print("%-30s %s" % (key, record[key]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
