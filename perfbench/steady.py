"""Steadiness report: run every workload repeatedly and hold each spread to its bound.

    python3 perfbench/steady.py --runs 10

Repetition k (k = 1..--runs) runs every workload of BENCHMARK.json with
seed k for run_seconds, once untraced and once traced, the two in
alternating order from one repetition to the next.  Interleaving the runs puts a slow or fast
phase of the processor on every workload and on both sides of the
tracing comparison, instead of on one block of runs.

For every end-to-end metric the report prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median of the
untraced runs next to the metric's bound from BENCHMARK.json: "steady"
within a third of the bound, "ok" within it, "WIDE" beyond it.  The
tracing overhead is the median of the traced runs' trace.wall_s minus the
median of the untraced runs' wall_s, shown with the spread of each side.
The report is also written to .perfbench/steady.json.  The exit code is 1
when a run fails or a spread exceeds its bound.  Ten repetitions take
about 35 minutes on a 2-core machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = done.returncode == 0 and result is not None and result["correct"]
    print("seed %d %-8s trace=%d %6.1f s %s" % (seed, workload, trace,
          time.perf_counter() - started, "ok" if ok else "FAILED"), file=sys.stderr, flush=True)
    if not ok:
        sys.stderr.write(done.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="repetitions, at least 2")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    runs = {(name, trace): [] for name in names for trace in (0, 1)}
    failed = set()
    for seed in range(1, args.runs + 1):
        for name in names:
            for trace in ((0, 1) if seed % 2 else (1, 0)):
                result = run_once(name, seed, spec["run_seconds"], trace)
                if result is None:
                    failed.add(name)
                else:
                    runs[name, trace].append(result)

    report, healthy = {}, not failed
    for name in names:
        if name in failed:
            print("%s: a run failed" % name)
            continue
        entry = report[name] = {}
        print("%s, %d runs of %d s" % (name, args.runs, spec["run_seconds"]))
        print("  %-16s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = entry[key] = summarize([r[key] for r in runs[name, 0]])
            verdict = ("steady" if stats["spread"] <= bound / 3 else
                       "ok" if stats["spread"] <= bound else "WIDE")
            healthy &= stats["spread"] <= bound
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
                key, stats["median"], stats["q1"], stats["q3"], stats["spread"], bound, verdict))
        traced = summarize([r["trace.wall_s"] for r in runs[name, 1]])
        untraced = entry["wall_s"]
        overhead = traced["median"] - untraced["median"]
        entry["tracing_overhead"] = {"overhead_s": overhead, "traced_wall_s": traced}
        print("  tracing overhead: traced %.6g s (spread %.4f) - untraced %.6g s (spread %.4f)"
              " = %+.4g s (%+.2f%%)" % (traced["median"], traced["spread"], untraced["median"],
                                        untraced["spread"], overhead,
                                        100 * overhead / untraced["median"]))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
