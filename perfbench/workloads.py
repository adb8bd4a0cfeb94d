"""The table and queries workloads.

Each workload runs with jobs=1 and one process busy at a time.  The
parent process sets up, then plays the timed work as several *rounds*,
each in a fresh interpreter (``worker.py``), so no state of the library
carries from one round to the next: every round is what a new caller
meets.  A round runs the same seeded work, times every *segment* of it
(one graph of a stage, one evaluation, one request) on a
``speed.SpeedClock``, which scales it to a reference processor speed, and
checks every answer outside the timed segments.  An operation is one
user-level request: one count-fit-evaluate pass, or one R(c, a) query.
An operation that raises or whose answer fails its check is a failed
operation.  The parent takes each segment's median over the rounds; an
operation's time is the sum of its segments' medians.

With tracing on, each public call gets a span.  Where a library function
calls another layer internally, the first traced round afterwards makes
the same sequence of public calls on the same inputs, one span per layer,
so every layer gets a time of its own; those replays lie outside the
timed segments.
"""

import gc
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

import spans
from speed import PROBE_REFERENCE_S, SpeedClock, clock, probe

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Size:
    table_c: int
    query_c_max: int    # queries ask for every c in 1..query_c_max equally often
    query_a_max: int
    queries: int        # requests per round


SIZES = {
    "full": Size(7, 5, 400, 240),
    "small": Size(5, 4, 60, 24),
}
# Nominal length of one round at full size; a run of --seconds plays
# max(MIN_ROUNDS, seconds // ROUND_SECONDS) rounds, whatever the speed.
ROUND_SECONDS = {"table": 6.5, "queries": 3.0}
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150
EVAL_SAMPLES = 1000
EVAL_CENTRE, EVAL_HALF_WIDTH = 10 ** 6, 10 ** 5


def load_reference(root):
    """The published values of tests/reference_values.py, or None."""
    path = os.path.join(root, "tests", "reference_values.py")
    if not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("perfbench_reference_values", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def load_library(root):
    """rank3 from the checkout's src and the published values, or (None, None)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rank3", "__init__.py")):
        return None, None
    reference = load_reference(root)
    if reference is None:
        return None, None
    sys.path.insert(0, src)
    import rank3
    if os.path.dirname(os.path.dirname(os.path.abspath(rank3.__file__))) != src:
        return None, None
    return rank3, reference


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Run:
    rank3: object       # the package, imported from the checkout's src
    reference: object   # published values (tests/reference_values.py)
    root: str
    workdir: str
    seed: int
    rounds: int
    size: Size
    tracer: object      # the parent's spans: set-up and the census check


@dataclass
class Outcome:
    setup_s: float
    latencies: list     # scaled seconds per operation, each the sum of its segments' medians
    attempted: int
    failed: int
    rss_mb: float       # peak resident set of the parent and of every round
    results: list       # each round's result; None for a round that crashed


def _guarded(step, *args):
    """Run one operation or check; an exception is reported and counts as failure."""
    try:
        return step(*args)
    except Exception:
        traceback.print_exc()
        return None


# -- rounds in fresh interpreters ---------------------------------------------


def play_round(run, job):
    """One round in a fresh worker: (cold start seconds, result or None).

    The cold start runs from launching the interpreter to its report that
    rank3 is imported, the set-up every new caller pays; it is scaled by
    the probe the worker runs next.
    """
    path = os.path.join(run.workdir, "job.json")
    with open(path, "w") as fh:
        json.dump(job, fh)
    t0 = clock()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path],
                            cwd=run.root, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        cold_s = clock() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: a %s round ran past %d s" % (job["workload"], WORKER_TIMEOUT_S),
              file=sys.stderr)
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return None, None
    result = json.loads(lines[-1])
    return cold_s * PROBE_REFERENCE_S / result["start_probe"], result


def play_rounds(run, job):
    """Every round of a run: the median cold start and the round results.

    The first round of a traced run also makes the layer replays.
    """
    colds, results = [], []
    for k in range(run.rounds):
        cold_s, result = play_round(run, dict(job, replay=bool(job["trace"]) and k == 0))
        if cold_s is not None:
            colds.append(cold_s)
        results.append(result)
    return (statistics.median(colds) if colds else 0.0), results


def median_segments(results) -> list:
    """Each segment's median over the rounds that completed and passed."""
    good = [r["segments"] for r in results if r is not None and not r["failed"]]
    if not good:
        return []
    if len({len(s) for s in good}) != 1:
        # the rounds cut their work differently: fall back to the median whole round
        return [statistics.median(sum(s) for s in good)]
    return [statistics.median(column) for column in zip(*good)]


def round_rss_mb(results) -> float:
    return max((r["rss_mb"] for r in results if r is not None), default=0.0)


# -- table: parent -------------------------------------------------------------


def _write_census(run, directory, c):
    """Generate and write the census: (per-r counts, scaled seconds).

    ``write_graph_files(directory, c)`` generates the graphs itself; here
    the same generator is handed in through the speed clock, one segment
    per graph.  The traced run generates first and writes after.
    """
    genconn = run.rank3.genconn
    clk = SpeedClock()
    if not run.tracer.enabled:
        counts = genconn.write_graph_files(
            directory, c, clk.over(genconn.generate_connection_graphs(c)))
        clk.cut()
        return counts, sum(clk.scaled())
    with run.tracer.span("genconn.generate"):
        graphs = list(clk.over(genconn.generate_connection_graphs(c)))
    run.tracer.add("genconn.graphs", len(graphs))
    with run.tracer.span("genconn.write"):
        counts = genconn.write_graph_files(directory, c, graphs)
    clk.cut()
    return counts, sum(clk.scaled())


def read_lines(rank3, directory, c):
    """(graph6 line, connector count) pairs of a written census."""
    lines = []
    for r in range(c * (c - 1) // 2 + 1):
        with open(os.path.join(directory, rank3.genconn.graph_file_name(c, r)), "rb") as fh:
            lines.extend((line, r) for line in fh if line.strip())
    return lines


def _check_census(run, directory, c, counts) -> bool:
    """Census size, validity of every graph, and pairwise distinct canonical forms."""
    bigraph = run.rank3.bigraph
    expected = run.reference.GRAPH_CENSUS[c]
    graphs = [bigraph.graph6_decode(line, c, r) for line, r in read_lines(run.rank3, directory, c)]
    for g in graphs:
        bigraph.validate_connection_graph(g)
    # the traced run's proxy for the canonicalisations genconn makes internally
    with run.tracer.span("bigraph.canonical_form"):
        keys = {bigraph.canonical_form(g) for g in graphs}
    with open(os.path.join(directory, "conn_c%d.manifest" % c)) as fh:
        manifest_total = int(fh.read().split()[-1])
    return len(graphs) == len(keys) == sum(counts) == manifest_total == expected


def table(run) -> Outcome:
    """``rank3 count`` then ``rank3 fit`` from graph6 files, then evaluations near 10^6.

    Set-up is the ``rank3 generate`` path: it writes the census the rounds
    read.  The census is checked once, outside set-up time, and a pass
    counted from a census that failed its check is a failed pass.
    """
    r3, c = run.rank3, run.size.table_c
    period, degree, threshold = r3.quasifit.default_fit_parameters(c)
    rng = random.Random(run.seed)
    atoms = [rng.randrange(EVAL_CENTRE - EVAL_HALF_WIDTH, EVAL_CENTRE + EVAL_HALF_WIDTH)
             for _ in range(EVAL_SAMPLES)]
    graph_dir = os.path.join(run.workdir, "graphs")
    counts, census_s = _write_census(run, graph_dir, c)
    census_ok = bool(_guarded(_check_census, run, graph_dir, c, counts))
    job = {"workload": "table", "c": c, "a_max": threshold + period * (degree + 1) - 1,
           "graph_dir": graph_dir, "atoms": atoms, "trace": int(run.tracer.enabled)}
    cold_s, results = play_rounds(run, job)
    failed = sum(r is None or r["failed"] for r in results) if census_ok else len(results)
    segments = median_segments(results)
    return Outcome(census_s + cold_s, [sum(segments)] if segments else [], len(results),
                   failed, max(peak_rss_mb(), round_rss_mb(results)), results)


# -- table: one round ----------------------------------------------------------


def _power_sum(fit, a):
    """Value of the fit at ``a`` from its coefficients, without Horner's rule."""
    return sum(coeff * Fraction(a) ** j for j, coeff in enumerate(fit.constituents[a % fit.period]))


def _check_table(rank3, reference, c, atoms, table, fit, values) -> bool:
    """Published values, the fit's leading terms, and every evaluation."""
    quasifit = rank3.quasifit
    published = {a: v for a, v in reference.R_TABLE[c].items() if a <= table.a_max}
    if any(table.values[a] != v for a, v in published.items()):
        return False
    if any(fit.evaluate(a) != v for a, v in published.items() if a >= fit.threshold):
        return False
    top = quasifit.LEADING_TERMS.get(c)
    if top is not None:
        if any(cs[:-len(top) - 1:-1] != top for cs in fit.constituents):
            return False
    else:
        ref = quasifit.expand_period(quasifit.reference_quasipolynomial(c), fit.period)
        if fit.constituents != ref.constituents:
            return False
    return all(v == _power_sum(fit, a) for a, v in zip(atoms, values))


def _replay_count(rank3, tracer, c, a_max, graphs):
    """The public calls count_lattices_stats makes internally, one layer per span."""
    with tracer.span("bigraph.automorphism"):
        groups = [rank3.bigraph.automorphism_group_on_coatoms(g) for g in graphs]
    with tracer.span("polya.cycle_index"):
        indices = [rank3.polya.cycle_index(group) for group in groups]
    with tracer.span("polya.group_balls"):
        for zindex in dict.fromkeys(indices):
            rank3.polya.group_balls(zindex, c, a_max)
    tracer.add("bigraph.group_order_sum", sum(group.order for group in groups))
    tracer.add("pipeline.accumulate_terms",
               sum(max(0, a_max + 1 - sum(rank3.genconn.count_r_s(g))) for g in graphs))


def _note_stats(tracer, stats):
    tracer.add("pipeline.graphs_processed", stats.graphs_processed)
    tracer.add("polya.distinct_cycle_indices", stats.distinct_cycle_indices)


def table_round(rank3, reference, job, tracer):
    """One pass: read the graph6 files, count, fit, evaluate; then check it.

    Segments: one per graph read, one per graph counted, the fit (with the
    ends of the count call) and one per evaluation.  They follow each
    other without gaps but the probes, so they sum to the pass.
    """
    c, a_max, atoms, graph_dir = job["c"], job["a_max"], job["atoms"], job["graph_dir"]
    pipeline, quasifit = rank3.pipeline, rank3.quasifit

    def one_pass(clk):
        with tracer.span("pipeline.read"):
            graphs = list(clk.over(pipeline.iter_graph_dir(graph_dir, c)))
        with tracer.span("pipeline.count"):
            counted, stats = pipeline.count_lattices_stats(c, a_max, clk.over(graphs))
        with tracer.span("quasifit.fit"):
            fit = quasifit.fit_for_coatoms(counted, c)
        with tracer.span("quasifit.eval"):
            values = [quasifit.eval_quasipolynomial(fit, a) for a in clk.over(atoms)]
        return graphs, stats, counted, fit, values

    gc.collect()
    clk = SpeedClock()
    done = _guarded(one_pass, clk)
    segments = clk.scaled()
    ok = done is not None and _guarded(_check_table, rank3, reference, c, atoms, *done[2:])
    if done is not None and job["replay"]:
        graphs, stats = done[0], done[1]
        _note_stats(tracer, stats)
        tracer.add("quasifit.values_verified", a_max + 1 - done[3].threshold)
        lines = read_lines(rank3, graph_dir, c)
        with tracer.span("bigraph.graph6_decode"):
            for line, r in lines:
                rank3.bigraph.graph6_decode(line, c, r)
        _replay_count(rank3, tracer, c, a_max, graphs)
        with tracer.span("pipeline.count_jobs2"):
            pipeline.count_lattices_stats(c, a_max, graphs, jobs=2)
    return segments, int(not ok)


# -- queries: parent -----------------------------------------------------------


def query_sequence(run):
    """Seeded (c, a, expected R(c, a)) requests, an equal number per coatom count.

    The requests split as evenly as they can over c = 1..query_c_max, the
    smaller c taking the remainder: 30 for each c = 1..5 at full size.
    Atom counts are stratified: the n requests for one c draw one a each
    from n equal runs of the allowed values, so every seed covers the
    range alike.  The expected value comes from the published closed form
    (R(1, a) = 1), from its threshold on.
    """
    quasifit = run.rank3.quasifit
    rng = random.Random(run.seed)
    coatoms = range(1, run.size.query_c_max + 1)
    base, extra = divmod(run.size.queries, len(coatoms))
    requests = []
    for c in coatoms:
        n = base + (c <= extra)
        if c == 1:
            low, expect = 1, (lambda a: 1)
        else:
            ref = quasifit.reference_quasipolynomial(c)
            low, expect = max(1, ref.threshold), ref.evaluate
        allowed = range(low, run.size.query_a_max + 1)
        for i in range(n):
            start = i * len(allowed) // n
            a = allowed[rng.randrange(start, max(start + 1, (i + 1) * len(allowed) // n))]
            requests.append((c, a, expect(a)))
    rng.shuffle(requests)
    return requests


def queries(run) -> Outcome:
    """One closed-loop client per round: each R(c, a) waits for the previous answer."""
    requests = query_sequence(run)
    job = {"workload": "queries", "requests": requests, "trace": int(run.tracer.enabled)}
    cold_s, results = play_rounds(run, job)
    failed = sum(len(requests) if r is None else r["failed"] for r in results)
    return Outcome(cold_s, median_segments(results), len(requests) * len(results), failed,
                   max(peak_rss_mb(), round_rss_mb(results)), results)


# -- queries: one round --------------------------------------------------------


def _traced_query(rank3, tracer, c, a, kept, k):
    with tracer.span("queries.request"):
        with tracer.span("genconn.generate"):
            graphs = list(rank3.genconn.generate_connection_graphs(c))
        with tracer.span("pipeline.count"):
            counted, stats = rank3.pipeline.count_lattices_stats(c, a, graphs)
    tracer.add("genconn.graphs", len(graphs))
    _note_stats(tracer, stats)
    kept[k] = graphs
    return counted.values[a]


def queries_round(rank3, reference, job, tracer):
    """Every request of the sequence, one segment each; then the answers are checked."""
    requests = job["requests"]
    answers, kept = [], {}
    gc.collect()
    clk = SpeedClock()
    for k, (c, a, _expected) in enumerate(requests):
        tracer.request = k
        if tracer.enabled:
            answers.append(_guarded(_traced_query, rank3, tracer, c, a, kept, k))
        else:
            answers.append(_guarded(lambda: rank3.count_lattices(c, a).values[a]))
        clk.cut()
    latencies = clk.scaled()
    failed = sum(answer != expected for answer, (_c, _a, expected) in zip(answers, requests))
    if job["replay"]:
        for k, graphs in kept.items():
            tracer.request = k
            c, a, _expected = requests[k]
            _replay_count(rank3, tracer, c, a, graphs)
    tracer.request = None
    return latencies, failed


def play(rank3, reference, job) -> dict:
    """Run one round of ``job`` in this process and return what the parent needs."""
    start_probe = probe()
    tracer = spans.Tracer(bool(job["trace"]))
    step = {"table": table_round, "queries": queries_round}[job["workload"]]
    segments, failed = step(rank3, reference, job, tracer)
    return {"start_probe": start_probe, "segments": segments, "failed": failed,
            "rss_mb": peak_rss_mb(),
            "spans": tracer.spans, "counts": tracer.counts}


WORKLOADS = {"table": table, "queries": queries}
