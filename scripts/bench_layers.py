#!/usr/bin/env python3
"""Per-chunk timings of the Monte Carlo layers, best of k runs.

For each n it times one chunk (the rows ``draw_chunks`` draws at once):
every sampler law, both as full relabeled draws and as the class
representatives that class-function consumers draw for factor 0 (their
cycle blocks, ``SamplerSpec.draw_blocks``), with the ``tracemalloc`` peak of one more full draw
beside the output's own size (numpy reports its buffers to
``tracemalloc``); the product of two factors; small-cycle counting of
that product for k = 1, 3 and 6; the counts of a single-factor
ewens:1/2 chunk at k = 3, factor 0's draw included (read off its block
lengths); the Feller ends of an ewens:2 chunk (``samplers._feller_ends``);
and a whole chunk through ``product_cycle_counts``: factor
0's representative drawn, then every later factor drawn, composed and
counted block by block, for a uniform and a sqrt_fixed:sqrt pair at
k = 1 and 3, for a matching_heavy:1/3 pair at k = 1, for the Ewens scan's pair (ewens:2, then ewens:1/2) at
k = 3 and for the triple scan's three ewens:1 factors at k = 2. These
last layers carry the ``tracemalloc`` peak of one more call
beside them. The layers of one n run round robin, one pass over all of
them per repeat, and each keeps its best. Then it times the
exact oracle: one ``product_type_distribution`` for ewens:2 x ewens:1/2 at n = 8, 12 and
16, with its caches cleared first, as in a fresh ``permprod exact``
process, and ``shape_prob`` of one shape from cold, with the
``tracemalloc`` peak of one more call beside it: one edge under
ewens:2 at n = 16, 20 and 24, one edge under the n-cycle law at n = 30,
40 and 50, and one edge under sqrt_fixed:sqrt at n = 4096 (64 fixed
points and a 4032-cycle). A tree whose oracle tabulates every shape of
every cycle type (it has ``oracle._shape_counts``) leaves out the rows
above n = 20: its tables took 20.7 s and 1.18 GB at n = 24 under
ewens:2 and 10.6 s at n = 50 under the n-cycle law, and cannot be built
at n = 4096. Times are wall-clock milliseconds from time.perf_counter.
Last come the stages of a default ``permprod verify-lemmas``, in
seconds, each with the ``tracemalloc`` peak of one more, untimed run:
the trace sweep at n = 7 and, beyond the default, at n = 8 (one
permutation per cycle type, every power up to 2n), the
pair pass at n = 5 with the count of rows its numpy walks
(``sweeps._walk_pairs``) take, then its two parts on their own (the four
reduced pair suites and event-factorization at n = 5), relabel-dichotomy at n = 5,
the membership bounds at n = 5 and, beyond the default, at n = 7 (the
largest ``--pair-n``), the prefix-fixing decay, and the whole default
``run_all()``, every suite of the report. These stages run round robin,
one pass over all of them per repeat, and each keeps its best. Every
cache of the oracle module is cleared before each run of the two
bounds stages and the prefix decay, and before each ``shape_prob``
row, so that a tree that keeps shape tables pays them as a fresh
``verify-lemmas`` does instead of reading the tables of the pass
before. Stages beyond the
default are timed once after them: the trace sweep at n = 10 and at
n = 30, each left out when the package's ``_SINGLE_MAX_N`` is below it
(so the one script also measures a tree that walks all n!
permutations), then, at n = 7, the largest ``--pair-n``, the four
reduced pair suites and relabel-dichotomy, and event-factorization at
n = 6 and n = 7. Event-factorization at n = 5, 6 and 7 is then timed
in parts: the whole sweep (best of k at n = 5, once above), and within
it the seconds spent building its walk table over S_n
(``sweeps._start_walks``, left out for a tree that has none) and keying
its blocks of pairs (``sweeps._key_rows``); ``walked_rows`` in the JSON
still counts the pairs the pair pass walks. Then whole jobs run in a
fresh interpreter on the same package, ``FRESH_RUNS`` times each, one
pass over all of them per run, timed from spawn to exit, with the peak
resident set that process reads for itself (VmHWM, so Linux only);
each row gives the medians,
and its JSON row every reading, as VmHWM moves by tens of MB from run
to run of one job:
``permprod verify-lemmas --pair-n 7``, and the acceptance suite's
pair-scan ``convergence`` job (ewens:2 x ewens:1/2 at n = 1000, 100,000
samples, product:1..3 and tv:3) and triple-scan job (ewens:1 three
times at n = 500, 50,000 samples, tv:2), and the benchmark's two Monte
Carlo configs: the Ewens scan (``convergence``, seed 11, ewens:2 x
ewens:1/2 at n = 250 and 1000, 2,000 samples) and the fixed-type pair
(``counterexample``, seed 11, sqrt_fixed:sqrt twice at n = 4096, 3,000
samples). Before those, the start-up of one job per command,
best of k fresh interpreters run round robin: seconds from after
``import numpy`` (which the benchmark's job imports first) to the
validated config, with the permprod modules executed by then. That is
the span ``perfbench`` counts in ``setup_s``. The package is
byte-compiled first, so that no row counts a compile. Last,
``cyclegraphs.walk_patterns`` lists its patterns for the cycle lengths
(3, 3) and (2, 2, 2), each timed once, with the pattern count beside
the time; this is left out when the package on the path has no such
function. ``--json PATH``
also writes every row, with nproc, the numpy version and the repeat
count, to PATH.

    PYTHONPATH=src python scripts/bench_layers.py [--repeat 5] [--sizes 500,1000,4096] [--json PATH]
"""

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
import tracemalloc

from fractions import Fraction
from statistics import median

import numpy as np

from permprod import cyclegraphs, oracle, samplers, sweeps
from permprod.cli import _exact_law, sampler_from_text
from permprod.oracle import ExactDistribution, product_type_distribution
from permprod.samplers import RngStream, product_rows, small_cycle_counts
from permprod.stats import _chunk_size

LAWS = ("uniform", "ewens:1/2", "ewens:2", "sqrt_fixed:sqrt", "matching_heavy:1/3")
# (factors, k values) of the product_cycle_counts rows.
FUSED_CHUNKS = (
    (("uniform", "uniform"), (1, 3)),
    (("sqrt_fixed:sqrt", "sqrt_fixed:sqrt"), (1, 3)),
    (("matching_heavy:1/3", "matching_heavy:1/3"), (1,)),
    (("ewens:2", "ewens:1/2"), (3,)),
    (("ewens:1",) * 3, (2,)),
)
ORACLE_SIZES = (8, 12, 16)
# shape_prob rows: (label, n, law builder), each for one edge.
SHAPE_ROWS = (
    *((f"ewens:2 edge n = {n}", n, lambda n: ExactDistribution.ewens(n, 2)) for n in (16, 20, 24)),
    *((f"n-cycle edge n = {n}", n, lambda n: ExactDistribution.ewens(n, 0)) for n in (30, 40, 50)),
    (
        "sqrt_fixed:sqrt edge n = 4096", 4096,
        lambda n: _exact_law(sampler_from_text("sqrt_fixed:sqrt").bind(n=n)),
    ),
)
# Above this n a tree with shape tables skips the shape_prob rows.
TABLE_MAX_N = 20
# Whole jobs run in a fresh interpreter, FRESH_RUNS times each, alternating.
FRESH_RUNS = 3
FRESH_JOBS = (
    ["verify-lemmas", "--pair-n", "7"],
    [
        "convergence", "--seed", "1", "--samplers", "ewens:2, ewens:1/2",
        "--n-grid", "1000", "--functionals", "product:1, product:2, product:3",
        "--tv-orders", "3", "--samples", "100000",
    ],
    [
        "convergence", "--seed", "1", "--samplers", "ewens:1, ewens:1, ewens:1",
        "--n-grid", "500", "--tv-orders", "2", "--samples", "50000",
    ],
    # The benchmark's two Monte Carlo configs, scan-ewens and counter-fixed.
    [
        "convergence", "--seed", "11", "--samplers", "ewens:2, ewens:1/2",
        "--n-grid", "250, 1000", "--functionals", "product:1, product:2, product:3",
        "--tv-orders", "2, 3", "--samples", "2000",
    ],
    [
        "counterexample", "--seed", "11", "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt",
        "--n", "4096", "--samples", "3000",
    ],
)

# One job per command for the start-up rows: the benchmark's four and a
# small sample and moments job.
STARTUP_JOBS = (
    ["sample", "--seed", "1", "--samplers", "uniform, ewens:2", "--n", "6", "--samples", "5"],
    [
        "moments", "--seed", "1", "--samplers", "ewens:2, ewens:1/2", "--n", "50",
        "--functionals", "product:1", "--samples", "2000",
    ],
    [
        "convergence", "--seed", "1", "--samplers", "ewens:2, ewens:1/2",
        "--n-grid", "250, 1000", "--functionals", "product:1, product:2, product:3",
        "--tv-orders", "2, 3", "--samples", "2000",
    ],
    ["exact", "--samplers", "ewens:2, ewens:1/2", "--n", "7", "--v-vec", "1"],
    ["verify-lemmas"],
    [
        "counterexample", "--seed", "1", "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt",
        "--n", "4096", "--samples", "3000",
    ],
)
# Stops the job at the validated config and prints its start-up seconds
# and the permprod modules executed by then; a layer that has not executed
# is still an instance of a types.ModuleType subclass.
STARTUP_CHILD = """
import json, sys, time, types
import numpy
start = time.perf_counter()
import permprod.cli as cli

def validated(config):
    seconds = time.perf_counter() - start
    executed = sorted(
        name.removeprefix("permprod.") for name, module in sys.modules.items()
        if name.startswith("permprod.") and type(module) is types.ModuleType
    )
    print(json.dumps({"s": seconds, "modules": executed}))
    return 0

cli.run = validated
sys.exit(cli.main(sys.argv[1:]))
"""


def best_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def round_robin(stages: dict, repeat: int) -> dict:
    """Best seconds of each stage over ``repeat`` passes; each pass runs
    every stage once, so that a slow spell of the host weighs on all
    stages alike."""
    best = dict.fromkeys(stages, float("inf"))
    for _ in range(repeat):
        for key, stage in stages.items():
            start = time.perf_counter()
            stage()
            best[key] = min(best[key], time.perf_counter() - start)
    return best


def representative(spec, size: int):
    # Factor 0 of a class-function chunk: its cycle blocks.
    return spec.draw_blocks(RngStream(1, 0), size)


def fused_chunk(specs, size: int, k: int):
    # The counts of a chunk of several factors, as ``draw_chunks`` takes them.
    streams = [RngStream(1, f) for f in range(1, len(specs))]
    return samplers.product_cycle_counts(representative(specs[0], size), specs[1:], streams, k)


def fresh_run(argv, env) -> tuple[float, int, float]:
    """Seconds from spawn to exit, exit code and peak RSS in MB of one
    ``permprod`` job in a fresh interpreter. The child reports the peak of
    its own address space (VmHWM, Linux), which a fork of this large
    process does not inflate."""
    child = (
        f"import sys; from permprod.cli import main; code = main({argv!r}); "
        "sys.stderr.write(open('/proc/self/status').read()); sys.exit(code)"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    seconds = time.perf_counter() - start
    peak_mb = int(done.stderr.split("VmHWM:")[1].split()[0]) / 1024
    return seconds, done.returncode, peak_mb


def startup(argv, env) -> dict:
    """Start-up seconds and executed modules of one job in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, *argv], env=env, capture_output=True,
        text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def cold_oracle(stage):
    # The stage after clearing every cache of the oracle module.
    def run():
        for value in vars(oracle).values():
            getattr(value, "cache_clear", lambda: None)()
        return stage()

    return run


def traced_peak(fn):
    # Peak traced allocation of one call, what it returns included, in
    # MiB, and what it returned.
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 2**20, result
    finally:
        tracemalloc.stop()


def event_factorization_parts(n: int) -> tuple[float, float | None, float]:
    """Seconds of one event-factorization at n, then of the parts of it
    spent building the walk table (``sweeps._start_walks``; None for a
    package without one) and keying the blocks of pairs
    (``sweeps._key_rows``)."""
    spent, originals = {}, {}
    for name in ("_start_walks", "_key_rows"):
        fn = getattr(sweeps, name, None)
        if fn is None:
            continue
        originals[name] = fn

        def timed(*args, fn=fn, name=name):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - start

        setattr(sweeps, name, timed)
    try:
        start = time.perf_counter()
        sweeps.sweep_event_factorization(n)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(sweeps, name, fn)
    return total, spent.get("_start_walks"), spent["_key_rows"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="runs per layer; the best is kept")
    parser.add_argument("--sizes", default="500, 1000, 4096", help="comma-separated n values")
    parser.add_argument("--json", metavar="PATH", help="also write every row to this JSON file")
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",")]
    rows = []

    def emit(text, **row):
        print(text)
        rows.append(row)

    print(f"nproc {os.cpu_count()}, numpy {np.__version__}, best of {args.repeat}, ms per chunk")
    for n in sizes:
        size = _chunk_size(n)
        print(f"n = {n}, {size} rows per chunk")
        specs = {text: sampler_from_text(text).bind(n=n) for text in LAWS}
        draws = {}
        for text, spec in specs.items():
            draws[(text, True)] = lambda spec=spec: spec.draw_batch(RngStream(1, 0), size)
            draws[(text, False)] = lambda spec=spec: representative(spec, size)
        factors = [specs["uniform"].draw_batch(RngStream(1, f), size) for f in range(2)]
        layers = [("product_rows x2", "product_rows", None, None, lambda: product_rows(factors))]
        prod = product_rows(factors)
        layers += [
            (f"small_cycle_counts {k}", "small_cycle_counts", None, k, lambda k=k: small_cycle_counts(prod, k))
            for k in (1, 3, 6)
        ]
        layers.append(
            (
                "single factor ewens:1/2 3", "single-factor counts", None, 3,
                lambda: representative(specs["ewens:1/2"], size).cycle_counts(3),
            )
        )
        layers.append(
            (
                "feller ends ewens:2", "_feller_ends", None, None,
                lambda: samplers._feller_ends(RngStream(1, 0).generator, size, n, 2.0),
            )
        )
        # A whole chunk: factor 0's representative, then every later
        # factor drawn, composed and counted.
        for laws, ks in FUSED_CHUNKS:
            bound = [sampler_from_text(text).bind(n=n) for text in laws]
            layers += [
                (
                    f"product_cycle_counts {' x '.join(laws)} {k}", "product_cycle_counts",
                    laws, k, lambda bound=bound, k=k: fused_chunk(bound, size, k),
                )
                for k in ks
            ]
        best = round_robin(
            {**draws, **{label: fn for label, _, _, _, fn in layers}}, args.repeat
        )
        for text, spec in specs.items():
            full, rep = (best[(text, r)] * 1e3 for r in (True, False))
            peak, out = traced_peak(lambda: spec.draw_batch(RngStream(1, 0), size))
            emit(
                f"  {text:<20} full {full:8.2f}  representative {rep:8.2f}"
                f"  full-draw peak {peak:6.1f} MiB, output {out.nbytes / 2**20:5.1f} MiB",
                layer="draw_batch", law=text, n=n, rows=size, full_ms=full,
                representative_ms=rep, peak_mib=peak, output_mib=out.nbytes / 2**20,
            )
        for label, layer, laws, k, fn in layers:
            ms = best[label] * 1e3
            peak = traced_peak(fn)[0]
            extra = {"laws": list(laws)} if laws else {}
            emit(
                f"  {label:<60} {ms:8.2f}  peak {peak:6.1f} MiB",
                layer=layer, n=n, rows=size, k=k, ms=ms, peak_mib=peak, **extra,
            )
    print("oracle: product_type_distribution(ewens:2, ewens:1/2), cold caches, ms")
    for n in ORACLE_SIZES:
        laws = (ExactDistribution.ewens(n, 2), ExactDistribution.ewens(n, Fraction(1, 2)))
        ms = best_ms(cold_oracle(lambda: product_type_distribution(*laws)), args.repeat)
        emit(f"  n = {n:<16} {ms:8.2f}", layer="product_type_distribution", n=n, ms=ms)
    print("oracle: shape_prob of one edge, cold caches, ms, and MiB traced")
    tables = hasattr(oracle, "_shape_counts")
    for label, n, build in SHAPE_ROWS:
        if tables and n > TABLE_MAX_N:
            continue
        law = build(n)
        one = cold_oracle(lambda law=law: oracle.shape_prob(law, ((2, 1),)))
        ms = best_ms(one, args.repeat)
        peak = traced_peak(one)[0]
        emit(
            f"  {label:<30} {ms:10.3f}  peak {peak:8.2f} MiB",
            layer="shape_prob", law=label.split()[0], n=n, ms=ms, peak_mib=peak,
        )
    print("verify-lemmas stages at the default sizes: s, and MiB traced")
    # An untimed pair pass counts the rows of its numpy walks.
    walk = sweeps._walk_pairs
    walked = 0

    def counted(sigma_inv, rho, *rest):
        nonlocal walked
        walked += len(rho)
        return walk(sigma_inv, rho, *rest)

    sweeps._walk_pairs = counted
    try:
        sweeps.sweep_pairs(5)
    finally:
        sweeps._walk_pairs = walk

    stages = (
        ("trace n = 7", lambda: sweeps.sweep_trace_identity(7), ""),
        ("trace n = 8", lambda: sweeps.sweep_trace_identity(8), ""),
        ("pair pass n = 5", lambda: sweeps.sweep_pairs(5), f"  {walked} walked rows"),
        ("reduced pairs n = 5", lambda: sweeps._reduced_pair_suites(5), ""),
        ("event-factor. n = 5", lambda: sweeps.sweep_event_factorization(5), ""),
        ("relabel n = 5", lambda: sweeps.sweep_relabel_dichotomy(5), ""),
        ("bounds n = 5", cold_oracle(lambda: sweeps.sweep_membership_bounds(5)), ""),
        ("bounds n = 7", cold_oracle(lambda: sweeps.sweep_membership_bounds(7)), ""),
        ("prefix decay", cold_oracle(sweeps.sweep_prefix_decay), ""),
        ("run_all()", sweeps.run_all, ""),
    )
    best = round_robin({label: stage for label, stage, _ in stages}, args.repeat)
    for label, stage, note in stages:
        peak = traced_peak(stage)[0]
        emit(
            f"  {label:<20} {best[label]:8.3f} s  peak {peak:8.2f} MiB{note}",
            layer="verify-lemmas stage", stage=label, s=best[label], peak_mib=peak,
        )
    # The trace sweep only where the package's own cap allows it.
    once = [
        (f"trace n = {n}", lambda n=n: sweeps.sweep_trace_identity(n))
        for n in (10, 30)
        if n <= sweeps._SINGLE_MAX_N
    ]
    once += [
        ("reduced pairs n = 7", lambda: sweeps._reduced_pair_suites(7)),
        ("relabel n = 7", lambda: sweeps.sweep_relabel_dichotomy(7)),
        ("event-factor. n = 6", lambda: sweeps.sweep_event_factorization(6)),
        ("event-factor. n = 7", lambda: sweeps.sweep_event_factorization(7)),
    ]
    for label, stage in once:
        seconds = best_ms(stage, 1) / 1e3
        peak = traced_peak(stage)[0]
        emit(
            f"  {label:<20} {seconds:8.3f} s  peak {peak:8.2f} MiB  timed once",
            layer="verify-lemmas stage", stage=label, s=seconds, peak_mib=peak, repeat=1,
        )
    print("event-factorization parts: s of the whole, the walk table and the key rows")
    for n in (5, 6, 7):
        repeat = args.repeat if n == 5 else 1
        total, table, keys = min(event_factorization_parts(n) for _ in range(repeat))
        table_text = "    none" if table is None else f"{table:8.4f}"
        emit(
            f"  n = {n:<16} {total:8.3f} s  table {table_text} s  key rows {keys:8.3f} s",
            layer="event-factorization parts", n=n, s=total, table_s=table, key_rows_s=keys,
            repeat=repeat,
        )
    # The package's own source directory goes first on the child's path.
    source = os.path.dirname(os.path.dirname(os.path.abspath(sweeps.__file__)))
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    compileall.compile_dir(os.path.dirname(sweeps.__file__), quiet=1)
    print(f"start-up after numpy to the validated config, best of {args.repeat}: ms")
    fastest = {}
    for _ in range(args.repeat):
        for argv in STARTUP_JOBS:
            row = startup(argv, env)
            if argv[0] not in fastest or row["s"] < fastest[argv[0]]["s"]:
                fastest[argv[0]] = row
    for argv in STARTUP_JOBS:
        row = fastest[argv[0]]
        emit(
            f"  {argv[0]:<20} {row['s'] * 1e3:8.2f} ms  {', '.join(row['modules'])}",
            layer="start-up", args=argv, s=row["s"], modules=row["modules"],
        )
    print(f"whole jobs in a fresh interpreter: median s and peak RSS of {FRESH_RUNS} runs")
    readings = [[] for _ in FRESH_JOBS]
    for _ in range(FRESH_RUNS):
        for argv, runs in zip(FRESH_JOBS, readings):
            runs.append(fresh_run(argv, env))
    for argv, runs in zip(FRESH_JOBS, readings):
        seconds, codes, peaks = zip(*runs)
        s, peak_mb, code = median(seconds), median(peaks), next((c for c in codes if c), 0)
        emit(
            f"  {argv[0]:<20} {s:8.3f} s  peak RSS {peak_mb:7.1f} MB  exit {code}",
            layer=f"{argv[0]} run", args=argv, s=s, peak_rss_mb=peak_mb, exit_code=code,
            repeat=FRESH_RUNS, runs_s=list(seconds), runs_peak_rss_mb=list(peaks),
        )
    patterns = getattr(cyclegraphs, "walk_patterns", None)
    if patterns is not None:
        print("walk patterns: s, timed once")
        for v_vec in ((3, 3), (2, 2, 2)):
            start = time.perf_counter()
            count = sum(1 for _ in patterns(v_vec))
            seconds = time.perf_counter() - start
            emit(
                f"  v = {str(v_vec):<16} {seconds:8.3f} s  {count} patterns",
                layer="walk_patterns", v=list(v_vec), s=seconds, patterns=count, repeat=1,
            )
    if args.json:
        meta = {"nproc": os.cpu_count(), "numpy": np.__version__, "repeat": args.repeat}
        with open(args.json, "w") as fh:
            json.dump({**meta, "walked_rows": walked, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
