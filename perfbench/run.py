"""The permprod benchmark: four CLI jobs, job-level metrics, a traced layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every job is a fresh interpreter that
imports ``permprod.cli`` from ``src/`` and calls its ``main`` with the
workload's arguments, as a user of the ``permprod`` command does; a fresh
interpreter per job keeps the oracle's ``lru_cache`` tables cold, as they
are for every real invocation. The load is a closed loop with one client:
one job at a time, one single-threaded process, on a 2-core machine.

A run repeats the workload's job until ``--seconds`` have passed (and at
least ``Workload.min_jobs`` times) and checks every report: the workload's
output check, and byte-identical reports for the one seed of the run.
Before each job it spawns set-up probes, which stop right after the config
is validated.

``--trace 0`` prints the end-to-end metrics of the run. The host's speed
drifts by up to about 2x over minutes, and wobbles within seconds, because
other tenants share its cores. So every timing is scaled to a fixed machine
speed: right before and right after each spawn the runner, pinned with its
jobs to one CPU, times a reference block (a pure-Python loop and a numpy
argsort with gathers, the two kinds of work the jobs do), and the spawn's
time is scaled by ``REFERENCE_S`` over the mean of those two readings, i.e.
to seconds on a machine where the block takes ``REFERENCE_S``. A change to permprod moves these figures as it moves
wall time; a change of the host's speed moves the block with them and
cancels. The unscaled wall-clock times are printed beside them.
    setup_s        spawn of the job process until permprod.cli is imported and
                   the config is validated; median over probes and jobs
    run_ref_s      validated config until the report is written; mean over
                   jobs
    throughput_ref requested products per reference second of run_ref_s for
                   the Monte Carlo workloads (samples x grid points), report
                   cases for lemmas-n5, report rows for exact-n7
    peak_rss_mb    peak resident set of the job process; median over jobs
The share of failed jobs is ``failed / attempted`` in the result line; it is
not a metric because a correct program keeps it at 0.

``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of ``tracing.py``'s spans and counts, medians over the traced jobs.
Their counts must repeat exactly from job to job. ``trace.overhead_s`` is
traced minus untraced wall-clock run time, unscaled.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 2, with no result, when the checkout has
no ``src/permprod``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"
WORK = ROOT / ".perfbench_tmp"

PROBES_PER_JOB = 1
MIN_SETUP_SAMPLES = 11

# The reference block: about 20 ms of interpreter loop and 20 ms of numpy
# sorting and gathering on a 2-vCPU Xeon VM.
REFERENCE_S = 0.05
REFERENCE_LOOP = 250_000
REFERENCE_REPEATS = 3
REFERENCE_ARRAY = np.random.default_rng(0).permutation(1 << 18)

SCAN_SAMPLES = 2000
SCAN_GRID = (250, 1000)
SCAN_FUNCTIONALS = (1, 2, 3)
SCAN_TV_ORDERS = (2, 3)
COUNTER_SAMPLES = 3000
EXACT_N = 7
EXACT_THETAS = (Fraction(2), Fraction(1, 2))


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]
    factors: int  # sampler factors per product; 0 for exact and sweep jobs
    samples: int
    grid_points: int
    throughput_of: str  # what throughput counts
    # Jobs a run makes even when --seconds has passed. Two for the 17-28 s
    # lemmas job keep its runs under a minute, so that 22 runs of each of
    # the four workloads fit in under an hour; with one, the two reference
    # readings around a single job set its scale alone, and its runs spread
    # by 6-11 %.
    min_jobs: int = 3

    def work(self, report: str) -> float:
        if self.throughput_of == "products":
            return self.samples * self.grid_points
        if self.throughput_of == "cases":
            return sum(checks.lemma_cases(report).values())
        return len(checks.parse_report(report)[0])

    def check(self, report: str) -> tuple[list[str], str]:
        """Problems with the report, and a note for the human-readable log."""
        if self.cli[0] == "convergence":
            problems, within_3 = checks.check_scan(
                report, self.samples, SCAN_GRID, SCAN_FUNCTIONALS, SCAN_TV_ORDERS
            )
            total = len(SCAN_GRID) * len(SCAN_FUNCTIONALS)
            return problems, f"{within_3}/{total} moments within criterion 07's 3 stderr"
        if self.cli[0] == "counterexample":
            return checks.check_counterexample(report), ""
        if self.cli[0] == "exact":
            return checks.check_exact(report, EXACT_N, *EXACT_THETAS), ""
        return checks.check_lemmas(report), ""


def _list(values) -> str:
    return ", ".join(str(v) for v in values)


WORKLOADS = {
    "scan-ewens": Workload(
        cli=(
            "convergence",
            "--samplers", "ewens:2, ewens:1/2",
            "--n-grid", _list(SCAN_GRID),
            "--functionals", _list(f"product:{v}" for v in SCAN_FUNCTIONALS),
            "--tv-orders", _list(SCAN_TV_ORDERS),
            "--samples", str(SCAN_SAMPLES),
        ),
        factors=2,
        samples=SCAN_SAMPLES,
        grid_points=len(SCAN_GRID),
        throughput_of="products",
    ),
    "counter-fixed": Workload(
        cli=(
            "counterexample",
            "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt",
            "--n", "4096",
            "--samples", str(COUNTER_SAMPLES),
        ),
        factors=2,
        samples=COUNTER_SAMPLES,
        grid_points=1,
        throughput_of="products",
    ),
    "exact-n7": Workload(
        cli=(
            "exact",
            "--samplers", "ewens:2, ewens:1/2",
            "--n", str(EXACT_N),
            "--v-vec", "1",
        ),
        factors=0,
        samples=0,
        grid_points=0,
        throughput_of="report rows",
    ),
    "lemmas-n5": Workload(
        cli=("verify-lemmas",),
        factors=0,
        samples=0,
        grid_points=0,
        throughput_of="cases",
        min_jobs=2,
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_ref_s", "s"),
    ("throughput_ref", "1/s"),
    ("peak_rss_mb", "MB"),
)

SWEEP_FUNCTIONS = (
    "sweep_trace_identity",
    "sweep_traversal_consistency",
    "sweep_shared_cycle",
    "sweep_reversal_symmetry",
    "sweep_small_components",
    "sweep_event_factorization",
    "sweep_relabel_dichotomy",
    "sweep_membership_bounds",
    "sweep_prefix_decay",
)

# Per-layer metrics: name, unit, whether the value is a time (median over
# traced jobs) or a count (must repeat exactly), and what it should move.
MC = "run_ref_s and peak_rss_mb on scan-ewens and counter-fixed"
PER_LAYER = (
    ("samplers.ewens_rows.s", "s", "time", "run_ref_s on scan-ewens; 0 on counter-fixed"),
    ("samplers.sqrt_fixed_rows.s", "s", "time", "run_ref_s on counter-fixed; 0 on scan-ewens"),
    ("samplers.product_rows.s", "s", "time", MC + "; larger share on counter-fixed"),
    ("samplers.small_cycle_counts.s", "s", "time", MC + "; larger share on counter-fixed"),
    ("samplers.product_rows.bytes", "B", "count", "computed from shape x itemsize; int32 rows halve it"),
    ("samplers.small_cycle_counts.bytes", "B", "count", "computed from shape x itemsize; int32 rows halve it"),
    ("samplers.rows_drawn", "count", "count", MC),
    ("stats.chunks", "count", "count", MC),
    ("stats.draw_efficiency", "ratio", "count", "1/3 on scan-ewens, 2/3 on counter-fixed; a single TV pass raises it and throughput_ref on scan-ewens"),
    ("stats.moment_estimates.self_s", "s", "time", "chunk-loop overhead in run_ref_s on both Monte Carlo workloads"),
    ("stats.sample_joint_counts.self_s", "s", "time", "chunk-loop overhead in run_ref_s on scan-ewens"),
    ("stats.empirical_joint_pmf.s", "s", "time", "about 1 % of run_ref_s on scan-ewens: no end-to-end change"),
    ("stats.eta_joint_pmf.s", "s", "time", "about 1 % of run_ref_s on scan-ewens: no end-to-end change"),
    ("stats.tv_distance.s", "s", "time", "about 1 % of run_ref_s on scan-ewens: no end-to-end change"),
    ("oracle.product_type_distribution.s", "s", "time", "run_ref_s on exact-n7; 0 elsewhere"),
    ("oracle.product_type_distribution.calls", "count", "count", "run_ref_s on exact-n7; 0 elsewhere"),
    ("oracle.verify_bounds.s", "s", "time", "run_ref_s on lemmas-n5"),
    ("oracle.exact_graph_prob.s", "s", "time", "run_ref_s on lemmas-n5"),
    *((f"sweeps.{fn}.s", "s", "time", "run_ref_s and throughput_ref on lemmas-n5") for fn in SWEEP_FUNCTIONS),
    *((f"sweeps.{suite}.cases", "count", "count", "throughput_ref on lemmas-n5") for suite in checks.LEMMA_CASES),
    ("cyclegraphs.traversal.calls", "count", "count", "a fused sweep cuts it and run_ref_s on lemmas-n5"),
    ("cyclegraphs.traversal.reuse", "ratio", "count", "distinct (sigma, rho, m) per call; a fused sweep raises it"),
    ("perms.all_permutations.calls", "count", "count", "a fused sweep cuts it and run_ref_s on lemmas-n5"),
    ("cli.emit_report.s", "s", "time", "small on every workload"),
    ("cli.report_bytes", "B", "count", "small on every workload"),
    ("trace.overhead_s", "s", "time", "traced minus untraced wall-clock run time"),
)

NO_WAIT_NOTE = (
    "no layer has waited time: each job is one single-threaded process "
    "with no I/O wait while it computes"
)


class Runner:
    """Spawns jobs of one workload into a scratch directory of the checkout."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.cli_args = [*workload.cli, "--seed", str(seed)]
        self.dir = work_dir
        self.spawned = 0
        self.versions: dict = {}

    def spawn(self, setup_only: bool = False, trace: bool = False) -> dict:
        """One job in a fresh interpreter; returns its timings and outputs."""
        self.spawned += 1
        tag = f"{self.spawned:04d}"
        marks_path = self.dir / f"marks-{tag}.json"
        report_path = self.dir / f"report-{tag}.csv"
        spans_path = self.dir / f"spans-{tag}.json"
        own = [str(marks_path)]
        if setup_only:
            own.append("--setup-only")
        if trace:
            own += ["--trace", str(spans_path)]
        argv = [sys.executable, str(JOB), *own, "--", *self.cli_args, "--output", str(report_path)]
        log_path = self.dir / f"log-{tag}.txt"
        with open(log_path, "wb") as log:
            spawned_ns = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=log)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        out = {"exit": proc.returncode}
        marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
        if "peak_rss_mb" in marks:
            out["peak_rss_mb"] = marks["peak_rss_mb"]
        self.versions = {k: marks[k] for k in ("numpy", "python") if k in marks}
        if "run_start_ns" in marks:
            out["setup_s"] = (marks["run_start_ns"] - spawned_ns) / 1e9
        if "run_end_ns" in marks:
            out["run_s"] = (marks["run_end_ns"] - marks["run_start_ns"]) / 1e9
        if report_path.exists():
            out["report"] = report_path.read_text()
        if trace and spans_path.exists():
            out["trace"] = json.loads(spans_path.read_text())
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"job {tag} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        for path in (marks_path, report_path, spans_path, log_path):
            path.unlink(missing_ok=True)
        return out


class Verdicts:
    """Checks every job's report; a failed job counts and the run goes on."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_report: str | None = None
        self.notes: set[str] = set()

    def judge(self, job: dict) -> bool:
        self.attempted += 1
        problems = []
        if job["exit"] != 0:
            problems.append(f"exit code {job['exit']}")
        report = job.get("report")
        if report is None or "run_s" not in job:
            problems.append("no report written")
        else:
            found, note = self.workload.check(report)
            problems += found
            if note:
                self.notes.add(note)
            if self.first_report is None:
                self.first_report = report
            elif report != self.first_report:
                problems.append("report bytes differ from the first job of this seed")
        if problems:
            self.failed += 1
            print("output check failed: " + "; ".join(problems), file=sys.stderr)
        return not problems


def _median(values):
    return statistics.median(values) if values else 0.0


def reference_block() -> float:
    """Seconds the runner takes for a fixed mix of interpreter and numpy work.

    The median of ``REFERENCE_REPEATS`` timings, so one preempted block does
    not set the scale of a job.
    """
    gc.collect()
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i
        order = np.argsort(REFERENCE_ARRAY)
        REFERENCE_ARRAY[order][order].sum()
        times.append(time.perf_counter() - start)
    return _median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds, between blocks timed ``before`` and ``after``
    them, to seconds on a machine where the block takes REFERENCE_S."""
    return REFERENCE_S / ((before + after) / 2)


def _line(name: str, value, unit: str, detail: str) -> None:
    print(f"{name:<44} {value!r:>24} {unit:<6} {detail}")


def environment(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), ""
            )
    except OSError:
        pass
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
        "python": sys.version.split()[0],
        "commit": commit,
        "loadavg_at_start": os.getloadavg()[0],
        "workload_seed": seed,
    }


def measure(runner: Runner, verdicts: Verdicts, seconds: float) -> dict:
    """End-to-end metrics over jobs and set-up probes for ``seconds``.

    Each spawn's times are scaled by the reference blocks timed right before
    and right after it. Set-up time and peak RSS are medians over the run;
    set-up is sampled by short probes spread between the jobs. Run time is
    the mean over the jobs: the host's speed wobbles within seconds, so the
    times of short jobs spread into two or three clusters, and a median
    jumps between them from run to run where a mean averages them.
    """
    workload = runner.workload
    start = time.monotonic()
    reference = [reference_block()]
    setups, runs, rss, works = [], [], [], []
    wall_setups, wall_runs = [], []

    def spawn(setup_only: bool) -> dict:
        out = runner.spawn(setup_only=setup_only)
        reference.append(reference_block())
        out["scale"] = scale(reference[-2], reference[-1])
        return out

    def probe() -> bool:
        out = spawn(setup_only=True)
        if out["exit"] == 0 and "setup_s" in out:
            setups.append(out["setup_s"] * out["scale"])
            wall_setups.append(out["setup_s"])
            return True
        return False

    while True:
        for _ in range(PROBES_PER_JOB):
            probe()
        job = spawn(setup_only=False)
        if verdicts.judge(job):
            setups.append(job["setup_s"] * job["scale"])
            runs.append(job["run_s"] * job["scale"])
            wall_setups.append(job["setup_s"])
            wall_runs.append(job["run_s"])
            rss.append(job["peak_rss_mb"])
            works.append(workload.work(job["report"]))
        if time.monotonic() - start >= seconds and verdicts.attempted >= workload.min_jobs:
            break
    while len(setups) < MIN_SETUP_SAMPLES and probe():
        pass
    run_ref_s = statistics.fmean(runs) if runs else 0.0

    def wall(centre: str, samples: list[float]) -> str:
        value = _median(samples) if centre == "median" else statistics.fmean(samples)
        return f"wall {centre} {value:.4f} s of {len(samples)}: " + " ".join(
            f"{v:.4f}" for v in sorted(samples)
        )

    values = {
        "setup_s": (_median(setups), wall("median", wall_setups)),
        "run_ref_s": (run_ref_s, wall("mean", wall_runs)),
        "throughput_ref": (
            statistics.fmean(works) / run_ref_s if run_ref_s else 0.0,
            f"{workload.throughput_of} of {len(runs)} jobs per s of run_ref_s",
        ),
        "peak_rss_mb": (_median(rss), f"median of {len(rss)}"),
    }
    print(
        f"reference block: median {_median(reference):.4f} s of {len(reference)}, "
        f"scaled to {REFERENCE_S} s; quartiles "
        + " ".join(f"{q:.4f}" for q in statistics.quantiles(reference, n=4))
    )
    metrics = {}
    for metric, unit in END_TO_END:
        value, detail = values[metric]
        _line(metric, value, unit, detail)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def layer_values(workload: Workload, job: dict) -> dict[str, float]:
    """Every per-layer metric of one traced job; 0 for layers it never calls."""
    summary = tracing.summarize(job["trace"])
    counts = job["trace"]["counts"]
    computed = job["trace"]["computed"]

    def span(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0)

    rows_drawn = computed.get("samplers.rows_drawn", 0)
    requested = workload.factors * workload.samples * workload.grid_points
    traversals = counts.get("cyclegraphs.traversal", 0)
    cases = checks.lemma_cases(job["report"]) if workload.cli[0] == "verify-lemmas" else {}
    out = {
        "samplers.ewens_rows.s": span("samplers.ewens_rows"),
        "samplers.sqrt_fixed_rows.s": span("samplers.sqrt_fixed_rows"),
        "samplers.product_rows.s": span("samplers.product_rows"),
        "samplers.small_cycle_counts.s": span("samplers.small_cycle_counts"),
        "samplers.product_rows.bytes": computed.get("samplers.product_rows.bytes", 0),
        "samplers.small_cycle_counts.bytes": computed.get("samplers.small_cycle_counts.bytes", 0),
        "samplers.rows_drawn": rows_drawn,
        "stats.chunks": span("samplers.small_cycle_counts", "calls"),
        "stats.draw_efficiency": requested / rows_drawn if rows_drawn else 0.0,
        "stats.moment_estimates.self_s": span("stats.moment_estimates", "self_s"),
        "stats.sample_joint_counts.self_s": span("stats.sample_joint_counts", "self_s"),
        "stats.empirical_joint_pmf.s": span("stats.empirical_joint_pmf"),
        "stats.eta_joint_pmf.s": span("stats.eta_joint_pmf"),
        "stats.tv_distance.s": span("stats.tv_distance"),
        "oracle.product_type_distribution.s": span("oracle.product_type_distribution"),
        "oracle.product_type_distribution.calls": span("oracle.product_type_distribution", "calls"),
        "oracle.verify_bounds.s": span("oracle.verify_bounds"),
        "oracle.exact_graph_prob.s": span("oracle.exact_graph_prob"),
        **{f"sweeps.{fn}.s": span(f"sweeps.{fn}") for fn in SWEEP_FUNCTIONS},
        **{f"sweeps.{suite}.cases": cases.get(suite, 0) for suite in checks.LEMMA_CASES},
        "cyclegraphs.traversal.calls": traversals,
        "cyclegraphs.traversal.reuse": (
            computed["cyclegraphs.traversal.distinct"] / traversals if traversals else 0.0
        ),
        "perms.all_permutations.calls": counts.get("perms.all_permutations", 0),
        "cli.emit_report.s": span("cli.emit_report"),
        "cli.report_bytes": computed.get("cli.report_bytes", 0),
    }
    out["samplers.max_batch_bytes"] = computed.get("samplers.max_batch_bytes", 0)
    return out


def measure_layers(runner: Runner, verdicts: Verdicts, seconds: float, env: dict):
    """Per-layer metrics over alternating untraced and traced jobs."""
    workload = runner.workload
    start = time.monotonic()
    plain_runs, traced_runs, traced = [], [], []
    while True:
        plain = runner.spawn()
        if verdicts.judge(plain):
            plain_runs.append(plain["run_s"])
        job = runner.spawn(trace=True)
        if verdicts.judge(job) and "trace" in job:
            traced_runs.append(job["run_s"])
            traced.append(layer_values(workload, job))
        if time.monotonic() - start >= seconds:
            break
    repeat_ok = True
    metrics = {}
    for metric, unit, kind, moves in PER_LAYER:
        if metric == "trace.overhead_s":
            value = _median(traced_runs) - _median(plain_runs)
            detail = f"median of {len(traced_runs)} traced - median of {len(plain_runs)} untraced run_s"
        elif kind == "time":
            value = _median([t[metric] for t in traced])
            detail = f"median of {len(traced)} traced jobs"
        else:
            seen = {t[metric] for t in traced}
            value = traced[0][metric] if traced else 0
            if len(seen) > 1:
                repeat_ok = False
                print(f"{metric}: not repeated across traced jobs: {sorted(seen)}", file=sys.stderr)
            detail = f"identical in {len(traced)} traced jobs" if len(seen) <= 1 else "DIFFERS"
        _line(metric, value, unit, f"{detail}; moves {moves}")
        metrics[metric] = {"value": value, "unit": unit}
    batch = max((t["samplers.max_batch_bytes"] for t in traced), default=0)
    if batch:
        l3 = env["l3"]
        fits = l3.endswith("K") and batch <= int(l3[:-1]) * 1024
        print(
            f"note: the largest factor batch is {batch / 2**20:.0f} MiB and the shared "
            f"L3 cache is {l3}; the batches {'fit in' if fits else 'may exceed'} it, "
            "and the bytes figures are computed from array shapes, not a measured "
            "bandwidth"
        )
    print(f"note: {NO_WAIT_NOTE}")
    return metrics, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "permprod" / "cli.py").is_file():
        print(f"perfbench: no permprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The runner and every job it spawns share one CPU, so the reference
    # block is timed on the core the jobs run on: the two vCPUs' speeds
    # wobble apart, and unpinned, lemmas-n5 runs spread twice as much.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args.seed)
    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, work_dir)
        verdicts = Verdicts(workload)
        warm = runner.spawn(setup_only=True)  # fills the bytecode and file caches
        if warm["exit"] != 0:
            print("perfbench: the set-up probe failed", file=sys.stderr)
            return 2
        env.update(runner.versions)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}: permprod {' '.join(runner.cli_args)}")
        if args.trace:
            metrics, repeat_ok = measure_layers(runner, verdicts, args.seconds, env)
        else:
            metrics, repeat_ok = measure(runner, verdicts, args.seconds), True
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    for note in sorted(verdicts.notes):
        print(f"note: {note}")
    _line(
        "failed_frac",
        verdicts.failed / verdicts.attempted,
        "ratio",
        f"{verdicts.failed} of {verdicts.attempted} jobs failed",
    )
    result = {
        "correct": verdicts.failed == 0 and repeat_ok,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
