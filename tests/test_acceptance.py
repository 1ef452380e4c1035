"""Acceptance gate: every release criterion, one pass/fail line each.

Each test prints its verdict with capture suspended so the
one-line-per-criterion summary survives in piped logs, then asserts.
Monte Carlo criteria run through the command-line front end with pinned
seeds; their artifacts are produced twice so the reproducibility
criterion can compare raw bytes.
"""

import csv
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from permprod.cli import main
from permprod.cyclegraphs import enumerate_B
from permprod.oracle import (
    ExactDistribution,
    exact_joint_cycle_prob,
    exact_moment,
)
from permprod.samplers import RngStream, SamplerSpec, product_rows, small_cycle_counts
from permprod.sweeps import (
    sweep_membership_bounds,
    sweep_pairs,
    sweep_relabel_dichotomy,
)


@pytest.fixture
def report(capsys):
    def _report(num: int, desc: str, ok: bool, note: str = ""):
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict} criterion {num:02d}: {desc}"
        if note:
            line += f" [{note}]"
        with capsys.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _report


def _csv_rows(path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


_CLI_JOBS = {
    "pair-scan": [
        "convergence",
        "--seed", "1",
        "--samplers", "ewens:2, ewens:1/2",
        "--n-grid", "1000",
        "--functionals", "product:1, product:2, product:3",
        "--tv-orders", "3",
        "--samples", "100000",
    ],
    "triple-scan": [
        "convergence",
        "--seed", "1",
        "--samplers", "ewens:1, ewens:1, ewens:1",
        "--n-grid", "500",
        "--tv-orders", "2",
        "--samples", "50000",
    ],
    "fixed-heavy": [
        "counterexample",
        "--seed", "1",
        "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt",
        "--n", "4096",
        "--samples", "20000",
    ],
    "matching-heavy": [
        "counterexample",
        "--seed", "1",
        "--samplers", "matching_heavy:1/2, matching_heavy:1/2",
        "--n", "2000",
        "--samples", "20000",
    ],
}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Run each Monte Carlo job twice into separate files."""
    root = tmp_path_factory.mktemp("artifacts")
    out = {}
    for name, argv in _CLI_JOBS.items():
        paths = (root / f"{name}_run1.csv", root / f"{name}_run2.csv")
        t0 = time.perf_counter()
        code1 = main(argv + ["--output", str(paths[0])])
        elapsed = time.perf_counter() - t0
        code2 = main(argv + ["--output", str(paths[1])])
        assert code1 == 0 and code2 == 0, f"{name} exited {code1}/{code2}"
        out[name] = {"paths": paths, "elapsed": elapsed}
    return out


def test_criterion_01_first_moments_exact(report):
    t0 = time.perf_counter()
    d = ExactDistribution.uniform(6)
    ok = all(exact_moment((d, d), (v,)) == Fraction(1, v) for v in range(1, 7))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, "E[t_v] = 1/v exactly at n=6 for v=1..6", ok, f"{elapsed:.1f}s")


def test_criterion_02_second_moment_exact(report):
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        d = ExactDistribution.uniform(n)
        ok = ok and exact_moment((d, d), (1, 1)) == 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(2, "E[t_1^2] = 2 exactly at n=4,5,6", ok, f"{elapsed:.1f}s")


def test_criterion_03_scaled_joint_prob_exact(report):
    ok = True
    for n in (4, 5, 6):
        d = ExactDistribution.uniform(n)
        scaled = n**2 * exact_joint_cycle_prob((d, d), (1, 2))
        ok = ok and scaled == Fraction(n, n - 1)
    report(3, "n^2 P(c_1=1, c_2=2) = n/(n-1) exactly at n=4,5,6", ok)


def test_criterion_04_exhaustive_pair_sweeps(report):
    t0 = time.perf_counter()
    summaries = [*sweep_pairs(4), sweep_relabel_dichotomy(4), *sweep_pairs(5)]
    elapsed = time.perf_counter() - t0
    bad = [s.suite for s in summaries if not s.ok]
    ok = not bad and elapsed < 120
    report(
        4,
        "pair sweeps: all suites at n=4, the five pair suites at n=5, zero violations",
        ok,
        f"{elapsed:.1f}s" + (f", violations in {bad}" if bad else ""),
    )


def test_criterion_05_membership_bounds_exhaustive(report):
    t0 = time.perf_counter()
    summaries = sweep_membership_bounds(5, thetas=("1/2", "1", "2"))
    elapsed = time.perf_counter() - t0
    bad = [s.suite for s in summaries if not s.ok]
    checks = sum(s.cases for s in summaries)
    ok = not bad and checks > 0 and elapsed < 300
    report(
        5,
        "exact bound families over all union graphs at n=5, three biases",
        ok,
        f"{checks} checks, {elapsed:.1f}s",
    )


def test_criterion_06_couple_counts(report):
    t0 = time.perf_counter()
    expected = {(3, 1): 2, (4, 1): 3, (6, 2): 60, (8, 2): 210}
    ok = True
    for (n, v1), want in expected.items():
        t = ((2, 1),) * v1
        got = enumerate_B(n, (v1,), t, t)
        binom = math.comb(n - 1, 2 * v1 - 1) * math.factorial(2 * v1 - 1)
        ok = ok and got == want == binom
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(
        6,
        "realizable couple counts match the choice formula at four sizes",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_07_moments_and_joint_law_at_scale(cli_artifacts, report):
    job = cli_artifacts["pair-scan"]
    rows = {r["functional"]: r for r in _csv_rows(job["paths"][0])}
    ok = job["elapsed"] < 600
    notes = [f"{job['elapsed']:.0f}s"]
    for v in (1, 2, 3):
        row = rows[f"product:{v}"]
        err = abs(float(row["value"]) - 1 / v)
        band = 3 * float(row["stderr"])
        ok = ok and err <= band
        notes.append(f"v={v}: |err|={err:.4f}<={band:.4f}")
    tv = float(rows["tv:3"]["value"])
    ok = ok and tv <= 0.02
    notes.append(f"tv={tv:.4f}<=0.02")
    report(7, "biased pair at n=1000: moments within 3 sigma, joint law close", ok, ", ".join(notes))


def test_criterion_08_three_factor_joint_law(cli_artifacts, report):
    job = cli_artifacts["triple-scan"]
    rows = {r["functional"]: r for r in _csv_rows(job["paths"][0])}
    tv = float(rows["tv:2"]["value"])
    ok = tv <= 0.03
    report(8, "three-factor product at n=500: (t_1, t_2) joint law close", ok, f"tv={tv:.4f}<=0.03")


def test_criterion_09_fixed_point_heavy_factors(cli_artifacts, report):
    job = cli_artifacts["fixed-heavy"]
    rows = {r["functional"]: r for r in _csv_rows(job["paths"][0])}
    value = float(rows["product:1"]["value"])
    ok = 1.8 <= value <= 2.2
    # same construction checked against the exact product law at n=8,
    # where both factors have two fixed points and one 6-cycle
    law8 = ExactDistribution.explicit(8, {(6, 1, 1): 1}, kind="fixed-heavy")
    ok = ok and exact_moment((law8, law8), (1,)) == Fraction(8, 7)
    report(
        9,
        "fixed-point-heavy pair at n=4096: E[#1 of product] lands near 2",
        ok,
        f"value={value:.4f} in [1.8, 2.2], oracle n=8 gives 8/7",
    )


def test_criterion_10_matching_heavy_factors(cli_artifacts, report):
    job = cli_artifacts["matching-heavy"]
    rows = {r["functional"]: r for r in _csv_rows(job["paths"][0])}
    value = float(rows["product:1*1"]["value"])
    ok = 2.7 <= value <= 3.3
    # exact product law at n=6: three 2-cycles in each factor
    law6 = ExactDistribution.explicit(6, {(2, 2, 2): 1}, kind="matching-heavy")
    ok = ok and exact_moment((law6, law6), (1, 1)) == 4
    report(
        10,
        "matching-heavy pair at n=2000: E[(#1 of product)^2] lands near 3",
        ok,
        f"value={value:.4f} in [2.7, 3.3], oracle n=6 gives 4",
    )


def test_criterion_11_power_trace_identity(report):
    size, n, kmax = 10**4, 200, 6
    rows1 = SamplerSpec("uniform", n=n).draw_batch(RngStream(1, 0), size)
    rows2 = SamplerSpec("uniform", n=n).draw_batch(RngStream(1, 1), size)
    prod = product_rows([rows1, rows2])
    counts = small_cycle_counts(prod, kmax)
    idx = np.arange(n)
    power = prod.copy()
    exceptions = 0
    for k in range(1, kmax + 1):
        traces = (power == idx).sum(axis=1)
        divisor_sums = sum(
            d * counts[:, d - 1] for d in range(1, k + 1) if k % d == 0
        )
        exceptions += int((traces != divisor_sums).sum())
        power = np.take_along_axis(prod, power, axis=1)
    ok = exceptions == 0
    report(
        11,
        "trace of k-th power equals the divisor-weighted cycle counts, "
        "sample by sample",
        ok,
        f"{size} products, k<=6, {exceptions} exceptions",
    )


def test_criterion_12_reproducible_artifacts(cli_artifacts, report):
    diffs = [
        name
        for name, job in cli_artifacts.items()
        if job["paths"][0].read_bytes() != job["paths"][1].read_bytes()
    ]
    ok = not diffs
    report(
        12,
        "identical seeds reproduce identical output bytes for all sampling jobs",
        ok,
        "4 jobs rerun" + (f", mismatch in {diffs}" if diffs else ""),
    )
