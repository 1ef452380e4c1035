"""Output checks for each workload's report.

Each check takes the report text and returns a list of problems; an empty
list means the report is correct. Checks read the CSV the CLI writes and
need nothing from permprod itself.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

# Criterion 07 of the acceptance gate bands each moment at 3 stderr for one
# pinned seed. The benchmark draws a new seed on every run and checks six
# moments per report, so it uses a Bonferroni-style band: at 4.5 stderr a
# correct program fails a report with probability below 1e-4.
MOMENT_Z = 4.5
CRITERION_07_Z = 3.0

# Case counts of every verify-lemmas suite at the default sizes
# (pair_n = 5, single_n = 7).
LEMMA_CASES = {
    "trace-power-identity": 70560,
    "traversal-encoding": 72000,
    "shared-cycle-graphs": 144000,
    "reversal-exchange": 72000,
    "two-vertex-components": 72000,
    "event-factorization": 30725,
    "relabel-dichotomy": 185520,
    "matching-sandwich-bounds": 480,
    "membership-upper-bounds": 9270,
    "two-cycle-upper-bounds": 255,
    "prefix-fixing-decay": 66,
}


def parse_report(text: str) -> tuple[list[dict], dict[str, str]]:
    """Rows of a CSV report and its ``# trend label = verdict`` lines."""
    trends = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# trend "):
            label, _, verdict = line[len("# trend ") :].partition(" = ")
            trends[label] = verdict
        elif not line.startswith("#"):
            body.append(line)
    return list(csv.DictReader(body)), trends


def _poisson(lam: float, j: int) -> float:
    return math.exp(-lam) * lam**j / math.factorial(j)


def tv_bound(k: int, samples: int, truncation: int = 8) -> float:
    """Largest TV a correct scan should report for order k at this sample count.

    The sum of three terms:
    - 0.5 * sum(sqrt(p / samples)) over the cells of the truncated Poisson
      reference, which bounds the mean sampling error of the empirical law;
    - the McDiarmid deviation above that mean at probability 1e-6, since
      one sample moves the TV by at most 1 / samples;
    - 0.01 of allowance for the finite-n distance between the product law
      and the Poisson limit at the smallest grid size (250).
    """
    root_mass = 1.0
    for d in range(1, k + 1):
        root_mass *= sum(math.sqrt(_poisson(1 / d, j)) for j in range(truncation + 1))
    mean = 0.5 * root_mass / math.sqrt(samples)
    tail = math.sqrt(math.log(1e6) / (2 * samples))
    return mean + tail + 0.01


def check_scan(text: str, samples: int, n_grid, functionals, tv_orders) -> tuple[list[str], int]:
    """Moment bands and TV bounds at every grid point, and every trend line.

    Also returns how many moments lie within criterion 07's 3-stderr band,
    which is reported but not failed on.
    """
    rows, trends = parse_report(text)
    problems = []
    within_3 = 0
    by_key = {(int(r["n"]), r["functional"]): r for r in rows}
    for n in n_grid:
        for v in functionals:
            row = by_key.get((n, f"product:{v}"))
            if row is None:
                problems.append(f"n={n} product:{v}: missing")
                continue
            err = abs(float(row["value"]) - 1 / v)
            stderr = float(row["stderr"])
            within_3 += err <= CRITERION_07_Z * stderr
            if not err <= MOMENT_Z * stderr:
                problems.append(
                    f"n={n} product:{v}: |{row['value']} - 1/{v}| > {MOMENT_Z} * {stderr}"
                )
        for k in tv_orders:
            row = by_key.get((n, f"tv:{k}"))
            if row is None:
                problems.append(f"n={n} tv:{k}: missing")
                continue
            bound = tv_bound(k, samples)
            if not float(row["value"]) <= bound:
                problems.append(f"n={n} tv:{k}: {row['value']} > {bound:.4f}")
    for label in [f"product:{v}" for v in functionals] + [f"tv:{k}" for k in tv_orders]:
        if trends.get(label) not in ("non-increasing", "non-monotone"):
            problems.append(f"trend {label}: missing")
    if len(rows) != len(n_grid) * (len(functionals) + len(tv_orders)):
        problems.append(f"{len(rows)} rows")
    return problems, within_3


def check_counterexample(text: str) -> list[str]:
    """Criterion 09's band, and the single-factor diagnostics exactly."""
    rows, _ = parse_report(text)
    values = {r["functional"]: r["value"] for r in rows}
    problems = []
    p1 = values.get("product:1")
    if p1 is None or not 1.8 <= float(p1) <= 2.2:
        problems.append(f"product:1 = {p1}, not in [1.8, 2.2]")
    if values.get("factor1:fixed-moment:1") != "1":
        problems.append(f"factor1:fixed-moment:1 = {values.get('factor1:fixed-moment:1')}")
    if values.get("factor1:two-cycle-rate") != "0":
        problems.append(f"factor1:two-cycle-rate = {values.get('factor1:two-cycle-rate')}")
    return problems


def ewens_pair_fixed_points(n: int, theta1: Fraction, theta2: Fraction) -> Fraction:
    """E t_1 of the product of two Ewens factors, in closed form.

    E t_1 = n [a b + (1 - a)(1 - b) / (n - 1)] with a = theta1 / (theta1 + n - 1)
    and b = theta2 / (theta2 + n - 1): a and b are the chances that a given
    point is fixed by each factor.
    """
    a = theta1 / (theta1 + n - 1)
    b = theta2 / (theta2 + n - 1)
    return n * (a * b + (1 - a) * (1 - b) / (n - 1))


def check_exact(text: str, n: int, theta1: Fraction, theta2: Fraction) -> list[str]:
    """The three rationals for v = (1,) against the closed form."""
    rows, _ = parse_report(text)
    moment = ewens_pair_fixed_points(n, theta1, theta2)
    want = {
        "moment": moment,
        "joint-prob": moment / n,
        "scaled-joint-prob": moment,
    }
    got = {r["quantity"]: r["rational"] for r in rows}
    return [
        f"{q}: {got.get(q)} != {value}"
        for q, value in want.items()
        if got.get(q) != f"{value.numerator}/{value.denominator}"
    ]


def check_lemmas(text: str) -> list[str]:
    """Every suite ok, with the case count of the default sizes."""
    rows, _ = parse_report(text)
    problems = []
    got = {r["suite"]: r for r in rows}
    if set(got) != set(LEMMA_CASES):
        problems.append(f"suites {sorted(got)}")
    for suite, cases in LEMMA_CASES.items():
        row = got.get(suite)
        if row is None:
            continue
        if row["ok"] != "true" or row["violations"] != "0":
            problems.append(f"{suite}: {row['violations']} violations")
        if int(row["cases"]) != cases:
            problems.append(f"{suite}: {row['cases']} cases, want {cases}")
    return problems


def lemma_cases(text: str) -> dict[str, int]:
    rows, _ = parse_report(text)
    return {r["suite"]: int(r["cases"]) for r in rows}
