"""Tests of the benchmark itself: checks, self time, repeatable counts, failure exit.

    python3 -m pytest perfbench

The traced jobs here use small configs so the file runs in well under a
minute; they go through the same job runner and tracer as the workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_summarize_subtracts_direct_children():
    doc = {
        "spans": [
            ["a", 0, 100, -1],
            ["b", 10, 40, 0],
            ["c", 15, 25, 1],
            ["b", 50, 60, 0],
        ],
        "counts": {},
        "computed": {},
    }
    out = tracing.summarize(doc)
    assert out["a"] == {"calls": 1, "s": 100e-9, "self_s": 60e-9}
    assert out["b"]["calls"] == 2
    assert out["b"]["s"] == pytest.approx(40e-9)
    assert out["b"]["self_s"] == pytest.approx(30e-9)
    assert out["c"]["self_s"] == pytest.approx(10e-9)




def test_scale_uses_the_blocks_around_a_spawn():
    # The block took 0.08 s before and 0.12 s after: 2 s of wall time are
    # 1 s where it takes 0.05 s.
    assert run.REFERENCE_S == 0.05
    assert 2.0 * run.scale(0.08, 0.12) == pytest.approx(1.0)


def _exact_report(rationals) -> str:
    lines = ["# config: command = exact", "n,quantity,v,rational,value"]
    for quantity, value in zip(("moment", "joint-prob", "scaled-joint-prob"), rationals):
        lines.append(f"8,{quantity},1,{value},0.5")
    return "\n".join(lines) + "\n"


def test_exact_check_uses_the_closed_form():
    assert checks.ewens_pair_fixed_points(8, Fraction(2), Fraction(1, 2)) == Fraction(128, 135)
    args = (8, Fraction(2), Fraction(1, 2))
    assert checks.check_exact(_exact_report(["128/135", "16/135", "128/135"]), *args) == []
    assert checks.check_exact(_exact_report(["128/135", "17/135", "128/135"]), *args)


def _lemma_report(cases: dict) -> str:
    lines = ["suite,n,cases,violations,ok,detail,examples"]
    lines += [f"{suite},5,{count},0,true,x," for suite, count in cases.items()]
    return "\n".join(lines) + "\n"


def test_lemma_check_pins_every_case_count():
    assert checks.check_lemmas(_lemma_report(checks.LEMMA_CASES)) == []
    changed = dict(checks.LEMMA_CASES, **{"reversal-exchange": 71999})
    assert checks.check_lemmas(_lemma_report(changed))
    missing = dict(checks.LEMMA_CASES)
    del missing["prefix-fixing-decay"]
    assert checks.check_lemmas(_lemma_report(missing))


def test_counterexample_check_needs_exact_diagnostics():
    good = (
        "n,functional,value,stderr,samples,seed\n"
        "4096,product:1,2.01,0.03,3000,1\n"
        "4096,factor1:fixed-moment:1,1,0,3000,1\n"
        "4096,factor1:two-cycle-rate,0,0,3000,1\n"
    )
    assert checks.check_counterexample(good) == []
    assert checks.check_counterexample(good.replace("2.01", "2.3"))
    assert checks.check_counterexample(good.replace("moment:1,1,", "moment:1,1.0001,"))


SMALL_SCAN = run.Workload(
    cli=(
        "convergence", "--samplers", "ewens:2, ewens:1/2", "--n-grid", "40, 80",
        "--functionals", "product:1", "--tv-orders", "2, 3", "--samples", "300",
    ),
    factors=2, samples=300, grid_points=2, throughput_of="products",
)


def _traced_counts(workload: run.Workload, tmp_path: Path) -> list[dict]:
    runner = run.Runner(workload, 7, tmp_path)
    out = []
    for _ in range(2):
        job = runner.spawn(trace=True)
        assert job["exit"] == 0
        values = run.layer_values(workload, job)
        out.append({m: values[m] for m, _, kind, _ in run.PER_LAYER if kind == "count"})
    return out


@pytest.mark.parametrize(
    "workload, nonzero",
    [
        (SMALL_SCAN, ("samplers.rows_drawn", "stats.chunks", "samplers.product_rows.bytes")),
        (
            run.Workload(
                cli=("exact", "--samplers", "ewens:2, ewens:1/2", "--n", "6", "--v-vec", "1"),
                factors=0, samples=0, grid_points=0, throughput_of="report rows",
            ),
            ("oracle.product_type_distribution.calls",),
        ),
        (
            run.Workload(
                cli=("verify-lemmas", "--pair-n", "3", "--single-n", "4"),
                factors=0, samples=0, grid_points=0, throughput_of="cases",
            ),
            ("cyclegraphs.traversal.calls", "perms.all_permutations.calls"),
        ),
    ],
)
def test_traced_counts_repeat_exactly(workload, nonzero, tmp_path):
    first, second = _traced_counts(workload, tmp_path)
    assert first == second
    for metric in nonzero:
        assert first[metric] > 0, metric


def test_draw_efficiency_of_a_scan_is_one_third(tmp_path):
    job = run.Runner(SMALL_SCAN, 1, tmp_path).spawn(trace=True)
    assert run.layer_values(SMALL_SCAN, job)["stats.draw_efficiency"] == pytest.approx(1 / 3)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m for m, *_ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, *_ in run.PER_LAYER]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-n7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
