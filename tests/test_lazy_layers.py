"""Each command executes only the layers it calls, before it runs.

``permprod/__init__`` registers its layers lazily: each is in
``sys.modules`` from the start, and executes on first attribute use.
These tests start a fresh interpreter per job, as the ``permprod``
command and the benchmark's jobs do, because in the test process every
layer has long executed. The last test runs in process: the row-level
layers that only ``sample`` and the tests still call stay off the path
of every other command.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_digests import _CONFIGS

import permprod
from permprod import cli, cyclegraphs, samplers

_SOURCE = Path(permprod.__file__).resolve().parents[1]

# Imports numpy first, as the benchmark's job does, then runs the CLI with
# ``cli.run`` wrapped and prints which permprod modules had executed when
# ``run`` was entered and when it returned. A registered layer stays an
# instance of a ``types.ModuleType`` subclass until it executes.
_WATCH_RUN = """
import json, sys, types
import numpy
import permprod.cli as cli

def executed():
    return sorted(
        name for name, module in sys.modules.items()
        if name.startswith("permprod.") and type(module) is types.ModuleType
    )

seen = {}
run = cli.run

def watched(config):
    seen["at_run"] = executed()
    code = run(config)
    seen["after_run"] = executed()
    return code

cli.run = watched
seen["exit"] = cli.main(sys.argv[1:])
print(json.dumps(seen))
"""


def _fresh(program: str, *args: str) -> str:
    # The last line ``program`` prints, run in a fresh interpreter that
    # imports this package's source.
    path = os.pathsep.join(filter(None, (str(_SOURCE), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", program, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_MONTE_CARLO = ["permprod.cli", "permprod.oracle", "permprod.samplers", "permprod.stats"]

# The four jobs of perfbench/run.py's WORKLOADS, each with seed 1.
_JOBS = {
    "exact-n7": (
        ["exact", "--samplers", "ewens:2, ewens:1/2", "--n", "7", "--v-vec", "1"],
        ["permprod.cli", "permprod.oracle", "permprod.samplers"],
    ),
    "scan-ewens": (
        ["convergence", "--samplers", "ewens:2, ewens:1/2", "--n-grid", "250, 1000",
         "--functionals", "product:1, product:2, product:3", "--tv-orders", "2, 3",
         "--samples", "2000"],
        _MONTE_CARLO,
    ),
    "counter-fixed": (
        ["counterexample", "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt", "--n", "4096",
         "--samples", "3000"],
        _MONTE_CARLO,
    ),
    "lemmas-n5": (
        ["verify-lemmas"],
        ["permprod.cli", "permprod.cyclegraphs", "permprod.oracle", "permprod.samplers",
         "permprod.sweeps"],
    ),
}


@pytest.mark.parametrize("job", sorted(_JOBS))
def test_a_command_executes_only_its_layers_and_all_before_it_runs(job, tmp_path):
    argv, layers = _JOBS[job]
    out = _fresh(_WATCH_RUN, *argv, "--seed", "1", "--output", str(tmp_path / "report.csv"))
    seen = json.loads(out)
    assert seen["exit"] == 0
    assert seen["at_run"] == layers
    assert seen["after_run"] == seen["at_run"]


def test_importing_the_package_executes_no_layer():
    program = (
        "import json, sys, types, permprod\n"
        "print(json.dumps([name for name, module in sys.modules.items()\n"
        "    if name.startswith('permprod.') and type(module) is types.ModuleType]))"
    )
    assert json.loads(_fresh(program)) == []


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        permprod.nonexistent
    assert permprod.Functional is permprod.stats.Functional


@pytest.mark.parametrize(
    "config",
    ["moments", "convergence", "counterexample-fixed-pair", "counterexample-ewens", "verify-lemmas"],
)
def test_no_class_function_job_reaches_the_row_layers(config, tmp_path, monkeypatch):
    # Every command but sample composes and counts in product_cycle_counts
    # and walks pairs in numpy, so with the row-level product, the row
    # counts and the traversal all raising, each report keeps its pinned
    # bytes.
    def unreachable(*args, **kwargs):
        raise AssertionError("a class-function job reached a row-level layer")

    for module, name in [
        (samplers, "small_cycle_counts"), (samplers, "product_rows"), (cli, "product_rows"),
        (cyclegraphs, "traversal"),
    ]:
        monkeypatch.setattr(module, name, unreachable)
    argv, digest = _CONFIGS[config]
    path = tmp_path / "report.csv"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
