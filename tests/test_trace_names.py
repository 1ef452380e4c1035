"""Every function the benchmark tracer wraps must exist under its name.

``perfbench/tracing.py`` finds the functions it wraps by module and
attribute name, so renaming or deleting one breaks traced benchmark
runs. It looks each module up in ``sys.modules`` right after ``import
permprod.cli``, so each must be there by then, executed or not. This
reads its tables and changes nothing under ``perfbench/``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permprod

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in (*tracing.SPANS, *tracing.COUNTERS)]


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# As perfbench/job.py does: numpy, then permprod.cli, then the tracer.
_INSTALL = """
import importlib.util, json, sys
import numpy
import permprod.cli
registered = set(sys.modules)
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = {module for module, _, _ in (*tracing.SPANS, *tracing.COUNTERS)}
tracing.install(tracing.Tracer())
print(json.dumps(sorted(names - registered)))
"""


def test_the_tracer_installs_right_after_importing_the_cli():
    source = str(Path(permprod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(_TRACING)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
