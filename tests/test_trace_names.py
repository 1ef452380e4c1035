"""Every function the benchmark tracer wraps must exist under its name.

``perfbench/tracing.py`` finds the functions it wraps by module and
attribute name, so renaming or deleting one breaks traced benchmark
runs. This reads its tables and changes nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
