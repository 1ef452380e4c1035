"""Every exported name must resolve, and every one must have a use.

Deleting a function without its ``__all__`` entry or its re-export in
``permprod/__init__.py`` leaves a stale name behind; ``from permprod
import *`` would then fail. This checks the package and each submodule.

A public function that only tests call is code ``src/`` carries for no
job. So every name in a layer's ``__all__`` must be read somewhere in
``src/permprod`` outside ``__init__.py``, or be wrapped by the benchmark
tracer (``perfbench/tracing.py``, read as ``test_trace_names.py`` reads
it), or be on ``_UNREAD`` with the reason it stays. A private helper,
class or constant that no module of ``src/permprod`` reads is such code
too, whatever tests still call it; a test of it moves to ``brute`` or to
the code that superseded it.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import permprod

_SRC = Path(permprod.__file__).resolve().parent
_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Exported names that nothing in src/ reads yet, with the reason each stays.
_UNREAD = {
    "enumerate_B": "counts the graph couples behind exact two-factor moments at Monte "
    "Carlo sizes (ROADMAP item 2), which will read it",
}

_MODULES = ["permprod"] + [
    f"permprod.{info.name}" for info in pkgutil.iter_modules(permprod.__path__)
]


@pytest.mark.parametrize("module", _MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert names, f"{module} declares no __all__"
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
    assert len(set(names)) == len(names)


def _read_names(init: bool = False) -> set[str]:
    names = set()
    for path in _SRC.glob("*.py"):
        if path.name == "__init__.py" and not init:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr.split(".")[0] for _, attr, _ in (*tracing.SPANS, *tracing.COUNTERS)}


def test_every_exported_name_has_a_use():
    used = _read_names() | _traced_names()
    assert not set(_UNREAD) & used, "drop a name from _UNREAD once it is read"
    used |= set(_UNREAD)
    unused = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"permprod.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in module.__all__ if name not in used]
    assert unused == []


def _private_definitions() -> list[tuple[str, str]]:
    # (module, name) of each private function, class and constant defined
    # at the top level of a src/permprod module; dunders are not private.
    out = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
            else:
                continue
            out += [
                (path.stem, name)
                for name in targets
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
    return out


def test_every_private_name_is_read_in_src():
    definitions = _private_definitions()
    assert ("sweeps", "_walk_pairs") in definitions and ("sweeps", "_PAIR_BLOCK") in definitions
    read = _read_names(init=True)
    assert [f"{module}.{name}" for module, name in definitions if name not in read] == []
