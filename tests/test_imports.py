"""No module imports a name it never uses.

Neither pyflakes nor ruff is at hand, so this scan stands in for their
unused-import check: every top-level import of the package, the tests
and the scripts, ``if TYPE_CHECKING:`` blocks included, must bind a
name that the module reads as a plain name (``np`` in ``np.zeros`` or
in an annotation) or lists in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/permprod", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(body: list[ast.stmt]):
    # (name, line) of every import in ``body`` and in its if blocks.
    for node in body:
        if isinstance(node, ast.If):
            yield from _imported(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    # The strings written out in ``__all__``.
    return {
        const.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each top-level import whose name the module never
    reads and does not export."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [(name, line) for name, line in _imported(tree.body) if name not in read]


def test_the_scan_sees_every_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from fractions import Fraction\n"
        "if TYPE_CHECKING:\n"
        "    from collections import Counter\n"
        "    from decimal import Decimal\n"
        "__all__ = ['Fraction']\n"
        "def f(x: Sequence) -> Decimal:\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == [("os", 2), ("Counter", 7)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
