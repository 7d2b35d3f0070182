"""No `iakrec` module imports a name it never uses. The one allowance is a
name that the benchmark's traced run patches on that module
(`perfbench.layers.trace_targets`): it is bound there only to be wrapped."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import trace_targets  # noqa: E402

MODULES = sorted((ROOT / "src" / "iakrec").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _traced(module: str) -> set[str]:
    return {attr for owner, attr, _, _ in trace_targets() if getattr(owner, "__name__", None) == module}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = _used(tree) | _traced(f"iakrec.{path.stem}")
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in allowed]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from typing import Any, List\n\ndef f(x: Any) -> np.ndarray:\n    return x\n")
    assert _imported(tree) == {"os": 2, "np": 3, "Any": 4, "List": 4}
    assert set(_imported(tree)) - _used(tree) == {"os", "List"}
