"""No `iakrec` module imports a name it never uses. The one allowance is a
name that the benchmark's traced run patches on that module
(`perfbench.layers.trace_targets`): it is bound there only to be wrapped.
No code in `src/iakrec` is kept alive by the tests alone: every public
function and method is referenced by the package or the benchmark. Named
arrays go to disk in one format, the checkpoint container: no module calls
numpy's own `savez` or `load`."""

import ast
import sys
from collections import Counter
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


def _public_functions(tree: ast.Module) -> dict[str, int]:
    """Each public module-level function, with its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _autodiff_uses(tree: ast.Module, own: bool) -> set[str]:
    """The autodiff names a module reads: an attribute of the module bound by
    `from . import autodiff as ad`, a name imported from `.autodiff`, and
    every name read when the module is autodiff itself (`own`)."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "iakrec.autodiff"):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "iakrec"):
            aliases.update(alias.asname or alias.name for alias in node.names if alias.name == "autodiff")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            used.add(node.attr)
        elif own and isinstance(node, ast.Name):
            used.add(node.id)
    return used


def test_every_autodiff_function_has_a_caller_in_src():
    """An op that only the tests call lives in their reference modules
    (`tests/linear_reference.py`, `tests/loss_reference.py`), not in the
    engine."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*(_autodiff_uses(tree, own=stem == "autodiff") for stem, tree in trees.items()))
    uncalled = [f"autodiff.py:{line} {name}" for name, line in _public_functions(trees["autodiff"]).items()
                if name not in used]
    assert uncalled == []


def test_the_check_sees_an_uncalled_autodiff_function():
    engine = ast.parse("def used(a):\n    return helper(a)\n\ndef helper(a):\n    return a\n\n"
                       "def spare(a):\n    return a\n\ndef _private(a):\n    return a\n\nclass Tensor:\n    pass\n")
    caller = ast.parse("from . import autodiff as ad\nfrom .autodiff import Tensor\n\n"
                       "def f(x: Tensor):\n    return ad.used(x)\n\ndef g(ad2):\n    return ad2.spare(1)\n")
    assert _public_functions(engine) == {"used": 1, "helper": 4, "spare": 7}
    used = _autodiff_uses(engine, own=True) | _autodiff_uses(caller, own=False)
    assert set(_public_functions(engine)) - used == {"spare"}


def _strings_read(tree: ast.Module) -> set[str]:
    """Each string literal of a module outside its `DEFAULTS` table, the
    names by which it can read a config key."""
    table = {id(n) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and target.id == "DEFAULTS" for n in ast.walk(node)}
    return {n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in table}


def test_every_config_key_has_a_reader():
    """A key of `config.DEFAULTS` that no module names outside the table is
    a knob that changes nothing."""
    from iakrec.config import DEFAULTS

    read = set().union(*(_strings_read(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES))
    assert sorted(set(DEFAULTS) - read) == []


def test_the_check_sees_a_dead_config_key():
    toy = ast.parse('DEFAULTS: dict[str, tuple[str, str]] = {\n    "a.read": ("1", "a.dead"),\n'
                    '    "a.dead": ("2", "never read"),\n}\n\ndef f(cfg):\n    return cfg.get_int("a.read")\n')
    assert {"a.read", "a.dead"} - _strings_read(toy) == {"a.dead"}


def _public_defs(tree: ast.Module) -> list[ast.FunctionDef]:
    """Each public function of a module, at any depth: module functions,
    methods and the closures defined inside them."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")]


def _spelled(node: ast.AST) -> str | None:
    """The name a node refers to: read or bound as a name, read as an
    attribute, imported, or spelled as a string constant (as `getattr` or a
    patch target spells it)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under `node` (see `_spelled`)."""
    return Counter(name for n in ast.walk(node) if (name := _spelled(n)) is not None)


def _unreferenced(defining: dict[str, ast.Module], referring: list[ast.Module]) -> list[str]:
    """`module:line name` of each public def in `defining` that nothing in
    `referring` references outside the def itself."""
    total = sum((_references(tree) for tree in referring), Counter())
    return [f"{stem}:{node.lineno} {node.name}" for stem, tree in defining.items() for node in _public_defs(tree)
            if total[node.name] - _references(node)[node.name] <= 0]


def test_every_public_def_has_a_reference_outside_the_tests():
    """A public function or method that only the tests call belongs in their
    reference modules, not in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unreferenced(trees, [*trees.values(), *bench]) == []


def test_the_check_sees_a_def_only_its_own_body_or_a_test_references():
    toy = ast.parse("import os.path\nfrom .x import helper as h\n\n"
                    "def used(a):\n    return h(a)\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
                    "def named():\n    def inner():\n        pass\n\nclass Box:\n    def shown(self):\n        return self.hidden\n\n"
                    "    def hidden(self):\n        return 1\n\n    def spare(self):\n        return 2\n\n"
                    "    def _private(self):\n        return 3\n\nPATCHED = 'named'\nused(os.path)\n")
    test = ast.parse("from toy import Box\n\ndef test_spare():\n    assert Box().spare() == 2\n")
    assert sorted(node.name for node in _public_defs(toy)) == ["hidden", "inner", "named", "recursive", "shown",
                                                               "spare", "used"]
    assert sorted(_unreferenced({"toy": toy}, [toy])) == ["toy:11 inner", "toy:15 shown", "toy:21 spare",
                                                          "toy:7 recursive"]
    assert sorted(_unreferenced({"toy": toy}, [toy, test])) == ["toy:11 inner", "toy:15 shown", "toy:7 recursive"]


def _numpy_file_io(tree: ast.Module) -> list[str]:
    """`line name` of each `np.savez*` or `np.load` a module names (through
    `np` or `numpy`), or imports from numpy."""
    def banned(name: str) -> bool:
        return name == "load" or name.startswith("savez")

    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and banned(node.attr)):
            out.append(f"{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            out.extend(f"{node.lineno} numpy.{alias.name}" for alias in node.names if banned(alias.name))
    return out


def test_no_module_uses_numpys_own_file_format():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    found = [f"{name}:{hit}" for name, tree in trees.items() for hit in _numpy_file_io(tree)]
    assert found == []


def test_the_check_sees_numpy_file_io():
    toy = ast.parse("import numpy as np\nimport numpy\nfrom numpy import load as ld, loadtxt\n\n"
                    "def f(a, path):\n    np.savez(path, a=a)\n    numpy.savez_compressed(path, a=a)\n"
                    "    np.save(path, a)\n    return np.load(path), np.loads, ld\n")
    assert _numpy_file_io(toy) == ["3 numpy.load", "6 np.savez", "7 numpy.savez_compressed", "9 np.load"]


def _record_objects_built(tree: ast.Module, builder: str | None) -> list[str]:
    """`line what` of each `InteractionRecord(...)` call outside the function
    named `builder`, and of each def or reference (see `_spelled`) named
    `from_records`."""
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == builder
              for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else _spelled(node)
        if isinstance(node, ast.Call) and id(node) not in inside and _spelled(node.func) == "InteractionRecord":
            out.append(f"{node.lineno} InteractionRecord(...)")
        elif name == "from_records":
            out.append(f"{node.lineno} from_records")
    return sorted(out, key=lambda hit: int(hit.split()[0]))


def test_no_src_code_builds_record_objects():
    """A JSONL line is parsed straight into a row of ints, so
    `InteractionRecord` is only the row view of a `Dataset`: `datagen._record`
    is the one place that builds one. Datasets are made of record lists only
    in the tests (`records_reference.from_records`)."""
    found = [f"{path.name}:{hit}" for path in MODULES
             for hit in _record_objects_built(ast.parse(path.read_text(encoding="utf-8")),
                                              "_record" if path.stem == "datagen" else None)]
    assert found == []


def test_the_check_sees_record_objects_built():
    toy = ast.parse("from . import datagen\nfrom .x import from_records\n\n"
                    "def _record(*a):\n    return datagen.InteractionRecord(*a)\n\n"
                    "def parse(rows):\n    recs = [InteractionRecord(*r) for r in rows]\n"
                    "    return datagen.Dataset.from_records(recs)\n\n"
                    "class D:\n    def from_records(self, r):\n        return getattr(self, 'from_records')(r)\n")
    assert _record_objects_built(toy, "_record") == ["2 from_records", "8 InteractionRecord(...)", "9 from_records",
                                                     "12 from_records", "13 from_records"]
    assert _record_objects_built(toy, None)[:2] == ["2 from_records", "5 InteractionRecord(...)"]
