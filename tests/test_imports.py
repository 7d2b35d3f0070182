"""No `iakrec` module imports a name it never uses. The one allowance is a
name that the benchmark's traced run patches on that module
(`perfbench.layers.trace_targets`): it is bound there only to be wrapped.
No code in `src/iakrec` is kept alive by the tests alone: every public
function, method and class is referenced by the package or the benchmark. Named
arrays go to disk in one format, the checkpoint container: no module calls
numpy's own `savez` or `load`. Tables go to disk through one writer,
`evals.write_csv`: no other module imports `csv`. No function takes weight
noise: the adapter forward reads the weights it is given, a lone adapter its
posterior means. The bank's `sample` and the MI channel alone draw a weight
sample, and the bank's `encoder_kl` alone builds the encoder KL. The
backbone's forward is one body: only `forward_full` assembles a row and only
`forward_from` runs a kind's tower inputs. A setting is checked where its
section config is built: no module defines or calls a `validate`, and every
`*Config` dataclass and `FeatureSpace` is frozen, so a built section stays
checked. The bare kernels of `autodiff` run only in their graph ops and in
the layers of a frozen forward, so there is no second, hand-written
forward. Scoring reads only what is frozen whole: besides the engine, only
`models` and `iak.adapted_prediction` test whether a value is a bare array
or a `Tensor`, and the adapter forward runs only on the kernel (a lone
adapter) or the segment op (a bank, the MI channel)."""

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


def _public_defs(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """Each public function and class of a module, at any depth: module
    functions, methods, the closures defined inside them and classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, kinds) and not node.name.startswith("_")]


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
    """A public function or method that only the tests call, or a class that
    only the tests construct or name, belongs in their reference modules,
    not in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unreferenced(trees, [*trees.values(), *bench]) == []


def test_the_check_sees_a_def_only_its_own_body_or_a_test_references():
    toy = ast.parse("import os.path\nfrom .x import helper as h\n\n"
                    "def used(a):\n    return h(a)\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
                    "def named():\n    def inner():\n        pass\n\nclass Box:\n    def shown(self):\n        return self.hidden\n\n"
                    "    def hidden(self):\n        return 1\n\n    def spare(self):\n        return 2\n\n"
                    "    def _private(self):\n        return 3\n\nPATCHED = 'named'\nused(os.path)\n\n"
                    "class Base:\n    pass\n\nclass Leaf(Base):\n    kind = 'Leaf'\n\nclass _Hidden:\n    pass\n")
    test = ast.parse("from toy import Box\n\ndef test_spare():\n    assert Box().spare() == 2\n")
    assert sorted(node.name for node in _public_defs(toy)) == ["Base", "Box", "Leaf", "hidden", "inner", "named",
                                                               "recursive", "shown", "spare", "used"]
    # Box only a test names, Leaf only its own body: neither is referenced
    assert sorted(_unreferenced({"toy": toy}, [toy])) == ["toy:11 inner", "toy:14 Box", "toy:15 shown",
                                                          "toy:21 spare", "toy:33 Leaf", "toy:7 recursive"]
    assert sorted(_unreferenced({"toy": toy}, [toy, test])) == ["toy:11 inner", "toy:15 shown", "toy:33 Leaf",
                                                                "toy:7 recursive"]


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


def _module_imports(tree: ast.Module, module: str) -> list[int]:
    """The line of each import of `module` itself, whatever name binds it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import) and any(alias.name == module for alias in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module))


def test_only_evals_imports_csv():
    found = [f"{path.name}:{line}" for path in MODULES if path.stem != "evals"
             for line in _module_imports(ast.parse(path.read_text(encoding="utf-8")), "csv")]
    assert found == []


def test_the_check_sees_a_csv_import():
    toy = ast.parse("import csv\nimport os, csv as c\nfrom csv import writer\nimport csvkit\n"
                    "from . import csv as local\nfrom .csv import writer as w\n")
    assert _module_imports(toy, "csv") == [1, 2, 3]


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


# the functions of `src/iakrec` that may take a parameter named `noise`
NOISE_TAKERS: set[str] = set()


def _scoped(tree: ast.Module, module: str) -> list[tuple[str, ast.AST]]:
    """Each node of the tree with the qualified name of the innermost
    function, method, closure, lambda or class that is or holds it:
    `module.A.m` for method m of class A, `module` at module level."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                inner = f"{scope}.{getattr(child, 'name', '<lambda>')}"
            else:
                inner = scope
            out.append((inner, child))
            visit(child, inner)

    visit(tree, module)
    return out


def _noise_takers(tree: ast.Module, module: str) -> list[str]:
    """`module.qualname` of each function, method, closure or lambda with a
    parameter named `noise`, sorted."""
    out = []
    for name, node in _scoped(tree, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            if any(p.arg == "noise" for p in params):
                out.append(name)
    return sorted(out)


def test_only_the_bank_path_takes_a_weight_sample():
    """No function takes weight noise: the adapter forward reads the encoder
    weights it is given. Fine-tuning draws its weight samples through the
    `AdapterBank` alone, eval and serving score a lone `IAKAdapter` with its
    posterior means, and the one-adapter sampled forms live in
    `tests/adapter_reference.py`."""
    found = [name for path in MODULES
             for name in _noise_takers(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [name for name in found if name not in NOISE_TAKERS] == []


def test_the_check_sees_a_noise_parameter():
    toy = ast.parse("def f(x, noise=None):\n    def inner(*, noise):\n        pass\n\n"
                    "class A:\n    def m(self, noise):\n        pass\n\n    def n(self, x):\n"
                    "        return lambda noise: noise\n\n    class B:\n        def k(self, **noise):\n"
                    "            pass\n\ndef g(rng):\n    noise = rng.normal()\n    return noise\n")
    assert _noise_takers(toy, "toy") == ["toy.A.B.k", "toy.A.m", "toy.A.n.<lambda>", "toy.f", "toy.f.inner"]


def _users_of(tree: ast.Module, module: str, name: str) -> list[str]:
    """`module.qualname` of each function, method, closure, lambda or class
    that reads `name` as a name or an attribute (a call, or a reference
    such as `partial(ad.name)`), sorted and each once; `module` for a read
    at module level."""
    return sorted({scope for scope, node in _scoped(tree, module)
                   if isinstance(node, (ast.Name, ast.Attribute)) and _spelled(node) == name})


def _src_users_of(name: str) -> list[str]:
    return [user for path in MODULES
            for user in _users_of(ast.parse(path.read_text(encoding="utf-8")), path.stem, name)]


def test_only_the_bank_and_the_mi_channel_draw_a_weight_sample():
    """The encoder weight sample is formed in two places: a bank step's
    (`AdapterBank.sample`) and the MI diagnostic's per-record channel."""
    assert _src_users_of("weight_sample") == ["evals.encoder_channel_outputs", "iak.AdapterBank.sample"]


def test_only_the_bank_builds_the_encoder_kl():
    """The KL term of the information-bottleneck loss is built in one place,
    from the softplus parts of the step's weight sample."""
    assert _src_users_of("gaussian_kl") == ["iak.AdapterBank.encoder_kl"]


def test_every_kind_runs_the_one_forward_from_its_assembled_row():
    """The backbone's forward exists once: only `forward_full` assembles a
    batch's row, and only `forward_from` runs a kind's tower inputs from it,
    so no kind has a second, hand-written forward body."""
    assert _src_users_of("assemble") == ["models.MultiTaskModel.forward_full"]
    assert _src_users_of("_tower_inputs") == ["models.MultiTaskModel.forward_from"]


def test_the_check_sees_every_user_of_a_name():
    toy = ast.parse("from functools import partial\nfrom . import autodiff as ad\n\n"
                    "def weight_sample(x):\n    return 'weight_sample'\n\n"
                    "class A:\n    def m(self, x):\n        return ad.weight_sample(x) + ad.weight_sample(x)\n\n"
                    "    def n(self):\n        def inner(x):\n            return weight_sample(x)\n"
                    "        return lambda x: inner(x)\n\n"
                    "    draw = partial(ad.weight_sample, eps=0)\n\n"
                    "SAMPLE = ad.weight_sample\n")
    assert _users_of(toy, "toy", "weight_sample") == ["toy", "toy.A", "toy.A.m", "toy.A.n.inner"]
    assert _users_of(toy, "toy", "gaussian_kl") == []


def _second_checks(tree: ast.Module) -> list[str]:
    """`line what` of each def of or call to a `validate`, and of each
    `*Config` or `FeatureSpace` dataclass that is not frozen."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate":
            out.append(f"{node.lineno} def validate")
        elif isinstance(node, ast.Call) and _spelled(node.func) == "validate":
            out.append(f"{node.lineno} validate()")
        elif isinstance(node, ast.ClassDef) and (node.name.endswith("Config") or node.name == "FeatureSpace"):
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                frozen = call is not None and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                                                  and kw.value.value is True for kw in call.keywords)
                if _spelled(deco.func if call else deco) == "dataclass" and not frozen:
                    out.append(f"{node.lineno} {node.name} not frozen")
    return sorted(out, key=lambda hit: int(hit.split()[0]))


def test_a_section_config_is_checked_where_it_is_built():
    """One settings check: a section config checks itself in `__post_init__`
    and is frozen, so no caller has a `validate` to remember."""
    found = [f"{path.name}:{hit}" for path in MODULES
             for hit in _second_checks(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_sees_a_second_settings_check():
    toy = ast.parse("from dataclasses import dataclass\nimport dataclasses\n\n"
                    "@dataclass\nclass AConfig:\n    def validate(self):\n        pass\n\n"
                    "@dataclasses.dataclass(frozen=False)\nclass FeatureSpace:\n    pass\n\n"
                    "@dataclass(frozen=True)\nclass BConfig:\n    pass\n\n"
                    "@dataclass\nclass Kind:\n    pass\n\n"
                    "class RunConfig:\n    pass\n\n"
                    "def f(cfg):\n    cfg.validate()\n    return validate(cfg)\n")
    assert _second_checks(toy) == ["5 AConfig not frozen", "6 def validate", "10 FeatureSpace not frozen",
                                   "25 validate()", "26 validate()"]


# who may call each bare kernel of `autodiff`: its graph op and the frozen
# entry points, the layers that pass a frozen forward's bare arrays on
KERNEL_USERS = {
    "gate_mix_kernel": ["autodiff.gate_mix", "models._MoECore.__call__"],
    "gather_rows_kernel": ["autodiff.gather_rows", "models.EmbeddingBundle.assemble"],
    "linear_kernel": ["autodiff.linear", "iak.IAKAdapter.correction", "models.Linear.__call__"],
    "sigmoid_kernel": ["autodiff.sigmoid", "models.MultiTaskModel.predict_from_logits"],
}


def _kernel_callers(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Each `*_kernel` function `autodiff` defines, with every function,
    method, closure or lambda of the modules that reads it (`_users_of`)."""
    kernels = sorted(name for name in _public_functions(trees["autodiff"]) if name.endswith("_kernel"))
    return {k: [user for stem, tree in trees.items() for user in _users_of(tree, stem, k)] for k in kernels}


def test_only_the_graph_ops_and_the_frozen_entry_points_run_a_kernel():
    """A frozen forward runs the ops' own kernels, in the layers that also
    build the graph: no module writes a second forward by hand out of them."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _kernel_callers(trees) == KERNEL_USERS


def test_the_check_sees_a_hand_written_forward():
    engine = ast.parse("def linear_kernel(x, w):\n    return x @ w\n\n"
                       "def linear(x, w):\n    return _make(linear_kernel(x.data, w.data))\n\n"
                       "def helper(x):\n    return x\n")
    models = ast.parse("from . import autodiff as ad\n\nclass Linear:\n    def __call__(self, x):\n"
                       "        return ad.linear_kernel(x, self.w.data)\n\n"
                       "def fast_forward(model, x):\n    for w in model.weights:\n"
                       "        x = ad.linear_kernel(x, w)\n    return x\n")
    assert _kernel_callers({"autodiff": engine, "models": models}) == {
        "linear_kernel": ["autodiff.linear", "models.Linear.__call__", "models.fast_forward"]}


def _array_type_tests(tree: ast.Module, module: str) -> list[str]:
    """`module.qualname` of each function, method, closure, lambda or class
    that tests whether a value is an `ndarray` or a `Tensor`: a comparison
    naming either (`type(v) is np.ndarray`), or an `isinstance` call whose
    types name either; sorted and each once."""
    def names_one(node: ast.AST) -> bool:
        return any(_spelled(n) in ("ndarray", "Tensor") for n in ast.walk(node))

    return sorted({scope for scope, node in _scoped(tree, module)
                   if (isinstance(node, ast.Compare) and names_one(node))
                   or (isinstance(node, ast.Call) and _spelled(node.func) == "isinstance" and len(node.args) == 2
                       and names_one(node.args[1]))})


def test_only_the_models_and_the_adapter_scorer_tell_an_array_from_a_tensor():
    """Scoring runs only what is frozen whole, so eval and serving read bare
    arrays and never ask: the layers of `models` pass a frozen forward's
    bare arrays on, `iak.adapted_prediction` refuses anything else, and
    `autodiff` wraps what it is given."""
    found = [scope for path in MODULES
             for scope in _array_type_tests(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [scope for scope in found if scope.split(".")[0] not in ("autodiff", "models")
            and scope != "iak.adapted_prediction"] == []


def test_the_check_sees_a_test_of_an_arrays_type():
    toy = ast.parse("import numpy as np\nfrom .autodiff import Tensor\n\n"
                    "def f(v: np.ndarray) -> np.ndarray:\n    return v if type(v) is np.ndarray else v.data\n\n"
                    "class A:\n    def m(self, v):\n        return isinstance(v, (int, Tensor))\n\n"
                    "    def n(self, v):\n        return isinstance(v, int) or v.shape == (2,)\n\n"
                    "    def k(self, v):\n        return lambda: type(v) != np.ndarray\n\n"
                    "ARRAY = np.ndarray\n")
    assert _array_type_tests(toy, "toy") == ["toy.A.k.<lambda>", "toy.A.m", "toy.f"]


# the dense-layer primitives the adapter forward runs on in `src/iakrec`: the
# kernel over a lone adapter's arrays, the segment op for a bank and the MI channel
ADAPTER_PRIMITIVES = ("ad.linear_kernel", "ad.segment_linear")
# each adapter forward, with the position of its `linear` parameter
ADAPTER_FORWARDS = {"adapter_graph": 3, "encoder_stage": 4}


def _primitives_passed(tree: ast.Module, module: str) -> list[str]:
    """`scope primitive` of each call to an adapter forward, the primitive
    being its `linear` argument (positional or keyword) as written, the
    function `partial` binds when it is a `partial(...)`; sorted."""
    out = []
    for scope, node in _scoped(tree, module):
        if isinstance(node, ast.Call) and (at := ADAPTER_FORWARDS.get(_spelled(node.func))) is not None:
            arg = node.args[at] if len(node.args) > at else {kw.arg: kw.value for kw in node.keywords}.get("linear")
            if isinstance(arg, ast.Call) and _spelled(arg.func) == "partial":
                arg = arg.args[0]
            out.append(f"{scope} {'<none>' if arg is None else ast.unparse(arg)}")
    return sorted(out)


def test_the_adapter_forward_runs_on_the_kernel_or_the_segment_op():
    """A lone adapter scores frozen whole, on `ad.linear_kernel`, and a bank
    and the MI channel run `ad.segment_linear`: no code in the package runs
    the adapter forward on `ad.linear`, whose one-adapter graph lives in
    `tests/adapter_reference.py`. `adapter_graph` passes its own `linear` on
    to `encoder_stage`."""
    found = [hit for path in MODULES
             for hit in _primitives_passed(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [hit for hit in found if hit.split()[1] not in ADAPTER_PRIMITIVES
            and hit != "iak.adapter_graph linear"] == []
    assert len(found) > len(ADAPTER_FORWARDS)


def test_the_check_sees_every_primitive_an_adapter_forward_is_passed():
    toy = ast.parse("from functools import partial\nfrom . import autodiff as ad\n\n"
                    "def adapter_graph(x, params, scale, linear):\n"
                    "    return encoder_stage(x, params[0], params[1], scale, linear)\n\n"
                    "def score(x, p):\n    return adapter_graph(x, p, 1.0, ad.linear)\n\n"
                    "def step(x, p, segs):\n"
                    "    return adapter_graph(x, p, 1.0, linear=partial(ad.segment_linear, offsets=segs))\n\n"
                    "def channel(x, w, b):\n    return encoder_stage(x, w, b, 1.0, ad.linear_kernel)\n\n"
                    "def broken(x, p):\n    return adapter_graph(x, p, 1.0)\n")
    assert _primitives_passed(toy, "toy") == ["toy.adapter_graph linear", "toy.broken <none>",
                                              "toy.channel ad.linear_kernel", "toy.score ad.linear",
                                              "toy.step ad.segment_linear"]
