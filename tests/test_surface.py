"""The package's public surface: every public function or method defined in
src/it2mpc is reached by the program itself, exported in it2mpc.__all__, or
bound by the benchmark's layer tracer (perfbench/tracer.LAYERS). A public
name that only tests call is surface no verb, audit or benchmark uses; a
test that needs such a helper writes it as a reference of its own.

References are read from the code (names and attribute accesses), not from
docstrings. A method that overrides a base-class method (an argparse
parser's error, say) is reached through its base and is exempt. Every name
a module imports is read by its code."""

import ast
import importlib
import importlib.util
from pathlib import Path

import it2mpc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "it2mpc"


def _tracer_bindings() -> set:
    """"module.attribute path" of every function the layer tracer binds."""
    spec = importlib.util.spec_from_file_location(
        "_layer_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module.removeprefix('it2mpc.')}.{path}"
            for targets in tracer.LAYERS.values()
            for module, path in targets}


def _definitions(tree):
    """(qualified name, class name or None) of every function defined at
    module level or in the body of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", node.name


def _referenced(trees) -> set:
    """Every name and attribute the code of the trees reads or binds."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _overrides(stem, cls_name, name) -> bool:
    cls = getattr(importlib.import_module(f"it2mpc.{stem}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _unreached(sources: dict) -> list:
    """"module.qualified name" of each public function or method of the
    sources ({module stem: code}) that nothing reaches."""
    trees = {stem: ast.parse(code) for stem, code in sources.items()}
    used, traced = _referenced(trees.values()), _tracer_bindings()
    out = []
    for stem, tree in trees.items():
        for qualname, cls_name in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("_") or name in used \
                    or qualname in it2mpc.__all__ \
                    or f"{stem}.{qualname}" in traced:
                continue
            if cls_name is None or not _overrides(stem, cls_name, name):
                out.append(f"{stem}.{qualname}")
    return out


def _package_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_reached():
    assert _unreached(_package_sources()) == []


def test_a_test_only_name_is_caught():
    # the scan itself: a function only a docstring names is unreached
    sources = _package_sources()
    sources["planted"] = ('def only_tests():\n'
                          '    """Called as only_tests() by tests alone."""\n')
    assert _unreached(sources) == ["planted.only_tests"]


def _unread_imports(sources: dict) -> list:
    """"module.name" of each name a module of the sources ({module stem:
    code}) imports and never reads; the package's __init__ reads the names
    its __all__ exports."""
    out = []
    for stem, code in sources.items():
        tree = ast.parse(code)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        if stem == "__init__":
            read |= set(it2mpc.__all__)
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        bound = [alias.asname or alias.name.partition(".")[0]
                 for node in imports for alias in node.names]
        out += [f"{stem}.{name}" for name in bound if name not in read]
    return out


def test_every_import_is_read():
    assert _unread_imports(_package_sources()) == []


def test_an_unread_import_is_caught():
    # the scan itself: a name only a docstring mentions is unread
    planted = ('"""Uses Path."""\n'
               'from __future__ import annotations\n'
               'import json\n'
               'from pathlib import Path\n'
               'json.dumps(1)\n')
    assert _unread_imports({"planted": planted}) == ["planted.Path"]
