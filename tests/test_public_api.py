"""The package's export lists, and no unused import or orphaned private name in its
modules."""
import ast
from pathlib import Path

import pytest

import fockbell
from fockbell import exact, functional, model, optimizer, oracle, phase

SUBMODULES = (exact, functional, model, optimizer, oracle, phase)
SOURCES = sorted(Path(fockbell.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", (fockbell,) + SUBMODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_the_union_of_its_modules():
    assert set(fockbell.__all__) == set().union(*(m.__all__ for m in SUBMODULES))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither uses nor lists
    in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import lgamma, pi\n"
              "__all__ = ['pi']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 2)", "lgamma (line 4)"]


def _reference(node: ast.AST) -> str | None:
    """The name ``node`` reads, imports or takes as an attribute, if any."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants, as ``module.name``, whose
    name no module of ``sources`` (module name to source text) reads, imports or takes
    as an attribute outside the name's own definition.  Names are matched across
    modules, not resolved."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined += [(module, name) for name in sorted(names)
                        if name.startswith("_") and not name.startswith("__")]
            used |= {_reference(sub) for sub in ast.walk(node)} - names
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_no_unreferenced_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_check_sees_orphans():
    sources = {
        "a": ("_LIMIT = 3\n_SEEN: int = 0\n__version__ = '1'\n"
              "def _helper():\n    return _LIMIT\n"
              "def _orphan():\n    _orphan()\n"
              "class _Box:\n    pass\n"
              "def used():\n    return _helper()\n"),
        "b": "from a import _helper\nimport a\nx = a._Box\n",
    }
    assert unreferenced_privates(sources) == ["a._SEEN", "a._orphan"]
