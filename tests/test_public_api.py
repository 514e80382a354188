"""The package's export lists, and no unused import in its modules."""
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
