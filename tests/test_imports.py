"""Every name a source or test module imports is read in that module: an
import left behind by a refactor fails here, not in a later reader's head.
And the package imports nothing that an install of it would not bring."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import onigraph

PACKAGE = Path(onigraph.__file__).parent

# the package's __init__ imports names to export them
SOURCES = sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            hint = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= read_names(ast.parse(hint.value))
    return names


def test_every_source_module_is_checked():
    assert {p.name for p in SOURCES} >= {"autodiff.py", "structure.py", "training.py", "cli.py"}
    assert {p.name for p in SOURCES} >= {"test_cli.py", "test_exports.py", "test_imports.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    unread = sorted(set(imported_names(tree)) - read_names(tree))
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_an_unread_import_is_caught():
    tree = ast.parse("import json\nfrom .autodiff import Tensor, matmul\nmatmul(Tensor(1), 2)\n")
    assert sorted(set(imported_names(tree)) - read_names(tree)) == ["json"]


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level modules the module's imports load, those inside
    functions included; a relative import loads the package itself."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("onigraph" if node.level else node.module.split(".")[0])
    return modules


def undeclared(tree: ast.Module, dependencies: set[str]) -> list[str]:
    """The modules the module imports that are neither the package, nor in
    the standard library, nor in ``dependencies``."""
    return sorted(imported_modules(tree) - {"onigraph", *sys.stdlib_module_names, *dependencies})


def declared_dependencies() -> set[str]:
    """The import names of the distributions pyproject.toml's dependencies
    list, less their version specifiers."""
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    names = (re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_declared_dependencies(path):
    extra = undeclared(ast.parse(path.read_text()), declared_dependencies())
    assert not extra, f"{path.name} imports modules pyproject.toml does not declare: {extra}"


def test_an_undeclared_import_is_caught():
    tree = ast.parse(
        "import os.path\nfrom . import data\nimport numpy as np\n"
        "def f():\n    import pandas\n    from scipy.sparse import csr_array\n"
    )
    assert undeclared(tree, {"numpy", "scipy"}) == ["pandas"]
    assert undeclared(tree, {"numpy"}) == ["pandas", "scipy"]
