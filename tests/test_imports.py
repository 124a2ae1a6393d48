"""Every name a source or test module imports is read in that module: an
import left behind by a refactor fails here, not in a later reader's head.
Every name the package defines is read by the package or the benchmark,
not by tests alone. And the package imports nothing that an install of it
would not bring."""

import ast
import re
import sys
import tomllib
from collections import defaultdict
from functools import cache
from pathlib import Path

import numpy as np
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


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The functions, classes, methods and module-level constants the module
    defines, each with its definition; dunder methods, which Python calls
    by itself, are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            methods = (m for m in node.body if isinstance(m, ast.FunctionDef))
            found += [(m.name, m) for m in methods if not m.name.startswith("__")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return found


def unread_definitions(tree: ast.Module, readers: list[ast.Module]) -> list[str]:
    """The names ``tree`` defines that no module of ``readers`` reads, bare
    or as an attribute, outside the name's own definition."""
    reads = defaultdict(list)  # name -> (module, line) of each read
    for reader in readers:
        for node in ast.walk(reader):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads[name].append((reader, node.lineno))
    return sorted(
        name
        for name, node in definitions(tree)
        if all(r is tree and node.lineno <= line <= node.end_lineno for r, line in reads[name])
    )


@cache
def shipped_modules() -> dict[Path, ast.Module]:
    """The parsed modules of the package and of the benchmark, less tests
    and the package's re-exports."""
    benchmark = PACKAGE.parents[1] / "perfbench"
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in benchmark.glob("*.py") if not p.name.startswith("test_")]
    return {p: ast.parse(p.read_text()) for p in paths}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "__main__.py")),
    ids=lambda p: p.name,
)
def test_every_defined_name_is_read_outside_tests(path):
    modules = shipped_modules()
    unread = unread_definitions(modules[path], list(modules.values()))
    assert not unread, f"{path.name} defines names that only tests, if anything, read: {unread}"


def test_a_name_read_only_inside_its_own_definition_is_caught():
    tree = ast.parse(
        "LIMIT = 3\nSPARE = 4\n"
        "def walk(n):\n    return walk(n - 1) if n > LIMIT else n\n"
        "class Box:\n    def __init__(self):\n        self.n = Box.size()\n"
        "    def size():\n        return 1\n    def spare(self):\n        return self\n"
    )
    assert unread_definitions(tree, [tree]) == ["Box", "SPARE", "spare", "walk"]
    assert unread_definitions(tree, [tree, ast.parse("walk(Box())")]) == ["SPARE", "spare"]


# Reads are matched by bare name, whatever the type of what is read, so a
# package method named like an np.ndarray attribute counts as read wherever
# any array's attribute of that name is (``.copy()`` is read all over the
# package). Each such method is listed here, as (class, method), with a
# package function, "module.function", that reads that name on the class's
# instances; the check below holds the table to the methods that exist.
NDARRAY_NAMED = {
    ("Tensor", "shape"): "autodiff.matmul",
    ("Tensor", "item"): "training.train",
    ("Workspace", "take"): "autodiff._empty",
}


def ndarray_named_methods(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The (class, method) of each method the modules define, by module name,
    whose name is also an np.ndarray attribute; dunder methods left out."""
    attributes = set(dir(np.ndarray))
    return {
        (node.name, method.name)
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and method.name in attributes
        and not method.name.startswith("__")
    }


def unlisted_ndarray_named(modules: dict[str, ast.Module], listed: dict) -> list[str]:
    """The methods named like an np.ndarray attribute that ``listed`` does not
    pair with a function of ``modules`` reading that name, and the entries
    of ``listed`` that name no such method."""
    functions = {
        f"{module}.{node.name}": node
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }

    def reads(function: ast.AST | None, name: str) -> bool:
        return function is not None and any(
            isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
            for node in ast.walk(function)
        )

    found = ndarray_named_methods(modules)
    unread = [m for m in found if m not in listed or not reads(functions.get(listed[m]), m[1])]
    return sorted(f"{cls}.{name}" for cls, name in unread + [m for m in listed if m not in found])


def test_every_method_named_like_an_array_attribute_is_listed_with_its_caller():
    modules = {
        p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
    }
    unlisted = unlisted_ndarray_named(modules, NDARRAY_NAMED)
    assert not unlisted, f"list these with a package function that calls them: {unlisted}"


def test_a_method_named_like_an_array_attribute_is_caught():
    stats = ast.parse(
        "class Stats:\n    def copy(self):\n        return Stats()\n"
        "    def fill(self, v):\n        return self\n"
        "def spread(s):\n    return s.copy()\n"
        "def center(x):\n    return x.mean.copy()\n"
    )
    modules = {"stats": stats}
    assert unlisted_ndarray_named(modules, {}) == ["Stats.copy", "Stats.fill"]
    listed = {("Stats", "copy"): "stats.spread", ("Stats", "fill"): "stats.center"}
    assert unlisted_ndarray_named(modules, listed) == ["Stats.fill"]  # center reads no .fill
    listed[("Stats", "fill")] = "stats.spread"  # nor does spread
    assert unlisted_ndarray_named(modules, listed) == ["Stats.fill"]
    del listed[("Stats", "fill")]
    listed[("Stats", "sort")] = "stats.spread"  # no such method
    assert unlisted_ndarray_named(modules, listed) == ["Stats.fill", "Stats.sort"]


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
