"""Every name a source or test module imports is read in that module: an
import left behind by a refactor fails here, not in a later reader's head."""

import ast
from pathlib import Path

import pytest

import onigraph

# the package's __init__ imports names to export them
SOURCES = sorted(
    p for p in Path(onigraph.__file__).parent.glob("*.py") if p.name != "__init__.py"
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
