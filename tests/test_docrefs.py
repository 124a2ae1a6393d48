"""Every cross-reference in the package's source resolves: each
``:func:``, ``:class:``, ``:attr:`` and ``:meth:`` role, each double-backquoted
``module.name`` whose first part is a package module, and each
double-backquoted bare ALL-CAPS name such as a module constant. A
reference left behind by a rename or a deletion fails here, not in a later
reader's search.

The comments and docstrings quote no measurement, such as a timing or a
size in MB: measurements go stale when re-measured, and belong in
``CHANGES.md`` and ``ROADMAP.md``."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import onigraph

# __main__ runs the command line when it is imported, and holds no reference
SOURCES = sorted(p for p in Path(onigraph.__file__).parent.glob("*.py") if p.stem != "__main__")
MODULES = {p.stem for p in SOURCES} - {"__init__"}
ROLE = re.compile(r":(?:func|class|attr|meth):`~?(?:onigraph\.)?([\w.]+)`")
LITERAL = re.compile(r"``(\w+\.[\w.]+)``")
CONSTANT = re.compile(r"``(_?[A-Z][A-Z0-9_]+)``")
_MISSING = object()


def unresolved(module: str, text: str) -> list[str]:
    """The references in ``text``, found in ``module``, that name nothing. A
    dotted name whose first part is a package module is taken from that
    module, any other from ``module``, as is a bare constant; a dataclass
    field counts as its class's attribute."""
    targets = ROLE.findall(text) + [
        t for t in LITERAL.findall(text) if t.split(".")[0] in MODULES
    ] + CONSTANT.findall(text)
    missing = []
    for target in targets:
        head, _, rest = target.partition(".")
        owner, name = (head, rest) if head in MODULES and rest else (module, target)
        obj = importlib.import_module("onigraph" if owner == "__init__" else f"onigraph.{owner}")
        *path, last = name.split(".")
        for part in path:
            obj = getattr(obj, part, _MISSING)
        if not (hasattr(obj, last) or last in getattr(obj, "__dataclass_fields__", {})):
            missing.append(target)
    return missing


def test_every_module_is_checked():
    assert MODULES >= {"autodiff", "model", "structure", "training", "data", "cli"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cross_reference_resolves(path):
    missing = unresolved(path.stem, path.read_text())
    assert not missing, f"{path.name} refers to names that do not exist: {missing}"


def test_a_stale_reference_is_caught():
    text = (
        "over :func:`graph_aggregator` of :func:`model_edges`, with\n"
        "``autodiff.edge_block_matmul``, ``autodiff.dense_aggregate``,\n"
        ":attr:`~onigraph.autodiff.EdgeIndex.sparse`, :class:`ModelState` and ``edges.n``,\n"
        ":meth:`NormParams.folded`, :meth:`NormParams.unfolded`,\n"
        "``PRESETS`` and ``BN_EPS``, ``N`` x ``N``"
    )
    assert unresolved("model", text) == [
        "graph_aggregator", "NormParams.unfolded", "autodiff.dense_aggregate", "BN_EPS"
    ]


# a number followed by a unit of time, memory or speed
MEASUREMENT = re.compile(r"(?<![\w.])\d[\d,.]*\s?(?:ms|µs|MB|GB|GFLOP/s)(?![A-Za-z])")


def measurements(source: str) -> list[tuple[int, str]]:
    """The measurements quoted in the comments and docstrings of a module's
    ``source``, each with the line its comment or docstring starts on."""
    prose = [
        (token.start[0], token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if (doc := ast.get_docstring(node, clean=False)) is not None:
                prose.append((node.body[0].lineno, doc))
    return [(line, m.group()) for line, text in sorted(prose) for m in MEASUREMENT.finditer(text)]


@pytest.mark.parametrize(
    "path", sorted(Path(onigraph.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_measurement_is_quoted_in_the_source(path):
    found = measurements(path.read_text())
    assert not found, f"{path.name} quotes measurements, which belong in CHANGES.md: {found}"


def test_a_quoted_measurement_is_caught():
    source = (
        '"""Resolve each table once: 0.17 ms a type."""\n'
        "# 5.5 MB at N=1345, 1,024 GB, 68 GFLOP/s\n"
        "x = '3 ms'  # 12µs\n"
        "def f():\n"
        '    """Sums the items of 16 MBit words in 2 passes; ms and MB alone."""\n'
    )
    assert [m for _, m in measurements(source)] == [
        "0.17 ms", "5.5 MB", "1,024 GB", "68 GFLOP/s", "12µs",
    ]
