"""Every on-disk record is read by one typed reader, so a malformed field
ends as a typed error that names it, never as a traceback or the repr of
an exception a hand parser leaked."""

import ast
import builtins
import contextlib
import io
import json
import math
import re
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import onigraph
from onigraph import data as dat
from onigraph import errors
from onigraph.cli import CONFIG_SECTIONS, cli_dispatch
from onigraph.training import CHECKPOINT_FIELDS, CHECKPOINT_MAGIC, OPTIMIZER_FIELDS, TENSOR_FIELDS

# the 4x4 grid of 48 months and the model trained on it that every change edits
GRID_SEED, TRAIN_SEED = 31301, 31302
# the checkpoint of that model: 13 parameters, 8 buffers and 13 velocities
TENSOR_COUNT = 34


def _quiet(args) -> tuple[int, str]:
    """The exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_dispatch([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> Path:
    """A directory with the valid grid (``grid``), its config (``c.json``)
    and its checkpoint (``m.ckpt``)."""
    d = tmp_path_factory.mktemp("records")
    config = {"model": {"layer_dims": [4, 4]}, "train": {"epochs": 1, "embed_dim": 4}}
    (d / "c.json").write_text(json.dumps(config))
    grid = ["synth-data", "--out", d / "grid", "--lat", 4, "--lon", 4, "--months", 48]
    assert _quiet([*grid, "--seed", GRID_SEED]) == (0, "")
    train = ["train", "--config", d / "c.json", "--data", d / "grid", "--out", d / "m.ckpt"]
    assert _quiet([*train, "--seed", TRAIN_SEED]) == (0, "")
    # a tensor past TENSOR_COUNT would go unmutated, one short of it fails as missing
    assert len(_split((d / "m.ckpt").read_bytes())[0]["tensors"]) == TENSOR_COUNT
    return d


def _split(raw: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack("<Q", raw[4:12])
    return json.loads(raw[12 : 12 + length]), raw[12 + length :]


def _join(manifest, blob: bytes) -> bytes:
    payload = json.dumps(manifest).encode()
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload + blob


def _paths(table: dict, prefix=()):
    """Every key of a field table and of the tables nested in it."""
    for key, hint in table.items():
        yield (*prefix, key)
        if type(hint) is dict:
            yield from _paths(hint, (*prefix, key))


CHECKPOINT_PATHS = [
    *_paths(CHECKPOINT_FIELDS),
    *(("optimizer", key) for key in OPTIMIZER_FIELDS),
    *(("tensors", i, key) for i in range(TENSOR_COUNT) for key in TENSOR_FIELDS),
]
CASES = [
    *(("checkpoint", path) for path in CHECKPOINT_PATHS),
    *(("grid", (key,)) for key in dat.GRID_FIELDS),
    *(("spec", (key,)) for key in dat.SPEC_FIELDS),
]
CONFIG_CASES = [(name, key) for name, types in CONFIG_SECTIONS.items() for key in types]

DELETE = object()
# any JSON value: null, bools, negative and huge ints, non-integral, infinite
# and NaN floats, strings, lists and objects; half the draws are from a list
# of edge values, so that a few examples reach each of them
EDGE_VALUES = [
    None, True, False, 0, 1, -1, 2**31, 2**63, 10**30, -(10**30), 10**400, 0.5, -2.5, 1e-300,
    3.5e38, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan, "", "x", [], [1], {}, {"x": 1},
]
JSON_VALUES = st.sampled_from(EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner),
    max_leaves=6,
)
# an int past the 4,300 digits Python reads, written into a config as it
# stands; json.dumps cannot write it
LONG_INT = "1" * 5000


@st.composite
def same_count(draw, shape):
    """A shape of another rank, or another split, with as many elements."""
    count = math.prod(shape)
    split = draw(st.sampled_from([d for d in range(1, count + 1) if count % d == 0]))
    sizes = [split, count // split, *[1] * draw(st.integers(0, 2))]
    return draw(st.just([count]) | st.permutations(sizes))


# every exception class a reader could leak, by name
EXCEPTION_NAMES = {
    name
    for module in (builtins, errors, json, struct)
    for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, BaseException) and name[0].isupper()
}


def _change_one_field(record, path, data, originals, tmp_path) -> tuple[int, str, Path]:
    """Copy the originals, change or delete the field at ``path`` of one
    record, and run the command that reads it: its exit code, standard
    error and the changed file."""
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(originals, work)
    if record == "checkpoint":
        file = work / "m.ckpt"
        manifest, blob = _split(file.read_bytes())
    else:
        file = work / {"grid": f"grid/{dat.MANIFEST_NAME}", "spec": f"grid/{dat.SPEC_NAME}",
                       "config": "c.json"}[record]
        manifest = json.loads(file.read_text())
        if record == "config":  # every section, an empty one as if left out
            manifest = {name: {} for name in CONFIG_SECTIONS} | manifest
    *parents, key = path
    holder = manifest
    for step in parents:
        holder = holder[step]
    values = JSON_VALUES | st.just(DELETE)
    if key == "shape":
        values |= same_count(holder[key])
    if record == "config":  # also under an unknown key, a newline in it
        values |= st.just(LONG_INT)
        key = data.draw(st.just(key) | st.just("x\ny") | st.text(max_size=4), label="key")
    value = data.draw(values, label=".".join(map(str, path)))
    if value is DELETE:
        holder.pop(key, None)
    else:
        holder[key] = value
    if record == "checkpoint":
        file.write_bytes(_join(manifest, blob))
        command = data.draw(st.sampled_from(["evaluate", "centrality"]), label="command")
    else:
        file.write_text(json.dumps(manifest).replace(f'"{LONG_INT}"', LONG_INT))
        command = "ablation" if record == "spec" else "evaluate"
    grid, ckpt = ["--data", work / "grid"], ["--checkpoint", work / "m.ckpt"]
    config = ["--config", work / "c.json"] if record == "config" else []
    args = {
        "evaluate": ["evaluate", *ckpt, *grid, *config],
        "centrality": ["centrality", *ckpt, "--out", work / "heat"],
        "ablation": ["ablation", "--config", work / "c.json", *grid, "--seeds", 0],
    }[command]
    code, err = _quiet(args)
    if code:
        prefix = {1: "usage error:", 2: "data error:", 3: "numeric failure:"}[code]
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert not EXCEPTION_NAMES & set(re.findall(r"\w+", err)), err
    return code, err, file


MUTATION_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.mark.parametrize(
    "record, path", CASES, ids=[f"{r}:{'.'.join(map(str, p))}" for r, p in CASES]
)
@seed(31401)
@MUTATION_SETTINGS
@given(data=st.data())
def test_one_changed_field_ends_in_a_typed_error_naming_it(record, path, data, originals, tmp_path):
    code, err, file = _change_one_field(record, path, data, originals, tmp_path)
    # A well-typed value the model's numbers fail on exits 3: an edge budget
    # too small for the graph to have one dominant eigenvector
    assert code in (0, 2, 3), err
    if code == 2:
        names = {record, str(file), *(p for p in path if isinstance(p, str))}
        if record == "checkpoint":
            names |= {"model"}  # the record a checkpoint holds
        assert any(name in err for name in names), err


@pytest.mark.parametrize("path", CONFIG_CASES, ids=[".".join(p) for p in CONFIG_CASES])
@seed(32401)
@MUTATION_SETTINGS
@given(data=st.data())
def test_one_changed_config_field_ends_in_a_typed_error_naming_it(path, data, originals, tmp_path):
    # evaluate resolves the config without training, so a huge epochs cannot
    # time out; a value the config reader refuses is a usage error
    code, err, file = _change_one_field("config", path, data, originals, tmp_path)
    assert code in (0, 1, 2), err
    if code:
        message = err.split(":", 1)[1]
        assert any(name in message for name in ("config", str(file), *path)), err


def test_an_unknown_key_is_named_in_quotes_on_one_line():
    # a key is any JSON string, a newline included
    with pytest.raises(errors.ConfigError) as raised:
        dat.read_record({"seed": int}, {"seed": 1, "x\ny": 2}, "model")
    assert str(raised.value) == "unknown key 'x\\ny' in model; model takes ['seed']"


def _catches(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}  # a bare except, which catches everything
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(name).rsplit(".", 1)[-1] for name in names}


def test_no_except_clause_catches_what_a_hand_parser_leaks():
    # a record is checked field by field, so nothing needs these caught; an
    # except clause that does would turn a parser's slip into a message
    leaks = {
        "TypeError", "LookupError", "KeyError", "IndexError", "AttributeError", "OverflowError"
    }
    found = [
        f"{path.name}:{node.lineno} catches {sorted(_catches(node) & leaks)}"
        for path in sorted(Path(onigraph.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and _catches(node) & leaks
    ]
    assert found == []
