import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

from dataclasses import replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onigraph
from onigraph import data as dat
from onigraph.cli import _section_types, cli_dispatch, resolve_configs
from onigraph.errors import ConfigError
from onigraph.model import GcnConfig, init_params
from onigraph.training import CHECKPOINT_MAGIC, save_checkpoint


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "synth"
    code = cli_dispatch(
        ["synth-data", "--out", str(d), "--lat", "6", "--lon", "6", "--months", "60", "--seed", "3"]
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "c.json"
    path.write_text(
        json.dumps(
            {
                "model": {"layer_dims": [8, 8]},
                "train": {"epochs": 3, "embed_dim": 8},
                "data": {"train_fraction": 0.8},
            }
        )
    )
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, synth_dir, small_config):
    out = tmp_path_factory.mktemp("model") / "m.ckpt"
    code = cli_dispatch(
        [
            "train",
            "--config", str(small_config),
            "--data", str(synth_dir),
            "--lead", "1",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_synth_data_writes_container(synth_dir):
    assert (synth_dir / "manifest.json").exists()
    assert (synth_dir / "data.bin").exists()
    assert (synth_dir / "synth_spec.json").exists()
    spec = json.loads((synth_dir / "synth_spec.json").read_text())
    assert spec["seed"] == 3 and len(spec["driver_cells"]) >= 1


def test_train_writes_checkpoint_and_loss_history(checkpoint):
    assert checkpoint.exists()
    loss_csv = checkpoint.parent / (checkpoint.name + ".loss.csv")
    lines = loss_csv.read_text().strip().splitlines()
    assert lines[0] == "epoch,batch,loss"
    assert len(lines) > 1


def test_evaluate_writes_reports(checkpoint, synth_dir, tmp_path):
    out = tmp_path / "eval"
    code = cli_dispatch(
        [
            "evaluate",
            "--checkpoint", str(checkpoint),
            "--data", str(synth_dir),
            "--out", str(out),
        ]
    )
    assert code == 0
    report = (tmp_path / "eval.report.csv").read_text().splitlines()
    assert report[0] == "lead,r,rmse,n"
    assert (tmp_path / "eval.predictions.csv").exists()
    assert (tmp_path / "eval.series.svg").exists()


def test_evaluate_supports_ensembles(checkpoint, synth_dir):
    code = cli_dispatch(
        [
            "evaluate",
            "--checkpoint", str(checkpoint),
            "--checkpoint", str(checkpoint),
            "--data", str(synth_dir),
        ]
    )
    assert code == 0


def test_predict_writes_csv(checkpoint, synth_dir, tmp_path):
    out = tmp_path / "p.csv"
    code = cli_dispatch(
        ["predict", "--checkpoint", str(checkpoint), "--data", str(synth_dir), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,prediction"
    assert len(lines) > 1


def test_predict_all_is_train_then_test(checkpoint, synth_dir, tmp_path):
    def predictions(split):
        out = tmp_path / f"{split}.csv"
        code = cli_dispatch(
            [
                "predict",
                "--checkpoint", str(checkpoint),
                "--data", str(synth_dir),
                "--split", split,
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(i) for i, _ in rows] == list(range(len(rows)))
        return np.array([float(p) for _, p in rows])

    train, test, both = predictions("train"), predictions("test"), predictions("all")
    assert len(train) > 0 and len(test) > 0
    np.testing.assert_allclose(both, np.concatenate([train, test]), rtol=1e-12, atol=0.0)


def test_ensemble_of_different_leads_is_usage_error(checkpoint, synth_dir, small_config, tmp_path):
    lead2 = tmp_path / "lead2.ckpt"
    code = cli_dispatch(
        [
            "train",
            "--config", str(small_config),
            "--data", str(synth_dir),
            "--lead", "2",
            "--seed", "7",
            "--out", str(lead2),
        ]
    )
    assert code == 0
    for command in ("evaluate", "predict"):
        args = [command, "--checkpoint", str(checkpoint), "--checkpoint", str(lead2)]
        args += ["--data", str(synth_dir)]
        if command == "predict":
            args += ["--out", str(tmp_path / "p.csv")]
        assert cli_dispatch(args) == 1
    assert not (tmp_path / "p.csv").exists()


def test_centrality_writes_heatmap(checkpoint, tmp_path):
    out = tmp_path / "heat"
    code = cli_dispatch(["centrality", "--checkpoint", str(checkpoint), "--out", str(out)])
    assert code == 0
    assert (tmp_path / "heat.csv").exists()
    assert (tmp_path / "heat.svg").exists()


def hub_checkpoint(path, hub=4):
    """A local-mode model on a 3x3 grid whose fixed matrix makes every node
    read from ``hub`` with weight 1, and from each other node with 0.1."""
    n = 9
    latlon = np.column_stack([np.repeat([-5.0, 0.0, 5.0], 3), np.tile([190.0, 200.0, 210.0], 3)])
    fixed = np.full((n, n), 0.1)
    fixed[:, hub] = 1.0
    np.fill_diagonal(fixed, 1.0)
    state = init_params(
        GcnConfig(layer_dims=[4], window=2),
        np.zeros((n, 4)),
        latlon,
        seed=0,
        edge_mode="local",
        fixed_adjacency=fixed,
    )
    save_checkpoint(state, path)
    return latlon[hub]


def test_centrality_ranks_the_node_every_node_reads_from_first(tmp_path):
    hub = hub_checkpoint(tmp_path / "hub.ckpt")
    args = ["--checkpoint", str(tmp_path / "hub.ckpt"), "--out", str(tmp_path / "heat")]
    assert cli_dispatch(["centrality", *args]) == 0
    rows = np.loadtxt(tmp_path / "heat.csv", delimiter=",", skiprows=1)
    assert len(rows) == 9
    np.testing.assert_array_equal(rows[np.argmax(rows[:, 2]), :2], hub)


def test_local_checkpoint_without_unit_diagonal_exits_2(tmp_path):
    ckpt = tmp_path / "hub.ckpt"
    hub_checkpoint(ckpt)
    raw = bytearray(ckpt.read_bytes())
    (manifest_len,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + manifest_len])
    (entry,) = [t for t in manifest["tensors"] if t["name"] == "local_adjacency"]
    start = 12 + manifest_len + entry["offset"]  # entry (0, 0)
    raw[start : start + 8] = struct.pack("<d", 0.5)
    ckpt.write_bytes(bytes(raw))
    proc = _run_cli(["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "heat")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:")
    assert "diagonal" in proc.stderr


def test_gradcheck_passes():
    assert cli_dispatch(["gradcheck", "--seed", "1"]) == 0


def test_gradcheck_checks_a_dense_and_a_sparse_graph(capsys):
    assert cli_dispatch(["gradcheck", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 nodes, 18 edges, dense kernels" in out
    assert "40 nodes, 40 edges, CSR kernels" in out


def test_unknown_command_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert cli_dispatch(["gradcheck", "--bogus"]) == 1


def test_missing_data_dir_is_data_error(checkpoint, tmp_path):
    code = cli_dispatch(
        ["evaluate", "--checkpoint", str(checkpoint), "--data", str(tmp_path / "nope")]
    )
    assert code == 2


def test_bad_config_is_usage_error(synth_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": {}}))
    code = cli_dispatch(["train", "--config", str(cfg), "--data", str(synth_dir)])
    assert code == 1


def _manifest(path):
    raw = Path(path).read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[4:12])
    return json.loads(raw[12 : 12 + manifest_len])


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"train": {"epochs": 2.5}}, "train.epochs must be of type int"),
        ({"train": {"batch_size": True}}, "train.batch_size must be of type int"),
        ({"data": {"train_fraction": "x"}}, "data.train_fraction must be of type finite float"),
        ({"train": {"learning_rate": float("nan")}}, "train.learning_rate must be"),
        ({"model": {"layer_dims": [8, 8.0]}}, "model.layer_dims must be of type int"),
        ({"structure": {"max_edges": 10}}, "unknown config sections ['structure']"),
        ({"train": {"bogus": 1}}, "unknown config key train.bogus"),
        ({"model": {"window": 3}}, "model.window describes the data"),
        ({"model": {"lead_months": 2}}, "model.lead_months describes the data"),
        ({"model": {"features_per_node": 1}}, "model.features_per_node describes the data"),
        ({"data": []}, "config section 'data' must be a JSON object"),
        ([], "a config is a JSON object"),
        ({"train": {"embed_dim": -1}}, "embed_dim must be >= 1"),
        ({"model": {"mlp_hidden": -1}}, "mlp_hidden must be None or >= 1"),
        ({"train": {"batch_size": 1}}, "batch_size must be >= 2"),
    ],
)
def test_config_mistakes_are_usage_errors(config, message, synth_dir, tmp_path, capsys):
    args = ["train", "--config", _write_config(tmp_path / "c.json", config)]
    args += ["--data", str(synth_dir), "--out", str(tmp_path / "m.ckpt")]
    assert cli_dispatch(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "not_json"])
def test_unreadable_config_is_data_error(kind, synth_dir, tmp_path, capsys):
    path = tmp_path / "c.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    elif kind == "not_json":
        path.write_text("{train:")
    args = ["train", "--config", str(path), "--data", str(synth_dir)]
    assert cli_dispatch([*args, "--out", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("synth-data", "--config"),
        ("evaluate", "--seed"),
        ("evaluate", "--lead"),
        ("predict", "--seed"),
        ("predict", "--lead"),
        ("centrality", "--config"),
        ("centrality", "--seed"),
        ("centrality", "--lead"),
        ("gradcheck", "--config"),
        ("gradcheck", "--lead"),
        ("ablation", "--seed"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(command, flag, capsys):
    required = {
        "evaluate": ["--checkpoint", "m.ckpt", "--data", "d"],
        "predict": ["--checkpoint", "m.ckpt", "--data", "d"],
        "centrality": ["--checkpoint", "m.ckpt"],
        "ablation": ["--data", "d"],
    }
    assert cli_dispatch([command, *required.get(command, []), flag, "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"unrecognized arguments: {flag}" in err


def test_model_section_sets_the_architecture(synth_dir, tmp_path):
    out = tmp_path / "tanh.ckpt"
    config = {"model": {"activation": "tanh"}, "train": {"epochs": 1}}
    args = ["train", "--config", _write_config(tmp_path / "c.json", config)]
    assert cli_dispatch([*args, "--data", str(synth_dir), "--out", str(out)]) == 0
    model = _manifest(out)["model"]
    assert model["activation"] == "tanh"
    assert model["layer_dims"] == [250, 100]  # gcn2a, the default preset


TINY_MODEL = {"model": {"layer_dims": [8, 8]}, "train": {"epochs": 2, "embed_dim": 8}}


def _train_tiny(synth_dir, tmp_path, train=(), data=()):
    config = {**TINY_MODEL, "train": {**TINY_MODEL["train"], **dict(train)}, "data": dict(data)}
    args = ["train", "--config", _write_config(tmp_path / "c.json", config), "--lead", "1"]
    return cli_dispatch([*args, "--data", str(synth_dir), "--out", str(tmp_path / "m.ckpt")])


def test_one_sample_remainder_joins_the_previous_batch(synth_dir, tmp_path, capsys):
    # 45 training samples in batches of 44: the 45th joins the first batch
    assert _train_tiny(synth_dir, tmp_path, train={"batch_size": 44}) == 0
    assert "(45 samples, 2 epochs)" in capsys.readouterr().out
    loss = (tmp_path / "m.ckpt.loss.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in loss[1:]] == [["0", "0"], ["1", "0"]]


def test_one_sample_train_split_is_data_error(synth_dir, tmp_path, capsys):
    assert _train_tiny(synth_dir, tmp_path, data={"train_fraction": 0.02}) == 2
    assert "cannot train on 1 sample(s)" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_zero_epochs_print_no_training_mse(synth_dir, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _train_tiny(synth_dir, tmp_path, train={"epochs": 0}) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("trained learned model (45 samples, 0 epochs)")
    assert "MSE" not in line and "nan" not in line
    assert (tmp_path / "m.ckpt.loss.csv").read_text() == "epoch,batch,loss\n"


def test_diverged_training_is_a_numeric_failure(synth_dir, tmp_path, capsys):
    # at the default settings this seed's learned model diverges: its test
    # predictions are finite but their squares overflow
    out = tmp_path / "m.ckpt"
    args = ["train", "--data", str(synth_dir), "--lead", "2", "--seed", "7",
            "--edges", "learned", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure:")
    assert "rmse=inf" in captured.err
    assert captured.out == ""
    assert out.exists()  # saved before the evaluation


def _one_variable_grid(synth_dir, path):
    grid = dat.load_gridset(synth_dir)
    dat.save_gridset(replace(grid, variables=["sst_anomaly"], data=grid.data[:, :1].copy()), path)
    return path


def test_one_variable_grid_trains_one_feature_per_node(synth_dir, small_config, tmp_path):
    grid = _one_variable_grid(synth_dir, tmp_path / "sst_only")
    out = tmp_path / "m.ckpt"
    args = ["train", "--config", str(small_config), "--data", str(grid), "--out", str(out)]
    assert cli_dispatch(args) == 0
    assert _manifest(out)["model"]["features_per_node"] == 1
    assert cli_dispatch(["evaluate", "--checkpoint", str(out), "--data", str(grid)]) == 0


def test_samples_that_do_not_fit_the_model_are_data_errors(checkpoint, synth_dir, tmp_path, capsys):
    other_size = tmp_path / "5x5"
    assert cli_dispatch(["synth-data", "--out", str(other_size), "--lat", "5", "--lon", "5"]) == 0
    grids = (_one_variable_grid(synth_dir, tmp_path / "sst_only"), other_size)
    for command in ("evaluate", "predict"):
        for grid in grids:
            args = [command, "--checkpoint", str(checkpoint), "--data", str(grid)]
            assert cli_dispatch([*args, "--out", str(tmp_path / "p.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "do not fit the model" in err
    assert not (tmp_path / "p.csv").exists()


def test_ablation_loads_the_grid_once(synth_dir, small_config, monkeypatch, capsys):
    calls = []

    def counting_load(path):
        calls.append(path)
        return load(path)

    load = dat.load_gridset
    monkeypatch.setattr(dat, "load_gridset", counting_load)
    args = ["ablation", "--config", str(small_config), "--data", str(synth_dir)]
    assert cli_dispatch([*args, "--seeds", "0,1"]) == 0
    assert calls == [str(synth_dir)]
    rows = capsys.readouterr().out.splitlines()
    assert sum(row.startswith("learned ") for row in rows) == 2


def _holds(value, hint) -> bool:
    if get_origin(hint) is list:
        return type(value) is list and all(_holds(v, get_args(hint)[0]) for v in value)
    if get_args(hint):
        return any(_holds(value, h) for h in get_args(hint))
    return type(value) is hint and (hint is not float or np.isfinite(value))


_TYPES = _section_types()
_KEYS = sorted({k for types in _TYPES.values() for k in types} | {"window", "bogus"})
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 300)
    | st.integers()
    | st.floats(-0.5, 2.0)
    | st.floats()
    | st.sampled_from(["gcn2a", "gcn3b", "elu", "tanh", "mean", "sum_and_mean", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _plausible(hint):
    """Values of the hinted type, and near misses: a bool or a float for an
    int, NaN or infinity for a float."""
    if get_origin(hint) is list:
        return st.lists(_plausible(get_args(hint)[0]), min_size=1, max_size=3)
    if get_args(hint):
        return st.none() | _plausible(get_args(hint)[0])
    return {
        int: st.integers(1, 300) | st.integers(1, 300) | st.booleans() | st.floats(1.0, 9.0),
        float: st.floats(0.0, 0.95) | st.integers(0, 1) | st.sampled_from([np.nan, np.inf]),
        bool: st.booleans(),
        str: st.sampled_from(["gcn2a", "gcn3b", "tanh", "mean", "sum_and_mean"]),
    }[hint]


def _section(types, junk):
    """The section's own keys with plausible values, and with junk,
    sometimes another section's key or any JSON value."""

    def entry(key):
        if key not in types:
            return st.tuples(st.just(key), _VALUES)
        plausible = _plausible(types[key])
        return st.tuples(st.just(key), st.one_of(plausible, _VALUES) if junk else plausible)

    keys = sorted(types) * 3 + _KEYS if junk else sorted(types)
    return st.lists(st.sampled_from(keys).flatmap(entry), max_size=4).map(dict)


_CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional={name: _section(t, False) for name, t in _TYPES.items()}),
    st.fixed_dictionaries({}, optional={name: _section(t, True) for name, t in _TYPES.items()}),
    st.dictionaries(st.sampled_from(["train", "model", "data", "structure"]), _VALUES, max_size=3),
    _VALUES,
)


@settings(max_examples=300, deadline=None)
@given(config=_CONFIG, n_variables=st.integers(1, 3), seed=st.none() | st.integers(0, 9))
def test_resolved_configs_hold_their_annotated_types(config, n_variables, seed):
    try:
        model, train, data = resolve_configs(config, n_variables, seed=seed)
    except ConfigError:
        return
    for cfg in (model, train):
        for name, hint in get_type_hints(type(cfg)).items():
            assert _holds(getattr(cfg, name), hint), (name, getattr(cfg, name))
    types = get_type_hints(dat.prepare_dataset)
    assert set(data) <= {"train_fraction", "oni_node", "smoothing_k"}
    for name, value in data.items():
        assert _holds(value, types[name]), (name, value)
    assert (model.window, model.lead_months) == (train.window, train.lead_months)
    assert model.features_per_node == n_variables
    # every key given lands in its record unchanged (ints widen to float);
    # the --seed flag wins over train.seed
    flag = {} if seed is None else {"seed": seed}
    expected = ((config.get("train", {}) | flag, train), (config.get("model", {}), model))
    for values, record in expected:
        for key, value in values.items():
            assert getattr(record, key) == value
    assert data == config.get("data", {})


def test_help_names_every_config_key(capsys):
    assert cli_dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    for section, types in _TYPES.items():
        assert f"  {section}  " in out
        for key in types:
            assert key in out, key


def test_cross_process_evaluation_is_identical(checkpoint, synth_dir, tmp_path):
    def run(tag):
        out = tmp_path / tag
        proc = _run_cli(
            ["evaluate", "--checkpoint", str(checkpoint), "--data", str(synth_dir), "--out", str(out)]
        )
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / f"{tag}.predictions.csv").read_bytes()

    assert run("a") == run("b")


def test_ablation_prints_table(synth_dir, small_config, capsys):
    code = cli_dispatch(
        [
            "ablation",
            "--config", str(small_config),
            "--data", str(synth_dir),
            "--lead", "1",
            "--seeds", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "learned" in out and "local" in out and "gap=" in out


def _run_cli(args):
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "onigraph", *args], capture_output=True, text=True, env=env
    )


def _checkpoint_without_manifest_key(good, bad, key):
    raw = good.read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + manifest_len])
    del manifest[key]
    payload = json.dumps(manifest).encode()
    header = CHECKPOINT_MAGIC + struct.pack("<Q", len(payload))
    bad.write_bytes(header + payload + raw[12 + manifest_len :])


@pytest.mark.parametrize(
    "corruption", ["truncated_checkpoint", "checkpoint_missing_key", "grid_missing_lat0"]
)
def test_corrupt_input_exits_2_without_traceback(corruption, checkpoint, synth_dir, tmp_path):
    ckpt, data = checkpoint, synth_dir
    if corruption == "truncated_checkpoint":
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(checkpoint.read_bytes()[:8])
    elif corruption == "checkpoint_missing_key":
        ckpt = tmp_path / "nokey.ckpt"
        _checkpoint_without_manifest_key(checkpoint, ckpt, "seed")
    else:
        data = tmp_path / "grid"
        shutil.copytree(synth_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["lat0"]
        (data / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:")


def test_grid_file_naming_a_directory_exits_2(synth_dir, small_config, tmp_path):
    data = tmp_path / "grid"
    shutil.copytree(synth_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["mask_file"] = ""
    (data / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(
        ["train", "--config", str(small_config), "--data", str(data), "--out", str(tmp_path / "m")]
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"data error: cannot read {data}")


def test_train_out_naming_a_directory_exits_2(synth_dir, small_config, tmp_path):
    out = tmp_path / "models"
    out.mkdir()
    proc = _run_cli(
        ["train", "--config", str(small_config), "--data", str(synth_dir), "--out", str(out)]
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models"]  # no temp file left
    assert not any(out.iterdir())


def test_closed_stdout_exits_1_without_traceback(synth_dir, small_config, tmp_path):
    # the reader is gone before the first line is written, as in
    # `onigraph train ... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "onigraph", "train", "--config", str(small_config),
             "--data", str(synth_dir), "--out", str(tmp_path / "m.ckpt")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "m.ckpt").exists()


def test_nan_grid_exits_2_without_traceback(synth_dir, small_config, tmp_path):
    from onigraph.data import load_gridset, save_gridset

    grid = load_gridset(synth_dir)
    ocean = np.argwhere(~grid.land_mask)[0]
    grid.data[5, 0, ocean[0], ocean[1]] = np.nan
    save_gridset(grid, tmp_path / "nan_grid")
    proc = _run_cli(
        [
            "train",
            "--config", str(small_config),
            "--data", str(tmp_path / "nan_grid"),
            "--out", str(tmp_path / "m.ckpt"),
        ]
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:")
