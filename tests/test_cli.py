import hashlib
import json
import math
import os
import re
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
from onigraph import cli, data as dat
from onigraph.cli import CONFIG_SECTIONS, cli_dispatch, resolve_configs
from onigraph.errors import ConfigError, ConvergenceError, FormatError
from onigraph.model import GcnConfig, init_params
from onigraph.training import (
    CHECKPOINT_FIELDS,
    CHECKPOINT_MAGIC,
    MODEL_FIELDS,
    OPTIMIZER_FIELDS,
    STRUCTURE_FIELDS,
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from test_training import (
    EDGE_ROW_CASES, bad_edge_rows, float64_bundle, off_diagonal, old_checkpoint,
)


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


def split_predictions(checkpoint, synth_dir, tmp_path):
    """The predictions ``predict`` writes for the train, test and all splits."""

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
    return both, np.concatenate([train, test])


def test_predict_all_is_train_then_test(checkpoint, synth_dir, tmp_path, monkeypatch):
    # in float64, whose rounding the bound is of: float64 inputs, and a
    # fresh float64 model of the checkpoint's architecture in its place
    config = load_checkpoint(checkpoint).config
    grid = dat.load_gridset(synth_dir)
    bundle = float64_bundle(grid, window=config.window, lead=config.lead_months)
    state = build_model(bundle, config, TrainConfig(seed=7, embed_dim=8))
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: state)
    monkeypatch.setattr(dat, "prepare_dataset", float64_bundle)
    both, train_then_test = split_predictions(checkpoint, synth_dir, tmp_path)
    np.testing.assert_allclose(both, train_then_test, rtol=1e-12, atol=0.0)


def test_predict_all_is_train_then_test_in_float32(checkpoint, synth_dir, tmp_path):
    # the float64 bound above in float32 units: 1e-12 is 4,504 float64 ulps
    both, train_then_test = split_predictions(checkpoint, synth_dir, tmp_path)
    rtol = 1e-12 / np.finfo(np.float64).eps * np.finfo(np.float32).eps
    np.testing.assert_allclose(both, train_then_test, rtol=rtol, atol=0.0)


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


@pytest.mark.parametrize(
    "command, out, written",
    [
        ("train", "m.ckpt", ["m.ckpt", "m.ckpt.loss.csv"]),
        ("evaluate", "run", ["run.predictions.csv", "run.report.csv", "run.series.svg"]),
        ("predict", "p.csv", ["p.csv"]),
        ("ablation", "a.csv", ["a.csv"]),
        ("centrality", "c", ["c.csv", "c.svg"]),
    ],
)
def test_every_command_writes_under_a_missing_directory(
    command, out, written, checkpoint, synth_dir, small_config, tmp_path
):
    data, model = ["--data", str(synth_dir)], ["--checkpoint", str(checkpoint)]
    flags = {
        "train": ["--config", str(small_config), *data],
        "evaluate": [*model, *data],
        "predict": [*model, *data],
        "ablation": ["--config", str(small_config), *data, "--seeds", "0"],
        "centrality": model,
    }[command]
    missing = tmp_path / "new" / "dir"
    assert cli_dispatch([command, *flags, "--out", str(missing / out)]) == 0
    assert sorted(p.name for p in missing.iterdir()) == written


def test_a_grid_that_does_not_fit_on_the_globe_is_a_usage_error(tmp_path, capsys):
    assert cli_dispatch(["synth-data", "--out", str(tmp_path / "g"), "--lat", "38"]) == 1
    assert "37x64" in capsys.readouterr().err and not (tmp_path / "g").exists()


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
        embed_dim=32,
        max_edges=None,
        local_edges=off_diagonal(fixed),
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


@pytest.mark.parametrize("case", EDGE_ROW_CASES)
def test_a_bad_local_edge_row_exits_2_naming_it(tmp_path, case, capsys):
    ckpt = tmp_path / "hub.ckpt"
    hub_checkpoint(ckpt)
    ckpt.write_bytes(bad_edge_rows(ckpt.read_bytes(), case))
    assert cli_dispatch(["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "h")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "local_edges" in err
    assert "Error" not in err  # the reader names the tensor, not an exception class
    assert not (tmp_path / "h.csv").exists()


def test_centrality_of_a_checkpoint_with_no_located_node_exits_2(tmp_path, capsys):
    # its one node is the ONI node, whose NaN coordinates place no heatmap cell
    state = init_params(GcnConfig(layer_dims=[4]), np.ones((1, 4), np.float32),
                        [[math.nan, math.nan]], seed=1, embed_dim=2, max_edges=None)
    save_checkpoint(state, tmp_path / "oni.ckpt")
    args = ["--checkpoint", str(tmp_path / "oni.ckpt"), "--out", str(tmp_path / "heat")]
    assert cli_dispatch(["centrality", *args]) == 2
    assert capsys.readouterr() == (
        "", "data error: none of the 1 nodes has coordinates for a heatmap cell\n"
    )
    assert not (tmp_path / "heat.csv").exists()


def test_a_non_finite_checkpoint_value_exits_2_naming_its_tensor(checkpoint, synth_dir, tmp_path):
    # a NaN weight used to load, and then evaluate exited 3 and centrality 0
    raw = bytearray(checkpoint.read_bytes())
    (length,) = struct.unpack("<Q", raw[4:12])
    (entry,) = [t for t in json.loads(raw[12 : 12 + length])["tensors"] if t["name"] == "mlp.w2"]
    start = 12 + length + entry["offset"]
    raw[start : start + 4] = np.float32(np.nan).tobytes()
    ckpt = tmp_path / "nan.ckpt"
    ckpt.write_bytes(bytes(raw))
    for argv in (
        ["evaluate", "--checkpoint", str(ckpt), "--data", str(synth_dir)],
        ["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "heat")],
    ):
        proc = _run_cli(argv)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert proc.stderr == "data error: checkpoint tensor 'mlp.w2' holds a non-finite value\n"
    assert not (tmp_path / "heat.csv").exists()


def test_gradcheck_passes():
    assert cli_dispatch(["gradcheck", "--seed", "1"]) == 0


def test_gradcheck_checks_a_dense_and_a_sparse_graph(capsys):
    assert cli_dispatch(["gradcheck", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 nodes, 18 edges, dense kernels, mean" in out
    assert "40 nodes, 40 edges, CSR kernels, sum_and_mean" in out


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
        ({"train": {"bogus": 1}}, "unknown key 'bogus' in train"),
        ({"model": {"window": 3}}, "model.window describes the data"),
        ({"model": {"lead_months": 2}}, "model.lead_months describes the data"),
        ({"model": {"features_per_node": 1}}, "model.features_per_node describes the data"),
        ({"data": []}, "config section 'data' must be a JSON object"),
        ([], "a config is a JSON object"),
        ({"train": {"embed_dim": -1}}, "embed_dim must be >= 1"),
        ({"model": {"mlp_hidden": -1}}, "mlp_hidden must be None or >= 1"),
        ({"train": {"batch_size": 1}}, "batch_size must be >= 2"),
        ({"train": {"seed": -3}}, "seed must be >= 0"),
        # the settings that are now constants
        ({"model": {"activation": "elu"}}, "unknown key 'activation' in model"),
        ({"model": {"use_residual": True}}, "unknown key 'use_residual' in model"),
        (
            {"model": {"use_jumping_knowledge": True}},
            "unknown key 'use_jumping_knowledge' in model",
        ),
        ({"train": {"feature_gain": 1.0}}, "unknown key 'feature_gain' in train"),
        ({"train": {"score_gain": 2.0}}, "unknown key 'score_gain' in train"),
        ({"data": {"smoothing_k": 0}}, "data.smoothing_k must be an odd positive int, got 0"),
        ({"data": {"smoothing_k": 2}}, "data.smoothing_k must be an odd positive int, got 2"),
        ({"data": {"smoothing_k": 10**12}}, "data.smoothing_k must be an odd positive int"),
    ],
)
def test_config_mistakes_are_usage_errors(config, message, synth_dir, tmp_path, capsys):
    args = ["train", "--config", _write_config(tmp_path / "c.json", config)]
    args += ["--data", str(synth_dir), "--out", str(tmp_path / "m.ckpt")]
    assert cli_dispatch(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "not_json", "long_int"])
def test_unreadable_config_is_data_error(kind, synth_dir, tmp_path, capsys):
    path = tmp_path / "c.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    elif kind == "not_json":
        path.write_text("{train:")
    elif kind == "long_int":  # past Python's 4,300-digit limit for reading an int
        path.write_text('{"train": {"epochs": ' + "1" * 5000 + "}}")
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
    out = tmp_path / "pooled.ckpt"
    config = {"model": {"pooling": "sum_and_mean"}, "train": {"epochs": 1}}
    args = ["train", "--config", _write_config(tmp_path / "c.json", config)]
    assert cli_dispatch([*args, "--data", str(synth_dir), "--out", str(out)]) == 0
    model = _manifest(out)["model"]
    assert model["pooling"] == "sum_and_mean"
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


def test_diverged_training_is_a_numeric_failure(synth_dir, checkpoint, tmp_path, capsys):
    # at the default settings this seed's learned model diverges in
    # training: train saves it and stops before test evaluation
    out = tmp_path / "m.ckpt"
    args = ["train", "--data", str(synth_dir), "--lead", "2", "--seed", "7",
            "--edges", "learned", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(args) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "numeric failure: training diverged: last epoch's mean loss 3.14e+27, "
        "first epoch's 1.74\n"
    )
    assert captured.out == "" and out.exists()
    # a diverged model whose test predictions are finite but whose squares
    # overflow: the trained checkpoint with its output weights times 1e30
    state = load_checkpoint(checkpoint)
    state.mlp_w2.data *= np.float32(1e30)
    save_checkpoint(state, out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(["evaluate", "--checkpoint", str(out), "--data", str(synth_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: test skill is not finite")
    assert "rmse=inf" in captured.err
    assert captured.out == ""


def test_diverged_training_without_a_test_split_exits_3(synth_dir, tmp_path, capsys):
    # no test skill to check; at four times the default learning rate the
    # mean loss goes from about 1.9 in the first epoch to 7.6e11 in the sixth
    out = tmp_path / "m.ckpt"
    config = {"train": {"learning_rate": 0.02, "epochs": 6}, "data": {"train_fraction": 1.0}}
    config = _write_config(tmp_path / "c.json", config)
    args = ["train", "--config", config, "--data", str(synth_dir), "--lead", "2",
            "--seed", "7", "--edges", "learned", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: training diverged")
    assert captured.out == ""
    assert out.exists()


def test_non_finite_training_prints_only_the_typed_error(synth_dir, tmp_path):
    # at this learning rate the structure weights overflow within ten
    # epochs; no numpy warning may print before the one documented line
    config = {
        "model": {"layer_dims": [8, 8]},
        "train": {"epochs": 10, "embed_dim": 8, "learning_rate": 100.0},
    }
    config = _write_config(tmp_path / "c.json", config)
    out = tmp_path / "m.ckpt"
    proc = _run_cli(["train", "--config", config, "--data", str(synth_dir), "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr == (
        "numeric failure: structure embedding: static_features @ w overflows"
        " at epoch 3, batch 0\n"
    )
    assert proc.stdout == "" and not out.exists()


@pytest.fixture(scope="module")
def quiet_run(tmp_path_factory):
    """A 4x4 grid of 48 months and a model trained on it for one epoch."""
    d = tmp_path_factory.mktemp("quiet")
    config = _write_config(d / "c.json", {"model": {"layer_dims": [4, 4]},
                                          "train": {"epochs": 1, "embed_dim": 4}})
    grid = ["synth-data", "--out", str(d / "grid"), "--lat", "4", "--lon", "4", "--months", "48"]
    assert cli_dispatch([*grid, "--seed", "32201"]) == 0
    train = ["train", "--config", config, "--data", str(d / "grid"), "--out", str(d / "m.ckpt")]
    assert cli_dispatch([*train, "--seed", "32202"]) == 0
    return d


@pytest.mark.parametrize(
    "weight, message",
    [
        ("mlp_w1", "non-finite value produced by a tensor op"),
        ("mlp_w2", "predictions are not finite: the model diverged"),
        ("gcn_weights", "non-finite value produced by a tensor op"),
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_non_finite_evaluation_prints_only_the_typed_error(quiet_run, tmp_path, weight, message,
                                                          command):
    # the weight times 3e38 overflows its product in the eval pass; no numpy
    # warning may print before the one documented line
    state = load_checkpoint(quiet_run / "m.ckpt")
    tensor = getattr(state, weight)
    (tensor[0] if weight == "gcn_weights" else tensor).data *= np.float32(3e38)
    save_checkpoint(state, tmp_path / "m.ckpt")
    args = [command, "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(quiet_run / "grid")]
    out = tmp_path / "p.csv"
    proc = _run_cli(args + (["--out", str(out)] if command == "predict" else []))
    assert proc.returncode == 3
    assert proc.stderr == f"numeric failure: {message}\n"
    assert proc.stdout == "" and not out.exists()


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


_TYPES = CONFIG_SECTIONS
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


def _ablation(grid, config, seeds="0,1"):
    return ["ablation", "--config", str(config), "--data", str(grid), "--seeds", seeds]


def test_ablation_ranks_the_planted_drivers(synth_dir, small_config, capsys):
    assert cli_dispatch(_ablation(synth_dir, small_config)) == 0
    lines = capsys.readouterr().out.splitlines()
    n = 6 * 6 + 1  # the grid's ocean cells and the ONI node
    assert lines[0] == "edges    seed        r     rmse  driver rank"
    rows = [line.split() for line in lines[1:5]]
    assert [row[0] for row in rows] == ["learned", "local"] * 2
    for row in rows[::2]:
        rank, count = row[4].split("/")
        assert 1.0 <= float(rank) <= n and count == str(n)
    assert all(len(row) == 4 for row in rows[1::2])
    top = re.fullmatch(r"planted drivers in the top decile of centrality on (\d) of 2 seeds", lines[6])
    ranks = [float(row[4].split("/")[0]) for row in rows[::2]]
    assert top and int(top[1]) == sum(rank <= n / 10 for rank in ranks)
    assert len(lines) == 7


def test_ablation_without_a_spec_prints_the_plain_table(synth_dir, small_config, tmp_path, capsys):
    grid = tmp_path / "grid"
    shutil.copytree(synth_dir, grid)
    (grid / dat.SPEC_NAME).unlink()
    outputs = []
    for data in (synth_dir, grid):
        assert cli_dispatch(_ablation(data, small_config)) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    ranked, plain = outputs
    # the ranked table less its rank column and its closing count
    assert plain == [line[:31] for line in ranked[:5]] + ranked[5:6]
    assert plain[0] == "edges    seed        r     rmse"


_SPEC_EDITS = {
    "not_json": lambda spec: b"{",
    "not_utf8": lambda spec: b"\xff",
    "not_an_object": lambda spec: [],
    "missing_field": lambda spec: {k: v for k, v in spec.items() if k != "seed"},
    "mistyped_field": lambda spec: spec | {"lead": "1"},
    "fractional_cell": lambda spec: spec | {"driver_cells": [[0, 0.5]]},
    "cell_outside_the_grid": lambda spec: spec | {"driver_cells": [[0, 0], [6, 0]]},
    "cell_of_three_indices": lambda spec: spec | {"driver_cells": [[0, 0, 0]]},
    "no_driver_cell": lambda spec: spec | {"driver_cells": []},
    "directory": None,
}


@pytest.mark.parametrize("edit", sorted(_SPEC_EDITS))
def test_malformed_spec_exits_2_before_training(edit, synth_dir, small_config, tmp_path,
                                                 monkeypatch, capsys):
    grid = tmp_path / "grid"
    shutil.copytree(synth_dir, grid)
    path = grid / dat.SPEC_NAME
    if edit == "directory":
        path.unlink()
        path.mkdir()
    else:
        spec = _SPEC_EDITS[edit](json.loads(path.read_text()))
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
    assert cli_dispatch(_ablation(grid, small_config)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and str(path) in captured.err
    assert captured.out == "" and trained == []


def test_ablation_without_convergence_prints_n_a(synth_dir, small_config, monkeypatch, capsys):
    def fail(matrix):
        raise ConvergenceError("power iteration did not converge")

    monkeypatch.setattr(cli, "eigenvector_centrality", fail)
    assert cli_dispatch(_ablation(synth_dir, small_config, "0")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("learned ") and lines[1].endswith("          n/a")
    assert lines[-1] == "planted drivers in the top decile of centrality on 0 of 1 seeds"


def _run_cli(args, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "onigraph", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_evaluate_refuses_a_version1_checkpoint_with_exit_2(synth_dir, tmp_path):
    # checkpoints as format versions 1 to 4 wrote them, of a model that fits the grid
    state = build_model(
        dat.prepare_dataset(dat.load_gridset(synth_dir)),
        GcnConfig(layer_dims=[4]),
        TrainConfig(seed=7, embed_dim=4),
    )
    old = tmp_path / "old.ckpt"
    for version in (1, 2, 3, 4):
        old.write_bytes(old_checkpoint(state, version))
        proc = _run_cli(["evaluate", "--checkpoint", str(old), "--data", str(synth_dir)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            f"data error: checkpoint format version {version}; this build reads version 5\n"
        )


@pytest.mark.parametrize("reads", ["grid manifest", "checkpoint", "config"])
def test_a_pipe_in_place_of_a_file_exits_2_without_blocking(reads, synth_dir, tmp_path):
    # opening a FIFO for reading blocks until a writer comes, so the CLI must
    # refuse it unopened; the timeout fails a regression instead of hanging
    grid = tmp_path / "grid"
    shutil.copytree(synth_dir, grid)
    fifo = {"grid manifest": grid / "manifest.json", "checkpoint": tmp_path / "m.ckpt",
            "config": tmp_path / "c.json"}[reads]
    fifo.unlink(missing_ok=True)
    os.mkfifo(fifo)
    train = ["train", "--data", str(grid), "--out", str(tmp_path / "out.ckpt")]
    args = {"grid manifest": train, "config": [*train, "--config", str(fifo)],
            "checkpoint": ["evaluate", "--checkpoint", str(fifo), "--data", str(grid)]}[reads]
    proc = _run_cli(args, timeout=60)
    assert proc.returncode == 2, proc.stderr
    what = "config file " if reads == "config" else ""
    assert proc.stderr == f"data error: cannot read {what}{fifo}: not a regular file\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gradcheck", "--seed", "-100"],
        ["train", "--seed", "-3"],
        ["synth-data", "--seed", "-2"],
        ["ablation", "--seeds", "-4"],
    ],
    ids=lambda args: args[0],
)
def test_a_negative_seed_is_a_usage_error_without_traceback(args, synth_dir, tmp_path):
    out = tmp_path / "out"
    rest = {"train": ["--data", str(synth_dir), "--out", str(out)],
            "synth-data": ["--out", str(out)], "ablation": ["--data", str(synth_dir)]}
    proc = _run_cli([*args, *rest.get(args[0], [])])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error:") and ">= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"model": {"layer_dims": [10**15]}},
        {"model": {"mlp_hidden": 10**15}},
        {"train": {"embed_dim": 10**15}},
    ],
    ids=["layer_dims", "mlp_hidden", "embed_dim"],
)
def test_a_width_too_large_to_allocate_is_a_usage_error(config, synth_dir, tmp_path):
    # each width asks for more than 2**47 bytes, beyond any address space,
    # so its allocation fails at once under any overcommit policy
    out = tmp_path / "m.ckpt"
    config = _write_config(tmp_path / "c.json", config)
    proc = _run_cli(["train", "--config", config, "--data", str(synth_dir), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error: out of memory:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_predict_on_an_empty_split_exits_2_without_traceback(checkpoint, synth_dir, tmp_path):
    config = _write_config(tmp_path / "c.json", {"data": {"train_fraction": 1.0}})
    out = tmp_path / "p.csv"
    proc = _run_cli(["predict", "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                     "--config", config, "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error:") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_a_config_oni_node_that_contradicts_the_checkpoint_is_a_usage_error(
    command, checkpoint, synth_dir, tmp_path, capsys
):
    # the checkpoint's model reads the ONI node; a config that agrees runs as
    # one that leaves it out, and one that does not writes nothing
    outputs = tmp_path / "outputs"
    args = [command, "--checkpoint", str(checkpoint), "--data", str(synth_dir),
            "--out", str(outputs / "out")]

    def run(oni_node=None):
        shutil.rmtree(outputs, ignore_errors=True)
        outputs.mkdir()
        config = {} if oni_node is None else {"data": {"oni_node": oni_node}}
        code = cli_dispatch([*args, "--config", _write_config(tmp_path / "c.json", config)])
        written = sorted((p.name, p.read_bytes()) for p in outputs.iterdir())
        return code, capsys.readouterr(), written

    assert run(True) == run() and run()[0] == 0
    code, captured, written = run(False)
    assert (code, captured.out, written) == (1, "", [])
    assert captured.err == (
        f"usage error: data.oni_node is false, but checkpoint {checkpoint} has has_oni_node true\n"
    )


def _edit_checkpoint_manifest(good, bad, edit):
    raw = good.read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + manifest_len])
    edit(manifest)
    payload = json.dumps(manifest).encode()
    header = CHECKPOINT_MAGIC + struct.pack("<Q", len(payload))
    bad.write_bytes(header + payload + raw[12 + manifest_len :])


# edits of a checkpoint manifest and of a grid manifest, each leaving one
# value missing or of the wrong type
_CHECKPOINT_EDITS = {
    "checkpoint_missing_key": lambda m: m.pop("seed"),
    "fractional_max_edges": lambda m: m["structure"].update(max_edges=10.5),
    "string_oni_node": lambda m: m.update(has_oni_node="no"),
    "bool_seed": lambda m: m.update(seed=True),
    "negative_seed": lambda m: m.update(seed=-3),
    "bool_format_version": lambda m: m.update(format_version=True),
    "float_blob_bytes": lambda m: m.update(blob_bytes=float(m["blob_bytes"])),
    "bool_learning_rate": lambda m: m["optimizer"].update(learning_rate=True),
    "bool_momentum": lambda m: m["optimizer"].update(momentum=False),
    "lead_past_any_int64": lambda m: m["model"].update(lead_months=10**30),
}
_GRID_EDITS = {
    "grid_missing_lat0": lambda m: m.pop("lat0"),
    "string_lat0": lambda m: m.update(lat0="4.0"),
    "bool_lat0": lambda m: m.update(lat0=True),
    "nan_dlat": lambda m: m.update(dlat=math.nan),
    "infinite_lon0": lambda m: m.update(lon0=math.inf),
    "string_variables": lambda m: m.update(variables="sst_anomaly"),
    "repeated_variable": lambda m: m.update(variables=["sst_anomaly", "sst_anomaly"]),
    "overflowing_dlat": lambda m: m.update(dlat=1e308),
}


@pytest.mark.parametrize(
    "corruption",
    ["truncated_checkpoint", "grid_without_manifest", *_CHECKPOINT_EDITS, *_GRID_EDITS],
)
def test_corrupt_input_exits_2_without_traceback(corruption, checkpoint, synth_dir, tmp_path):
    ckpt, data = checkpoint, synth_dir
    if corruption == "truncated_checkpoint":
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(checkpoint.read_bytes()[:8])
    elif corruption in _CHECKPOINT_EDITS:
        ckpt = tmp_path / "edited.ckpt"
        _edit_checkpoint_manifest(checkpoint, ckpt, _CHECKPOINT_EDITS[corruption])
    else:
        data = tmp_path / "grid"
        shutil.copytree(synth_dir, data)
        if corruption == "grid_without_manifest":
            (data / "manifest.json").unlink()
        else:
            manifest = json.loads((data / "manifest.json").read_text())
            _GRID_EDITS[corruption](manifest)
            (data / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error:")


_CHECKPOINT_RECORDS = {
    "checkpoint": CHECKPOINT_FIELDS,
    "model": MODEL_FIELDS,
    "structure": STRUCTURE_FIELDS,
    "optimizer": OPTIMIZER_FIELDS,
}


@pytest.mark.parametrize(
    "record, key", [(name, key) for name, table in _CHECKPOINT_RECORDS.items() for key in table]
)
def test_checkpoint_without_any_one_field_exits_2(record, key, checkpoint, tmp_path, capsys):
    def drop(manifest):
        del (manifest if record == "checkpoint" else manifest[record])[key]

    ckpt = tmp_path / "m.ckpt"
    _edit_checkpoint_manifest(checkpoint, ckpt, drop)
    with pytest.raises(FormatError, match=re.escape(f"{record} is missing ['{key}']")):
        load_checkpoint(ckpt)
    args = ["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "heat")]
    assert cli_dispatch(args) == 2
    assert capsys.readouterr().err.startswith("data error: bad checkpoint")
    assert not (tmp_path / "heat.csv").exists()


@pytest.mark.parametrize("flag", ["--noise", "--background"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_data_rejects_a_non_finite_sd(flag, value, tmp_path, capsys):
    # such a grid holds non-finite values, which every later command refuses
    name = {"--noise": "noise_sd", "--background": "background_sd"}[flag]
    out = tmp_path / "grid"
    assert cli_dispatch(["synth-data", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {name} must be finite and >= 0, got {value}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_lat", "1e999"),  # JSON reads it as inf, which no int holds
        ("n_time", "1e999"),
        ("n_lat", "6.9"),  # int() would read it as the grid's 6 rows
        ("lat0", "1" + "0" * 400),  # an int past any float, which float() overflows on
        ("mask_file", '"mask.bin\\u0000"'),  # a NUL, which no file name holds
        ("data_file", '"data\\u0000.bin"'),
        ("mask_file", '"/dev/null"'),  # a path, not a file name in the container
        ("mask_file", '"../grid/mask.bin"'),  # a path that leaves the container and comes back
    ],
)
def test_malformed_grid_manifest_exits_2(field, value, synth_dir, small_config, tmp_path, capsys):
    data = tmp_path / "grid"
    shutil.copytree(synth_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[field] = "@"
    (data / "manifest.json").write_text(json.dumps(manifest).replace('"@"', value))
    args = ["train", "--config", str(small_config), "--data", str(data)]
    assert cli_dispatch([*args, "--out", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "m.ckpt").exists()


def test_checkpoint_shape_past_any_int_exits_2(checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "huge.ckpt"
    # 1e999 is inf; JSON carries it as Infinity, which reads back as inf
    _edit_checkpoint_manifest(checkpoint, ckpt, lambda m: m["tensors"][0].update(shape=[1e999, 4]))
    args = ["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "heat")]
    assert cli_dispatch(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: bad checkpoint") and "checkpoint.tensors[0].shape" in err
    assert "Error" not in err  # the reader names the field, not an exception class
    assert not (tmp_path / "heat.csv").exists()


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("name", ["structure.static_features", "structure.w_from"])
def test_checkpoint_matrix_of_another_rank_exits_2_naming_it(name, rank, checkpoint, tmp_path,
                                                             capsys):
    # as many values as the saved matrix, so the blob still parses
    def reshape(manifest):
        (entry,) = [t for t in manifest["tensors"] if t["name"] == name]
        rows, cols = entry["shape"]
        entry["shape"] = [rows * cols] if rank == 1 else [1, rows, cols]

    ckpt = tmp_path / "m.ckpt"
    _edit_checkpoint_manifest(checkpoint, ckpt, reshape)
    args = ["centrality", "--checkpoint", str(ckpt), "--out", str(tmp_path / "heat")]
    assert cli_dispatch(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: bad checkpoint {ckpt}: ") and repr(name) in err
    assert "Error" not in err
    assert not (tmp_path / "heat.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("layer_dims", [10**12, 6]), ("layer_dims", [10**7, 6]), ("mlp_hidden", 10**12)]
)
def test_checkpoint_declaring_huge_widths_exits_2(key, value, checkpoint, synth_dir, tmp_path):
    # refused before the model is allocated: 10**7 wide would take gigabytes
    ckpt = tmp_path / "huge.ckpt"
    _edit_checkpoint_manifest(checkpoint, ckpt, lambda m: m["model"].update({key: value}))
    proc = _run_cli(["evaluate", "--checkpoint", str(ckpt), "--data", str(synth_dir)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error: model needs") and "Traceback" not in proc.stderr


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


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """Every file the CLI writes on one small seeded run, by name."""
    d = tmp_path_factory.mktemp("pinned")
    grid, ckpt = d / "grid", d / "m.ckpt"
    train = {"epochs": 2, "embed_dim": 4, "batch_size": 8}
    config = _write_config(d / "c.json", {"model": {"layer_dims": [6, 6]}, "train": train})
    runs = [
        ["synth-data", "--out", str(grid), "--lat", "5", "--lon", "5", "--months", "48",
         "--seed", "21"],
        ["train", "--config", config, "--data", str(grid), "--seed", "4", "--out", str(ckpt)],
        ["evaluate", "--checkpoint", str(ckpt), "--data", str(grid), "--out", str(d / "eval")],
        ["predict", "--checkpoint", str(ckpt), "--data", str(grid), "--out", str(d / "p.csv")],
        ["centrality", "--checkpoint", str(ckpt), "--out", str(d / "heat")],
        ["ablation", "--config", config, "--data", str(grid), "--seeds", "2",
         "--out", str(d / "ablation.csv")],
    ]
    for argv in runs:
        assert cli_dispatch(argv) == 0, argv
    return {p.relative_to(d).as_posix(): p for p in d.rglob("*") if p.is_file()}


# SHA-1 of each file; any change to a written format or a seeded result shows here
PINNED_OUTPUTS = {
    "grid/manifest.json": "52756735e8d698b80fd2cac3293a4b206b8264be",
    "grid/mask.bin": "3b575420ceea4203152041be00dc80519d1532b5",
    "grid/data.bin": "9b6df40af3515bb13d1f165a86052f87eccac4e4",
    "grid/synth_spec.json": "73a45a6612be36f9311d46b0a123cc66ee15ccbf",
    "m.ckpt": "bd8d4705b5f4746ef414a7e45363cce4060160b7",  # format 5; the blob of format 2
    "m.ckpt.loss.csv": "8d87da324e6f462c315487348d57de5728ddec77",
    "eval.report.csv": "713670596da8eac1a05cd22417c9de68191e4466",
    "eval.predictions.csv": "948ea49c09b19c3b33cc56542fbe2eaa4a4fbb41",
    "eval.series.svg": "b490f2bfe2f17e92f462bee0e2d20d1bb59833d4",
    "p.csv": "cfc4a0fe971243e8e43c66a77d8d08c82a5520bd",
    "heat.csv": "7691b41cfbc4b2fa8abd3572db2b58cbb56319f7",
    "heat.svg": "93fa589b0c84a5d1cf671a70cad634143b3b073a",
    "ablation.csv": "f4e02436057ad7f2ad08e5c3e224dc8029c11dcd",
}


def test_cli_writes_exactly_the_pinned_files(pinned_run):
    assert sorted(pinned_run) == sorted([*PINNED_OUTPUTS, "c.json"])


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_cli_output_bytes_are_pinned(pinned_run, name):
    assert hashlib.sha1(pinned_run[name].read_bytes()).hexdigest() == PINNED_OUTPUTS[name]
