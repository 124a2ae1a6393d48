import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onigraph
from onigraph.cli import cli_dispatch
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


def test_cross_process_evaluation_is_identical(checkpoint, synth_dir, tmp_path):
    def run(tag):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "onigraph", "evaluate",
                "--checkpoint", str(checkpoint),
                "--data", str(synth_dir),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
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
