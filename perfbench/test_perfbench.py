"""Toy-size self-test of the benchmark: a 4x4 grid and two optimizer steps
per workload, through the same phases, checks and metric formatting as a
real run. A measuring window of 0 s runs the minimum number of rounds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from onigraph.errors import ConvergenceError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name: str) -> workloads.Workload:
    return replace(
        workloads.WORKLOADS[name],
        n_lat=4,
        n_lon=4,
        layer_dims=(8, 4),
        batch_size=8,
        epochs=1,
        train_samples=16,
    )


def run_toy(name, tmp_path, seed=0, trace=False):
    result, info = workloads.run_workload(toy(name), seed, 0.0, trace, tmp_path)
    return run.with_units(result, SPEC["per_layer" if trace else "end_to_end"]), info


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, info = run_toy(name, tmp_path, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], info["failures"]
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    # each step and each eval and adjacency repetition adds checks
    rounds = workloads.MIN_REPS * (1 + workloads.ADJACENCY_REPS)
    assert result["attempted"] >= info["steps_per_episode"] + rounds
    assert not list(tmp_path.glob("*.ckpt")), "checkpoints are removed after eval"


def test_failed_check_is_counted(tmp_path, monkeypatch):
    load = workloads.training.load_checkpoint

    def load_perturbed(path):
        state = load(path)
        state.mlp_b2.data = state.mlp_b2.data + 1e-3
        return state

    monkeypatch.setattr(workloads.training, "load_checkpoint", load_perturbed)
    result, info = run_toy("wide_graph_train", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= workloads.MIN_REPS
    assert "reloaded learned checkpoint predicts bit-identically" in info["failures"]


def test_centrality_runs_on_desk_ablation_only(tmp_path):
    desk, info = run_toy("desk_ablation", tmp_path, trace=True)
    assert desk["metrics"]["centrality.iterations"]["value"] == info["centrality_iterations"] > 0
    assert 0 < desk["metrics"]["centrality.residual"]["value"] < workloads.CENTRALITY_RESIDUAL_TOL
    assert 1 <= info["driver_rank"] <= info["nodes"]
    wide, info = run_toy("wide_graph_train", tmp_path, trace=True)
    assert wide["metrics"]["centrality.iterations"]["value"] == 0
    assert "driver_rank" not in info


def test_centrality_failure_is_counted(tmp_path, monkeypatch):
    def fail(adjacency):
        raise ConvergenceError("did not converge")

    monkeypatch.setattr(workloads.centrality, "eigenvector_centrality", fail)
    result, info = run_toy("desk_ablation", tmp_path)
    assert not result["correct"]
    assert info["failures"].count("centrality converges") == workloads.MIN_REPS


def test_measuring_window_runs_more_rounds():
    calls = []
    workloads._repeat(lambda: calls.append(time.sleep(0.002)), 0.1)
    assert len(calls) > workloads.MIN_REPS


def test_same_seed_repeats_and_other_seed_changes_data(tmp_path):
    _, a = run_toy("desk_ablation", tmp_path, seed=3)
    _, b = run_toy("desk_ablation", tmp_path, seed=3)
    _, c = run_toy("desk_ablation", tmp_path, seed=4)
    for key in ("data_sha1", "loss_sha1", "final_train_loss", "test_r", "test_r_gap", "driver_rank"):
        assert a[key] == b[key], key
    assert a["data_sha1"] != c["data_sha1"]
    assert a["loss_sha1"] != c["loss_sha1"]


def test_tracer_restores_every_patched_name(tmp_path):
    import onigraph.structure
    import onigraph.training

    before = (onigraph.training.forward_batch, onigraph.structure.matmul)
    run_toy("wide_graph_train", tmp_path, trace=True)
    assert (onigraph.training.forward_batch, onigraph.structure.matmul) == before


def _run_script(cwd: Path, *flags: str):
    cmd = [sys.executable, *flags, "perfbench/run.py", "--workload", "desk_ablation",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_script(tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_refuses_optimized_interpreter():
    done = _run_script(ROOT, "-O")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
