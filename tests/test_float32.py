"""The shipped path computes in float32 end to end: ``prepare_dataset``'s
inputs, every op output and every gradient a backward rule returns, the
workspace buffers, the running statistics and velocities of a training
step, evaluation-mode predictions and a reloaded checkpoint's tensors. The
gradient checks build float64 tensors and stay in float64."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import onigraph
from onigraph import autodiff
from onigraph.autodiff import (
    EdgeIndex,
    RunningStats,
    Tensor,
    Workspace,
    add,
    add_row_bias,
    batchnorm_features,
    edge_block_matmul,
    matmul,
    mse_loss,
    pool_blocks,
)
from onigraph.cli import cli_dispatch
from onigraph.data import build_static_features, prepare_dataset, synth_teleconnection_dataset
from onigraph.model import GcnConfig
from onigraph.training import (
    TrainConfig,
    build_model,
    load_checkpoint,
    predict_samples,
    save_checkpoint,
    train,
)


def recording_functions() -> set[str]:
    """The package's functions that call ``record_op``, found by AST, so that
    a new op cannot escape the dtype checks below."""
    names = set()
    for path in Path(onigraph.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and "record_op" in ast.unparse(call.func)
                for call in ast.walk(node)
            ):
                names.add(node.name)
    return names


class DtypeLog:
    """Wraps ``autodiff.record_op``: notes, by recording function, the dtype
    of every op output and of every array its backward rule returns, and
    the dtypes of the active workspace's buffers whenever a rule runs."""

    def __init__(self, monkeypatch):
        self.outputs: dict[str, set] = {}
        self.gradients: dict[str, set] = {}
        self.buffers: set = set()
        record_op = autodiff.record_op

        def logged(output, inputs, rule):
            op = sys._getframe(1).f_code.co_name
            self.outputs.setdefault(op, set()).add(output.data.dtype)

            def logged_rule(g):
                grads = rule(g)
                self.gradients.setdefault(op, set()).update(
                    d.dtype for d in grads if d is not None
                )
                workspace = Workspace.active()
                if workspace is not None:
                    self.buffers |= set(workspace.buffers)
                    self.buffers |= {b.dtype for bufs in workspace.buffers.values() for b in bufs}
                return grads

            return record_op(output, inputs, logged_rule)

        monkeypatch.setattr(autodiff, "record_op", logged)


@pytest.fixture(scope="module")
def bundle():
    grid, _ = synth_teleconnection_dataset(6, 6, 60, 1, seed=29501)
    return grid, prepare_dataset(grid, window=3, lead=1, train_fraction=0.75)


def test_prepare_dataset_hands_over_float32_rounded_once(bundle):
    grid, data = bundle
    assert data.train.inputs.dtype == data.test.inputs.dtype == np.float32
    assert data.train.targets.dtype == data.test.targets.dtype == np.float32
    months = np.arange(int(data.train.window_end.max()) + 1)
    static = build_static_features(grid, data.nodes, months)
    assert static.dtype == np.float64
    assert data.static_features.tobytes() == static.astype(np.float32).tobytes()


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_a_training_step_and_a_prediction_are_float32_throughout(
    bundle, edge_mode, monkeypatch, tmp_path
):
    _, data = bundle
    log = DtypeLog(monkeypatch)
    # equal widths, so that the residual add runs too; one batch, one step
    cfg = TrainConfig(seed=29502, epochs=1, batch_size=len(data.train), embed_dim=4)
    state = build_model(data, GcnConfig(layer_dims=[8, 8]), cfg, edge_mode=edge_mode)
    _, history = train(state, data.train, cfg)
    assert len(history) == 1
    predictions = predict_samples(state, data.test)

    ops = recording_functions()
    if edge_mode == "local":
        ops.discard("kept_edges")  # the structure learner scores no edges
    f32 = {np.dtype(np.float32)}
    assert log.outputs.keys() == ops and log.gradients.keys() == ops
    assert all(dtypes == f32 for dtypes in log.outputs.values()), log.outputs
    assert all(dtypes == f32 for dtypes in log.gradients.values()), log.gradients
    assert log.buffers == f32
    assert predictions.dtype == np.float32
    for norm in state.gcn_norms + [state.mlp_norm]:
        assert norm.running.mean.dtype == norm.running.var.dtype == np.float32
    for name, t in state.parameters():
        assert t.data.dtype == t.grad.dtype == state.optimizer.velocity[name].dtype == np.float32

    path = tmp_path / "m.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    tensors = [t for _, t in loaded.parameters()] + [loaded.structure.static_features]
    if loaded.local_edges is not None:
        tensors.append(loaded.local_edges[1])
    arrays = [t.data for t in tensors] + list(loaded.optimizer.velocity.values())
    for norm in loaded.gcn_norms + [loaded.mlp_norm]:
        arrays += [norm.running.mean, norm.running.var]
    assert {a.dtype for a in arrays} == f32
    assert predict_samples(loaded, data.test).tobytes() == predictions.tobytes()


def _f(*shape):
    return Tensor(np.ones(shape, np.float32))


def _d(*shape):
    return Tensor(np.ones(shape))


# one float32 and one float64 operand of each op with two or more
MIXED = {
    "matmul": lambda: matmul(_f(2, 3), _d(3, 2)),
    "add": lambda: add(_d(2, 3), _f(2, 3)),
    "add_row_bias": lambda: add_row_bias(_f(2, 3), _d(3)),
    "mse_loss": lambda: mse_loss(_f(4), _d(4)),
    "edge_block_matmul": lambda: edge_block_matmul(
        _d(2), EdgeIndex.from_flat(2, np.arange(4)), _f(4, 3)
    ),
    "batchnorm_features": lambda: batchnorm_features(
        _f(4, 3), _f(3), _f(3), RunningStats.initial(3, np.float64)
    ),
    "pool_blocks": lambda: pool_blocks([_f(4, 2), _d(4, 3)], 2, "mean"),
}


@pytest.mark.parametrize("op", sorted(MIXED))
def test_an_op_given_float32_and_float64_operands_raises(op):
    with pytest.raises(TypeError, match="mix dtypes"):
        MIXED[op]()


def test_the_gradient_check_command_runs_in_float64(monkeypatch, capsys):
    log = DtypeLog(monkeypatch)
    assert cli_dispatch(["gradcheck", "--seed", "3"]) == 0
    assert "(tolerance 0.0001)" in capsys.readouterr().out
    f64 = {np.dtype(np.float64)}
    assert log.outputs and all(dtypes == f64 for dtypes in log.outputs.values())
    assert log.gradients and all(dtypes == f64 for dtypes in log.gradients.values())
