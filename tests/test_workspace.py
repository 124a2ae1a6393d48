"""The training workspace: buffers reused across steps, never while held,
with the bits of fresh arrays, and only for the length of ``train``."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from onigraph import model, training
from onigraph.autodiff import (
    RunningStats,
    Tape,
    Tensor,
    Workspace,
    add,
    backward,
    batchnorm_features,
    flatten,
    matmul,
    mse_loss,
)
from onigraph.data import prepare_dataset, synth_teleconnection_dataset
from onigraph.errors import NumericError
from onigraph.model import GcnConfig, forward_batch
from onigraph.training import TrainConfig, build_model, model_config_from_preset, train


def desk_setup(edge_mode="learned", epochs=2):
    """The desk ablation's shape: an 8x8 grid plus the ONI node (N=65),
    widths 32/16, batch 64 with a smaller trailing batch."""
    grid, _ = synth_teleconnection_dataset(8, 8, 240, 2, seed=23, noise_sd=0.1, background_sd=1.0)
    bundle = prepare_dataset(grid, window=3, lead=2, train_fraction=0.8)
    cfg = TrainConfig(batch_size=64, epochs=epochs, seed=29, lead_months=2, window=3)
    model_cfg = model_config_from_preset("gcn2a", window=3, lead_months=2, layer_dims=[32, 16])
    return bundle, cfg, build_model(bundle, model_cfg, cfg, edge_mode=edge_mode)


def test_take_reuses_only_free_buffers_by_size():
    f32 = np.dtype(np.float32)
    with Workspace() as ws:
        a = ws.take((4, 8), f32)
        b = ws.take((4, 8), f32)  # a is held: a second buffer
        assert ws.misses == 2 and not np.shares_memory(a, b)
        del a
        c = ws.take((3, 8), f32)  # a smaller shape fits the freed buffer
        assert ws.misses == 2 and c.shape == (3, 8) and np.shares_memory(c, ws.buffers[f32][0])
        view = b.T
        del b
        d = ws.take((4, 8), f32)  # b's buffer is still viewed
        assert ws.misses == 3 and not np.shares_memory(d, view)
        del d
        e = ws.take((1, 8), f32)  # a free buffer twice the size or more stays free
        assert ws.misses == 4 and e.base.size == 8
        del c
        wide = ws.take((3, 8), np.float64)  # a free float32 buffer is not of its dtype
        assert ws.misses == 5 and wide.dtype == np.float64
        assert not any(np.shares_memory(wide, buf) for buf in ws.buffers[f32])
        assert all(buf.dtype == dtype for dtype, bufs in ws.buffers.items() for buf in bufs)
        with pytest.raises(RuntimeError, match="already active"):
            with Workspace():
                pass
        assert Workspace.active() is ws
    assert Workspace.active() is None and ws.buffers == {}


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_desk_training_takes_new_buffers_only_in_the_first_step_of_each_batch_size(
    edge_mode, monkeypatch
):
    bundle, cfg, state = desk_setup(edge_mode)
    # (batch size, the workspace, its misses, traced bytes and their peak since
    # the step before), at the start of each step
    steps = []

    def counted(state, x, **kwargs):
        ws = Workspace.active()
        batch = x.shape[0] // state.node_count
        steps.append((batch, ws, ws.misses, *tracemalloc.get_traced_memory()))
        tracemalloc.reset_peak()
        return forward_batch(state, x, **kwargs)

    monkeypatch.setattr(training, "forward_batch", counted)
    tracemalloc.start()
    try:
        train(state, bundle.train, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [step[0] for step in steps]
    ws = steps[0][1]
    assert all(step[1] is ws for step in steps)
    assert sizes[:3] == [64, 64, len(bundle.train) - 128]  # a smaller trailing batch
    misses = np.diff([step[2] for step in steps] + [ws.misses])
    first = {sizes.index(b) for b in set(sizes)}
    assert misses[0] > 0
    assert [k for k, m in enumerate(misses) if m and k not in first] == []
    # arrays taken from numpy outside the workspace are no misses: past the
    # first step of its size, no step holds new arrays as large as one
    # (batch * N, 16) layer output (the next batch's inputs are 6 wide)
    fresh = np.subtract([step[4] for step in steps[1:]] + [peak], [step[3] for step in steps])
    itemsize = state.mlp_w1.data.itemsize
    layer_output = cfg.batch_size * state.node_count * min(state.config.layer_dims) * itemsize
    assert [k for k, b in enumerate(fresh) if b >= layer_output and k not in first] == []


def test_arrays_that_escape_a_step_keep_their_values(monkeypatch):
    held = []  # every step's layer outputs and prediction, with copies of their values

    def holding(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            held.append((out, out.data.copy()))
            return out

        return wrapper

    def run(workspace):
        bundle, cfg, state = desk_setup()
        with monkeypatch.context() as m:
            m.setattr(model, "gcn_layer", holding(model.gcn_layer))
            m.setattr(training, "forward_batch", holding(forward_batch))
            if not workspace:
                m.setattr(training, "Workspace", nullcontext)
            _, history = train(state, bundle.train, cfg)
        return state, history

    state, history = run(workspace=True)
    assert len(held) > 10
    for tensor, values in held:
        assert tensor.data.tobytes() == values.tobytes()
    plain_state, plain_history = run(workspace=False)
    assert history == plain_history
    norms = [(n.running, p.running) for n, p in zip(state.gcn_norms, plain_state.gcn_norms)]
    for running, plain in norms + [(state.mlp_norm.running, plain_state.mlp_norm.running)]:
        assert running.mean.tobytes() == plain.mean.tobytes()
        assert running.var.tobytes() == plain.var.tobytes()


def test_no_workspace_is_active_after_train_returns_or_raises():
    bundle, cfg, state = desk_setup(epochs=1)
    errors = np.geterr()
    train(state, bundle.train, cfg)
    assert Workspace.active() is None
    diverging = TrainConfig(batch_size=64, epochs=10, seed=29, lead_months=2, learning_rate=1e3)
    bundle, _, state = desk_setup()
    with pytest.raises(NumericError):
        train(state, bundle.train, diverging)
    assert Workspace.active() is None
    assert np.geterr() == errors


def test_gradients_match_with_and_without_a_workspace():
    # equal widths add every layer's input back (the rule of ``add`` hands one
    # gradient array to both inputs), and jumping knowledge reads every layer
    grid, _ = synth_teleconnection_dataset(4, 4, 44, 1, seed=23)
    bundle = prepare_dataset(grid, window=3, lead=1, train_fraction=1.0)
    cfg = GcnConfig(layer_dims=[8, 8, 8], pooling="sum_and_mean")
    state = build_model(bundle, cfg, TrainConfig(seed=29, embed_dim=4))
    ids = np.arange(12)
    x = Tensor(bundle.train.inputs[ids].reshape(-1, bundle.train.inputs.shape[2]))
    y = Tensor(bundle.train.targets[ids])

    def gradients():
        running = [(n.running.mean.copy(), n.running.var.copy()) for n in state.gcn_norms]
        with Tape():
            backward(mse_loss(forward_batch(state, x), y))
        for n, (mean, var) in zip(state.gcn_norms, running):
            n.running.mean[...], n.running.var[...] = mean, var
        grads = {name: t.grad.tobytes() for name, t in state.parameters()}
        for _, t in state.parameters():
            t.zero_grad()
        return grads

    plain = gradients()
    with Workspace() as ws:
        reused = [gradients(), gradients()]  # fresh buffers, then reused ones
        assert ws.misses > 0
    assert reused[0] == plain and reused[1] == plain


@pytest.mark.parametrize("workspace", [False, True])
def test_a_gradient_handed_to_two_inputs_is_copied_before_a_second_write(workspace):
    # s = (a + b) + e with e = a @ w3: the rules of both adds hand one array
    # to both inputs, and a takes its second gradient (through e) before b
    # has read the one it shares with a
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(4, 3)))
    w1, w2, w3 = (Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(3))
    target = rng.normal(size=12)
    with Workspace() if workspace else nullcontext(), Tape():
        a = matmul(x, w1)
        b = matmul(x, w2)
        e = matmul(a, w3)
        s = add(add(a, b), e)
        backward(mse_loss(flatten(s), Tensor(target)))
    g = (2.0 / 12) * (s.data.ravel() - target).reshape(4, 3)
    np.testing.assert_allclose(w2.grad, x.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(w3.grad, a.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(w1.grad, x.data.T @ (g + g @ w3.data.T), rtol=1e-12)


def test_a_train_mode_batchnorm_backward_takes_one_workspace_buffer(monkeypatch):
    # the ELU gradient's; the last product of the batchnorm backward goes
    # into the buffer of the centered input, which nothing reads after it
    rng = np.random.default_rng(27311)
    z = Tensor(rng.normal(size=(40, 8)), requires_grad=True)
    gamma, beta = (Tensor(rng.normal(size=8), requires_grad=True) for _ in range(2))
    takes = []
    take = Workspace.take

    def counted(self, shape, dtype):
        takes.append(shape)
        return take(self, shape, dtype)

    monkeypatch.setattr(Workspace, "take", counted)
    with Workspace(), Tape() as tape:
        running = RunningStats.initial(8, np.float64)
        out = batchnorm_features(z, gamma, beta, running)
        takes.clear()
        grads = tape.entries[-1].rule(rng.normal(size=out.shape))
    assert takes == [(40, 8)]
    assert [g.shape for g in grads] == [(40, 8), (8,), (8,)]
