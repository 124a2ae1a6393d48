"""Prediction in sample blocks: each member is folded once and its graph
built once, the graph layers run over blocks of whole samples within
``PREDICT_BLOCK_ROWS`` stacked rows, and the MLP head once over every pooled
row, with the bits of one pass of the folded copy over all samples."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from onigraph import training
from onigraph.autodiff import Tape, Tensor
from onigraph.errors import NumericError
from onigraph.data import SampleSet, prepare_dataset, synth_teleconnection_dataset
from onigraph.model import GcnConfig, folded, init_params, mlp_head, model_edges, pooled_layers
from onigraph.training import TrainConfig, build_model, predict_samples, train
from test_training import float64_bundle, off_diagonal


def trained_members(edge_modes):
    """One member per edge mode on a 6x6 grid plus the ONI node (N=37, dense
    kernels), trained for two epochs so that the running statistics moved."""
    grid, _ = synth_teleconnection_dataset(6, 6, 120, 1, seed=889)
    bundle = prepare_dataset(grid, window=3, lead=1, train_fraction=0.75)
    members = []
    for k, mode in enumerate(edge_modes):
        cfg = TrainConfig(seed=890 + k, epochs=2, batch_size=16, embed_dim=4)
        state = build_model(bundle, GcnConfig(layer_dims=[8, 4]), cfg, edge_mode=mode)
        train(state, bundle.train, cfg)
        members.append(state)
    return bundle, members


@pytest.mark.parametrize("edge_modes", [("learned",), ("local",), ("learned", "local")])
def test_predictions_have_the_bits_of_one_pass_whatever_the_block_size(edge_modes, monkeypatch):
    bundle, members = trained_members(edge_modes)
    samples = bundle.test
    n = members[0].node_count
    x = Tensor(samples.inputs.reshape(-1, samples.inputs.shape[2]))
    want = np.zeros(len(samples), np.float32)  # the members' dtype
    for member in members:
        copy = folded(member)
        want += mlp_head(copy, pooled_layers(copy, x, model_edges(member))).data
    want = (want / len(members)).tobytes()
    assert len(samples) % 4 != 0  # blocks of 4 samples leave a shorter last one
    for per_block in (1, 4, len(samples)):
        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", per_block * n)
        got = predict_samples(members if len(members) > 1 else members[0], samples)
        assert got.tobytes() == want, per_block


def test_a_one_sample_block_of_the_window_view_has_the_bits_of_a_batch(monkeypatch):
    # a one-sample block reshapes to a strided view of the node series, not
    # a copy; a batch over a contiguous copy of the windows is the reference
    bundle, members = trained_members(("learned", "local"))
    samples = bundle.test
    want = predict_samples(members, replace(samples, inputs=samples.inputs.copy()))
    rows = []
    pooled_layers = training.pooled_layers

    def spy(member, x, *args, **kwargs):
        rows.append(x.data)
        return pooled_layers(member, x, *args, **kwargs)

    monkeypatch.setattr(training, "pooled_layers", spy)
    monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", members[0].node_count)
    got = predict_samples(members, samples)
    assert len(rows) == 2 * len(samples)
    assert all(np.shares_memory(x, samples.inputs) for x in rows)
    assert got.tobytes() == want.tobytes()


def test_each_member_graph_is_built_once_per_call(monkeypatch):
    bundle, members = trained_members(("learned", "local"))
    calls = {"model_edges": 0, "pooled_layers": 0}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(training, "model_edges")
    spy(training, "pooled_layers")
    monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", members[0].node_count)  # one sample
    predict_samples(members, bundle.test)
    assert calls == {"model_edges": 2, "pooled_layers": 2 * len(bundle.test)}


def test_each_member_is_folded_once_per_call(monkeypatch):
    bundle, members = trained_members(("learned", "local"))
    seen = []
    original = training.folded

    def counted(member):
        seen.append(member)
        return original(member)

    monkeypatch.setattr(training, "folded", counted)
    monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", members[0].node_count)  # one sample
    want = predict_samples(members, bundle.test)
    assert [id(m) for m in seen] == [id(m) for m in members]
    got = predict_samples(members, bundle.test)
    assert [id(m) for m in seen] == [id(m) for m in members] * 2
    assert got.tobytes() == want.tobytes()


def test_prediction_leaves_every_parameter_and_running_statistic():
    bundle, members = trained_members(("learned", "local"))

    def snapshot():
        return [
            (name, array.tobytes())
            for member in members
            for name, array in [*((n, t.data) for n, t in member.parameters()), *member.buffers()]
        ]

    before = snapshot()
    predict_samples(members, bundle.test)
    assert snapshot() == before


@pytest.mark.parametrize("value", [-math.inf, math.nan], ids=["-inf", "nan"])
@pytest.mark.parametrize("where", ["weight", "gamma", "input"])
def test_a_planted_non_finite_value_makes_prediction_raise(where, value):
    # the folded weight carries it to a pre-activation, which is checked
    # before the ELU could map -inf to -1; nothing warns on the way
    bundle, (state,) = trained_members(("learned",))
    samples = replace(bundle.test, inputs=bundle.test.inputs.copy())
    if where == "weight":
        state.gcn_weights[1].data[0, 0] = value
    elif where == "gamma":
        state.gcn_norms[0].gamma.data[1] = value
    else:
        samples.inputs[2, 3, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            predict_samples(state, samples)


def test_prediction_under_an_open_tape_raises():
    # evaluation records nothing, so a gradient asked of it would be lost
    bundle, members = trained_members(("local",))
    with Tape() as tape, pytest.raises(RuntimeError, match="no gradient"):
        predict_samples(members, bundle.test)
    assert tape.entries == []


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_prediction_memory_at_full_grid_size_is_set_by_the_block_not_the_windows(edge_mode):
    # N=1345 as on the 32x42 grid plus the ONI node, widths 32/16
    n, widths = 1345, [32, 16]
    rng = np.random.default_rng(6)
    ring = off_diagonal(np.eye(n) + np.roll(np.eye(n), 1, axis=1)) if edge_mode == "local" else None
    state = init_params(
        GcnConfig(layer_dims=widths),
        rng.normal(size=(n, 6)),
        np.zeros((n, 2)),
        seed=6,
        embed_dim=32,
        max_edges=None,
        local_edges=ring,
    )

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def sample_set(k):
        return SampleSet(
            inputs=rng.normal(size=(k, n, 6)),
            targets=rng.normal(size=k),
            window_end=np.arange(k),
            end_calendar_month=np.arange(k) % 12 + 1,
            window=3,
            lead=1,
        )

    graph = traced_peak(lambda: model_edges(state))
    few, many = sample_set(12), sample_set(48)  # 2 and 8 blocks of 6 samples
    peaks = [traced_peak(lambda: predict_samples(state, s)) for s in (few, many)]
    # a block holds at most three (rows, width) arrays at once
    block = 3 * training.PREDICT_BLOCK_ROWS * max(widths) * 8
    assert max(peaks) < graph + block
    assert peaks[1] - peaks[0] < training.PREDICT_BLOCK_ROWS * 8


@pytest.mark.parametrize(
    "edge_mode, max_edges, sha1",
    [
        ("learned", None, "232511138b192a0a6153a457fd356578d5b1eaba"),  # CSR kernels
        ("learned", 2000, "5420f5fa945a6b20ce1b397e0e20057e09d56adf"),  # dense kernels
        ("local", None, "b9e80cf0cda14125a75223edffdc9aae5e82f1de"),
    ],
    ids=["learned_csr", "learned_dense", "local"],
)
def test_prediction_bits_over_several_blocks_are_pinned(edge_mode, max_edges, sha1):
    # on float64 inputs, the gradient checks' dtype
    assert several_block_digest(float64_bundle, edge_mode, max_edges) == sha1


@pytest.mark.parametrize(
    "edge_mode, max_edges, sha1",
    [
        ("learned", None, "e968506c176cfc5252217adc345b74c125d16719"),
        ("learned", 2000, "505ad0f0742d4037994df08380662de61e917562"),
        ("local", None, "bb4ef71cbc48a2fcbb8198aef133d164235fd3b0"),
    ],
    ids=["learned_csr", "learned_dense", "local"],
)
def test_float32_prediction_bits_over_several_blocks_are_pinned(edge_mode, max_edges, sha1):
    # the same predictions on the float32 inputs of prepare_dataset, as shipped
    assert several_block_digest(prepare_dataset, edge_mode, max_edges) == sha1


def several_block_digest(prepare, edge_mode, max_edges) -> str:
    """The SHA-1 of the predictions of a briefly trained model over the 177
    training windows of a 12x12 grid plus the ONI node (N=145), in blocks,
    on the bundle that ``prepare`` makes of it."""
    grid, _ = synth_teleconnection_dataset(12, 12, 240, 1, seed=877)
    bundle = prepare(grid, window=3, lead=1, train_fraction=0.75)
    cfg = TrainConfig(seed=883, epochs=2, batch_size=16, embed_dim=4, max_edges=max_edges)
    state = build_model(bundle, GcnConfig(layer_dims=[8, 4]), cfg, edge_mode=edge_mode)
    train(state, bundle.train, cfg)
    per_block = training.PREDICT_BLOCK_ROWS // state.node_count
    assert len(bundle.train) > 2 * per_block  # at least three blocks
    assert model_edges(state)[0].sparse == (max_edges is None)
    return hashlib.sha1(predict_samples(state, bundle.train).tobytes()).hexdigest()
