import hashlib
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import asdict, fields, replace

from onigraph.autodiff import EdgeIndex, Sgd, Tape, Tensor, backward, mse_loss
from onigraph.data import (
    build_static_features,
    compute_oni_series,
    prepare_dataset,
    regional_means,
    synth_teleconnection_dataset,
)
from onigraph.errors import ConfigError, DataError, FormatError, NumericError
from onigraph.model import GcnConfig, forward_batch, init_params, model_adjacency, model_edges
from onigraph import training
from onigraph.structure import StructureParams, kept_edges
from onigraph.training import (
    EvalReport,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    model_config_from_preset,
    pearson_r,
    predict_samples,
    save_checkpoint,
    train,
    write_history_csv,
    write_predictions_csv,
    write_report_csv,
)


def tiny_setup(seed=0, lead=1, months=70, grid=(4, 4), dims=(16, 8), train_fraction=1.0):
    gridset, _ = synth_teleconnection_dataset(grid[0], grid[1], months, lead, seed=seed)
    bundle = prepare_dataset(gridset, window=3, lead=lead, train_fraction=train_fraction)
    cfg = TrainConfig(seed=seed, lead_months=lead, embed_dim=8)
    model_cfg = model_config_from_preset("gcn2a", lead_months=lead, layer_dims=list(dims))
    state = build_model(bundle, model_cfg, cfg)
    return bundle, cfg, model_cfg, state


def float64_bundle(grid, **options):
    """The bundle of ``prepare_dataset(grid, **options)`` in float64, with
    the bits the float64 computation gives before the rounding to float32:
    the grid rows of the inputs are exact in float32 (a synthetic grid is),
    the ONI node's rows, the targets and the static features are not."""
    bundle = prepare_dataset(grid, **options)
    oni, means = compute_oni_series(grid), regional_means(grid)

    def widen(samples):
        inputs = samples.inputs.astype(np.float64)
        if bundle.nodes.has_oni_node:
            months = samples.window_end[:, None] + np.arange(1 - samples.window, 1)
            inputs[:, -1] = means[months].reshape(inputs[:, -1].shape)
        return replace(samples, inputs=inputs, targets=oni[samples.window_end + samples.lead])

    months = np.arange(int(bundle.train.window_end.max()) + 1)
    static = build_static_features(grid, bundle.nodes, months)
    train, test = widen(bundle.train), widen(bundle.test)
    return replace(bundle, train=train, test=test, static_features=static)


def constant_output_model(value, seed=0):
    """Zero GCN weights in a layer that narrows its input, so without a
    residual, force the prediction to the final bias, giving a model with a
    known constant output."""
    bundle, cfg, _, _ = tiny_setup(seed=seed)
    model_cfg = GcnConfig(layer_dims=[4])
    state = build_model(bundle, model_cfg, cfg)
    for w in state.gcn_weights:
        w.data[...] = 0.0
    state.mlp_b2.data[...] = [value]
    return bundle, state


# --- training loop -------------------------------------------------------------


def zero_lr_losses(bundle, model_cfg):
    """The loss history of four epochs at learning rate 0, each one batch
    of every sample; the parameters must not move."""
    cfg = TrainConfig(learning_rate=0.0, momentum=0.0, epochs=4, batch_size=10_000, seed=1)
    state = build_model(bundle, model_cfg, cfg)
    before = {name: t.data.copy() for name, t in state.parameters()}
    _, history = train(state, bundle.train, cfg)
    for name, t in state.parameters():
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)
    return [h[2] for h in history]


def test_zero_lr_leaves_parameters_and_loss_flat():
    gridset, _ = synth_teleconnection_dataset(4, 4, 70, 1, seed=0)
    bundle = float64_bundle(gridset, window=3, lead=1, train_fraction=1.0)
    model_cfg = model_config_from_preset("gcn2a", lead_months=1, layer_dims=[16, 8])
    losses = zero_lr_losses(bundle, model_cfg)
    # reshuffling permutes the summation order, so equal only to rounding
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)


def test_zero_lr_leaves_parameters_and_loss_flat_in_float32():
    # the float64 bound above in float32 units: 1e-12 is 4,504 float64 ulps
    bundle, _, model_cfg, _ = tiny_setup()
    losses = zero_lr_losses(bundle, model_cfg)
    ulps = 1e-12 / np.finfo(np.float64).eps
    np.testing.assert_allclose(losses, losses[0], rtol=ulps * np.finfo(np.float32).eps)


def test_overfit_tiny_dataset():
    gridset, _ = synth_teleconnection_dataset(4, 4, 68, 1, seed=1)
    bundle = prepare_dataset(gridset, window=3, lead=1, train_fraction=1.0)
    assert len(bundle.train) == 64
    cfg = TrainConfig(seed=1, epochs=600, embed_dim=8)
    model_cfg = model_config_from_preset("gcn2a", lead_months=1, layer_dims=[16, 8])
    state = build_model(bundle, model_cfg, cfg)
    _, history = train(state, bundle.train, cfg)
    per_epoch = {}
    for epoch, _, value in history:
        per_epoch.setdefault(epoch, []).append(value)
    first = np.mean(per_epoch[0])
    last = np.mean(per_epoch[cfg.epochs - 1])
    assert last < 1e-2 * first


def test_structure_learner_moves_at_default_gain():
    # w_from / w_to take gradient, so training moves the learned edges and
    # their scores
    bundle, cfg, _, state = tiny_setup()
    structure = state.structure
    every = EdgeIndex.from_flat(state.node_count, np.arange(state.node_count**2))

    def snapshot():
        scores = every.dense(kept_edges(structure, every)[1].data)
        kept, _ = kept_edges(structure)
        return scores, set(zip(kept.rows.tolist(), kept.cols.tolist()))

    scores0, kept0 = snapshot()
    train(state, bundle.train, TrainConfig(seed=cfg.seed, embed_dim=cfg.embed_dim, epochs=10))
    scores1, kept1 = snapshot()
    off = ~np.eye(state.node_count, dtype=bool)
    assert kept0 != kept1
    assert np.abs(scores1 - scores0)[off].max() > 0.01


def test_fixed_seed_reproduces_history_and_weights():
    runs = []
    for _ in range(2):
        bundle, _, model_cfg, state = tiny_setup(seed=5)
        cfg = TrainConfig(seed=5, epochs=3, embed_dim=8)
        _, history = train(state, bundle.train, cfg)
        runs.append((history, {n: t.data.copy() for n, t in state.parameters()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name], err_msg=name)


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_every_parameter_gets_a_gradient_that_can_move_it(edge_mode):
    # a bias added right before a batch normalization is cancelled by its
    # mean subtraction, so its gradient is rounding alone (1e-17 against 1e-2)
    gridset, _ = synth_teleconnection_dataset(4, 4, 48, 1, seed=39961)
    bundle = float64_bundle(gridset, window=3, lead=1)
    cfg = TrainConfig(seed=39962, embed_dim=4)
    state = build_model(bundle, GcnConfig(layer_dims=[8, 8]), cfg, edge_mode)
    samples = bundle.train
    x = Tensor(samples.inputs[:8].reshape(-1, samples.inputs.shape[2]))
    with Tape():
        backward(mse_loss(forward_batch(state, x), Tensor(samples.targets[:8])))
    peaks = {name: float(np.abs(t.grad).max()) for name, t in state.parameters()}
    floor = 1e-8 * max(peaks.values())
    assert {name: peak for name, peak in peaks.items() if peak <= floor} == {}


# Each pin is two SHA-1s (see trained_digests): the training's, which the
# eval pass cannot move, and the test predictions'.
@pytest.mark.parametrize(
    "dims, pooling, edge_mode, sha1s",
    [
        # three equal widths, so every layer after the first adds its input back
        ((8, 8, 8), "sum_and_mean", "learned", ("7e6791401b3e1095ca4e1c64217aedc78e08eaa7",
                                                "7722b2928daba003e87f43e6656ecae8339b3cf9")),
        ((12, 6), "mean", "local", ("48cd2641ae011e338ed24b4b512d544e1f53ced0",
                                    "d27d5a8d7e56dc1419530088d052bcbb26260ac7")),
    ],
    ids=["residual", "local"],
)
def test_seeded_training_bits_are_pinned(dims, pooling, edge_mode, sha1s):
    # a refactor of the forward or backward pass must keep these bits: the
    # loss history, every trained parameter and the test predictions; on
    # float64 inputs, the gradient checks' dtype
    assert seeded_digests(float64_bundle, dims, pooling, edge_mode) == sha1s


@pytest.mark.parametrize(
    "dims, pooling, edge_mode, sha1s",
    [
        ((8, 8, 8), "sum_and_mean", "learned", ("ca777f525a03ac0d61fa4bdb8d30ccc729525dfb",
                                                "ca8f73c6fb3150eabf87ea92de5d49e0071d7f24")),
        ((12, 6), "mean", "local", ("3782eb59da1b7a2914c02b299f42e14ee70dbb7f",
                                    "bf6e05535cd8da2829c6f6d7205a4c7aaf8c2577")),
    ],
    ids=["residual", "local"],
)
def test_seeded_float32_training_bits_are_pinned(dims, pooling, edge_mode, sha1s):
    # the same runs on the float32 inputs of prepare_dataset, as shipped
    assert seeded_digests(prepare_dataset, dims, pooling, edge_mode) == sha1s


def seeded_digests(prepare, dims, pooling, edge_mode) -> tuple[str, str]:
    """The :func:`trained_digests` of a short seeded training on the bundle
    that ``prepare`` makes of a 4x4 grid."""
    gridset, _ = synth_teleconnection_dataset(4, 4, 44, 1, seed=3)
    bundle = prepare(gridset, window=3, lead=1, train_fraction=0.75)
    model_cfg = GcnConfig(layer_dims=list(dims), pooling=pooling)
    cfg = TrainConfig(seed=2, epochs=3, batch_size=8, embed_dim=4, weight_decay=1e-4)
    state = build_model(bundle, model_cfg, cfg, edge_mode=edge_mode)
    return trained_digests(state, bundle, cfg)


def trained_digests(state, bundle, cfg) -> tuple[str, str]:
    """The SHA-1 of training ``state``, over its loss history and every
    trained parameter, and the SHA-1 of its test predictions."""
    _, history = train(state, bundle.train, cfg)
    digest = hashlib.sha1(np.array([v for _, _, v in history]).tobytes())
    for _, tensor in state.parameters():
        digest.update(tensor.data.tobytes())
    predictions = hashlib.sha1(predict_samples(state, bundle.test).tobytes())
    return digest.hexdigest(), predictions.hexdigest()


def test_seeded_training_bits_in_the_csr_regime_are_pinned():
    # an 8x8 grid plus the ONI node (N=65) with a budget of N edges: edges
    # plus self-loops fill 3% of I + A, so aggregation and the structure
    # backward run their CSR kernels
    gridset, _ = synth_teleconnection_dataset(8, 8, 60, 1, seed=28101)
    bundle = prepare_dataset(gridset, window=3, lead=1, train_fraction=0.75)
    n = bundle.nodes.count
    cfg = TrainConfig(seed=28102, epochs=3, batch_size=8, embed_dim=4, max_edges=n)
    state = build_model(bundle, GcnConfig(layer_dims=[8, 8], pooling="sum_and_mean"), cfg)
    assert model_edges(state)[0].sparse
    assert trained_digests(state, bundle, cfg) == ("8d1be04513adadc7d5e50d7f36585f492bd4daf1",
                                                   "c4f91312cb61487b9e6e5b58a9190e2b02b2be9f")


# edge mode, grid side, pooling, and whether the graph is in the CSR regime
# (a learned CSR graph takes an edge budget of N)
PLANTED_CASES = [
    ("learned", 4, "mean", False),
    ("learned", 6, "sum_and_mean", True),
    ("local", 4, "sum_and_mean", False),
    ("local", 12, "mean", True),
]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "edge_mode, side, pooling, csr", PLANTED_CASES, ids=[f"{c[0]}-{c[1]}" for c in PLANTED_CASES]
)
def test_a_planted_non_finite_parameter_stops_the_first_step(edge_mode, side, pooling, csr, value):
    # IEEE rules carry the planted value to a batchnorm pre-activation check,
    # the structure embedding check or the loss within the first forward
    # pass, so nothing is stepped and nothing warns
    gridset, _ = synth_teleconnection_dataset(side, side, 48, 1, seed=32201)
    bundle = prepare_dataset(gridset, window=3, lead=1)
    budget = bundle.nodes.count if csr and edge_mode == "learned" else None
    cfg = TrainConfig(seed=32202, batch_size=8, embed_dim=4, max_edges=budget)
    model_cfg = GcnConfig(layer_dims=[8, 8], pooling=pooling)
    count = len(build_model(bundle, model_cfg, cfg, edge_mode).parameters())
    for i in range(count):
        state = build_model(bundle, model_cfg, cfg, edge_mode)
        assert model_edges(state)[0].sparse == csr
        params = state.parameters()
        name, planted = params[i]
        planted.data.flat[0] = value
        before = [t.data.tobytes() for _, t in params]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                predict_samples(state, bundle.test)
            with pytest.raises(NumericError, match="at epoch 0, batch 0$"):
                train(state, bundle.train, cfg)
        assert [t.data.tobytes() for _, t in params] == before, name


def test_empty_sample_set_rejected():
    bundle, cfg, model_cfg, state = tiny_setup()
    with pytest.raises(DataError):
        train(state, bundle.test, cfg)  # train_fraction=1.0 leaves test empty


# --- metrics --------------------------------------------------------------------


def test_pearson_hand_value():
    assert pearson_r(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])) == pytest.approx(0.5)


def test_pearson_perfect_match():
    v = np.array([0.3, -1.2, 2.0, 0.7])
    assert pearson_r(v, v) == pytest.approx(1.0)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(0)
    obs = rng.normal(size=40)
    pred = 2.5 * obs + 1.0
    assert pearson_r(pred, obs) == pytest.approx(1.0)


def test_pearson_of_a_diverged_model_is_not_zero():
    # the products of the raw centered series overflow to inf
    obs = np.random.default_rng(47).normal(size=47)
    assert pearson_r(obs * 1e153, obs) == pytest.approx(1.0)


def test_pearson_zero_variance_rejected():
    with pytest.raises(NumericError):
        pearson_r(np.ones(5), np.arange(5.0))


def test_evaluate_report_identities():
    bundle, _, _, state = tiny_setup(seed=4, train_fraction=0.8)
    report = evaluate(state, bundle.test)
    assert report.n == len(bundle.test)
    diff = report.predictions - report.targets
    assert report.rmse == pytest.approx(float(np.sqrt(np.mean(diff**2))))
    assert -1.0 <= report.r <= 1.0
    # rmse vanishes exactly when predictions match targets
    perfect = report.targets
    assert float(np.sqrt(np.mean((perfect - report.targets) ** 2))) == 0.0


def test_evaluate_requires_two_samples():
    bundle, _, _, state = tiny_setup()
    short = type(bundle.train)(
        inputs=bundle.train.inputs[:1],
        targets=bundle.train.targets[:1],
        window_end=bundle.train.window_end[:1],
        end_calendar_month=bundle.train.end_calendar_month[:1],
        window=bundle.train.window,
        lead=bundle.train.lead,
    )
    with pytest.raises(DataError):
        evaluate(state, short)


def test_evaluate_does_not_mutate_state():
    bundle, _, _, state = tiny_setup(seed=9)
    stats_before = [
        (n.running.mean.copy(), n.running.var.copy())
        for n in state.gcn_norms + [state.mlp_norm]
    ]
    preds_a = predict_samples(state, bundle.train)
    preds_b = predict_samples(state, bundle.train)
    np.testing.assert_array_equal(preds_a, preds_b)
    for norm, (mean, var) in zip(state.gcn_norms + [state.mlp_norm], stats_before):
        np.testing.assert_array_equal(norm.running.mean, mean)
        np.testing.assert_array_equal(norm.running.var, var)


# --- ensembling -----------------------------------------------------------------


def first_sample(samples):
    return replace(
        samples,
        inputs=samples.inputs[:1],
        targets=samples.targets[:1],
        window_end=samples.window_end[:1],
        end_calendar_month=samples.end_calendar_month[:1],
    )


def test_ensemble_identical_members_match_single():
    bundle, state = constant_output_model(1.2)
    one = first_sample(bundle.train)
    single = float(np.mean(predict_samples(state, bundle.train)))
    assert predict_samples([state, state], one)[0] == pytest.approx(single)


def test_ensemble_mean_of_two():
    bundle, a = constant_output_model(1.0)
    _, b = constant_output_model(3.0)
    one = first_sample(bundle.train)
    assert predict_samples([a, b], one)[0] == pytest.approx(2.0)
    assert predict_samples([b, a], one)[0] == pytest.approx(2.0)


def test_ensemble_empty_rejected():
    bundle, _, _, _ = tiny_setup()
    with pytest.raises(ConfigError):
        predict_samples([], first_sample(bundle.train))


@pytest.mark.parametrize(
    "differ",
    [
        lambda s: setattr(s.config, "lead_months", 2),
        # same input width (6 x 1 against 3 x 2 columns), other window
        lambda s: (setattr(s.config, "window", 6), setattr(s.config, "features_per_node", 1)),
        # a finite last row of node_latlon: no ONI node
        lambda s: s.node_latlon.__setitem__(-1, 0.0),
        lambda s: s.node_latlon.__setitem__((0, 1), s.node_latlon[0, 1] + 5.0),
    ],
    ids=["lead", "window", "oni_node", "node_latlon"],
)
def test_ensemble_members_must_agree(differ):
    bundle, a = constant_output_model(1.0)
    _, b = constant_output_model(3.0)
    differ(b)
    with pytest.raises(ConfigError):
        predict_samples([a, b], bundle.train)


def test_ensemble_predict_samples_averages():
    bundle, a = constant_output_model(1.0)
    _, b = constant_output_model(3.0)
    np.testing.assert_allclose(predict_samples([a, b], bundle.train), 2.0)


# --- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    bundle, _, model_cfg, state = tiny_setup(seed=7)
    cfg = TrainConfig(seed=7, epochs=2, embed_dim=8)
    train(state, bundle.train, cfg)
    before = predict_samples(state, bundle.train)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    after = predict_samples(loaded, bundle.train)
    np.testing.assert_array_equal(before, after)
    for (name, t_a), (_, t_b) in zip(state.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(t_a.data, t_b.data, err_msg=name)
    for name, velocity in state.optimizer.velocity.items():
        np.testing.assert_array_equal(velocity, loaded.optimizer.velocity[name])
    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_training_resumes_from_a_checkpoint_exactly(tmp_path, edge_mode):
    gridset, _ = synth_teleconnection_dataset(4, 4, 52, 1, seed=6)
    bundle = prepare_dataset(gridset, window=3, lead=1, train_fraction=0.75)
    model_cfg = model_config_from_preset("gcn2a", layer_dims=[8, 4])
    cfg = TrainConfig(seed=6, epochs=2, batch_size=8, embed_dim=4)
    state = build_model(bundle, model_cfg, cfg, edge_mode=edge_mode)
    train(state, bundle.train, cfg)
    save_checkpoint(state, tmp_path / "model.ckpt")
    resumed = load_checkpoint(tmp_path / "model.ckpt")
    # both keep the optimizer settings they were trained with, not these
    more = replace(cfg, seed=9, epochs=1, learning_rate=0.5, momentum=0.0, weight_decay=0.1)
    histories = [train(model, bundle.train, more)[1] for model in (state, resumed)]
    assert histories[0] == histories[1]
    for (name, t_a), (_, t_b) in zip(state.parameters(), resumed.parameters()):
        assert t_a.data.tobytes() == t_b.data.tobytes(), name
    predictions = [predict_samples(model, bundle.test).tobytes() for model in (state, resumed)]
    assert predictions[0] == predictions[1]


def off_diagonal(matrix):
    """The ascending flat indices and values of a matrix's nonzero
    off-diagonal entries: the form ``init_params`` takes a fixed graph in."""
    flat = np.flatnonzero(matrix - np.diag(np.diag(matrix)))
    return flat, matrix.flat[flat]


def pinned_state(edge_mode, dtype=np.float32, head_bias=False):
    """A small ``dtype`` model whose every checkpointed value comes from
    uniform draws (no BLAS, so its bytes do not depend on the host): an ONI
    node with NaN coordinates, non-default running statistics, and an
    optimizer record in learned mode. The velocities are drawn in the
    parameter order of formats 1 to 4, with one for their head bias
    ``mlp.b1`` after ``mlp.w1``, so each keeps its value across formats;
    ``head_bias`` keeps that one in the record for :func:`old_checkpoint`."""
    rng = np.random.default_rng(2024)
    n = 7
    static = rng.uniform(-2.0, 2.0, (n, 4)).astype(dtype)
    latlon = np.column_stack([rng.uniform(-20.0, 20.0, n), rng.uniform(150.0, 260.0, n)])
    latlon[-1] = np.nan
    local = None
    if edge_mode == "local":
        local = off_diagonal((rng.uniform(size=(n, n)) < 0.4).astype(float))
    cfg = GcnConfig(layer_dims=[5, 3], pooling="sum_and_mean", window=2, lead_months=2)
    state = init_params(
        cfg, static, latlon, seed=5, embed_dim=3, max_edges=10,
        local_edges=local,
    )
    for norm in state.gcn_norms + [state.mlp_norm]:
        norm.running.mean[...] = rng.uniform(-1.0, 1.0, norm.running.mean.shape)
        norm.running.var[...] = rng.uniform(0.5, 2.0, norm.running.var.shape)
    if edge_mode == "learned":
        shapes = [(name, t.shape) for name, t in state.parameters()]
        after_w1 = 1 + [name for name, _ in shapes].index("mlp.w1")
        shapes.insert(after_w1, ("mlp.b1", state.mlp_w1.shape[1:]))
        velocity = {name: rng.uniform(-0.1, 0.1, shape).astype(dtype) for name, shape in shapes}
        if not head_bias:
            del velocity["mlp.b1"]
        state.optimizer = Sgd(0.005, 0.9, 1e-4, velocity)
    return state


@pytest.mark.parametrize(
    "edge_mode, sha1",
    [
        # format 5: format 4 without the head bias mlp.b1 and its velocity
        ("learned", "ec492926107758fa12eb6f5b1d9babb0376b0f0c"),
        ("local", "e8356f4aaee4dac4f04672b16ecdef354c8136fd"),
    ],
    ids=["learned", "local"],
)
def test_checkpoint_bytes_are_pinned(tmp_path, edge_mode, sha1):
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state(edge_mode), path)
    assert hashlib.sha1(path.read_bytes()).hexdigest() == sha1
    # what loads saves back to the same bytes
    save_checkpoint(load_checkpoint(path), tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_a_full_grid_local_checkpoint_is_under_a_megabyte_and_saves_back_its_bytes(tmp_path):
    # the paper's 32x42 grid, N = 1345: edge rows in place of the dense N x N
    # matrix of format 3, whose checkpoint was 7.9 MB
    gridset, _ = synth_teleconnection_dataset(32, 42, 40, 1, seed=36051)
    bundle = prepare_dataset(gridset, window=3, lead=1)
    assert bundle.nodes.count == 1345
    for mode in ("learned", "local"):
        state = build_model(bundle, model_config_from_preset("gcn2a"), TrainConfig(seed=36052), mode)
        path, again = tmp_path / f"{mode}.ckpt", tmp_path / f"{mode}.again.ckpt"
        save_checkpoint(state, path)
        save_checkpoint(load_checkpoint(path), again)
        assert again.read_bytes() == path.read_bytes(), mode
    assert (tmp_path / "local.ckpt").stat().st_size < 1_000_000


def old_checkpoint(state, version, feature_gain=1.0) -> bytes:
    """The checkpoint of ``state`` as format ``version`` 1, 2, 3 or 4 wrote
    it: a zero head bias ``mlp.b1`` after ``mlp.w1``, its velocity where
    the optimizer record has one (``pinned_state(..., head_bias=True)``);
    in versions 1 to 3 a manifest with the edge mode, and a local model's
    unused structure maps before its other buffers and its dense I + A in
    place of its edge rows; in versions 1 and 2 the settings those versions
    recorded, at the values every shipped model had but the pre-tanh
    ``feature_gain``; and a blob of little-endian float64 (version 1) or
    float32 (versions 2 to 4)."""
    dtype = np.dtype("<f8" if version == 1 else "<f4")
    local = state.local_edges is not None
    dense = local and version < 4
    entries = {}
    for name, t in state.parameters():
        entries[name] = t.data
        if name == "mlp.w1":
            entries["mlp.b1"] = np.zeros(t.shape[1])
    if dense:
        entries |= {f"structure.{w}": getattr(state.structure, w).data for w in ("w_from", "w_to")}
    entries |= {name: a for name, a in state.buffers() if not (dense and name == "local_edges")}
    if dense:
        entries["local_adjacency"] = model_adjacency(state).data
    if state.optimizer is not None:
        entries |= {f"opt.{k}.velocity": v for k, v in state.optimizer.velocity.items()}
    tensors, offset = [], 0
    for name, arr in entries.items():
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += dtype.itemsize * arr.size
    optimizer = state.optimizer and {
        k: getattr(state.optimizer, k) for k in training.OPTIMIZER_FIELDS
    }
    settings = {"activation": "elu", "use_residual": True, "use_jumping_knowledge": True}
    gains = {"feature_gain": feature_gain, "score_gain": 2.0}
    if version >= 3:
        settings, gains = {}, {}
    manifest = {
        "format_version": version,
        "model": asdict(state.config) | settings,
        "structure": {"max_edges": state.structure.max_edges} | gains,
        "has_oni_node": state.has_oni_node,
        "seed": state.seed,
        "optimizer": optimizer,
        "tensors": tensors,
        "blob_bytes": offset,
    }
    if version < 4:
        manifest["edge_mode"] = "local" if local else "learned"
    payload = json.dumps(manifest, sort_keys=True).encode()
    blob = b"".join(np.ascontiguousarray(a, dtype=dtype).tobytes() for a in entries.values())
    return training.CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload + blob


@pytest.mark.parametrize(
    "version, edge_mode, sha1",
    [
        # the pins of test_checkpoint_bytes_are_pinned in versions 1 to 4
        (1, "learned", "e0f2a3bdc6dd87e9ec1173e1fa163339fe4e18ef"),
        (1, "local", "ce42deb9dda890376eb069d641b04ca7b5c8a7ac"),
        (2, "learned", "30e721f4424b725a0521fd1a269b6236bd2b55a5"),
        (2, "local", "2a8aa242cf14b6fbaf48fdd52d87457696723f62"),
        (3, "learned", "c319ec437edfac45b6eb94d17a3b81aa81f86fbf"),
        (3, "local", "f0d2fde1cee306ac5775e2d1e976df4ca2390dad"),
        (4, "learned", "24aaf2cf8e4c2d43f9b7740f621198659608253a"),
        (4, "local", "6781543eeaed1eadf0d22b16735fac610060c51e"),
    ],
    ids=[
        "learned", "local", "version2-learned", "version2-local", "version3-learned",
        "version3-local", "version4-learned", "version4-local",
    ],
)
def test_a_version1_checkpoint_is_refused(tmp_path, version, edge_mode, sha1):
    # pinned_state's models were saved with a feature gain of 0.5 (formats 3 and 4 have no gain)
    state = pinned_state(edge_mode, np.float64 if version == 1 else np.float32, head_bias=True)
    raw = old_checkpoint(state, version, feature_gain=0.5)
    assert hashlib.sha1(raw).hexdigest() == sha1  # byte for byte as that version wrote it
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"format version {version}; this build reads version 5"):
        load_checkpoint(path)


def test_interrupted_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    before = path.read_bytes()

    class FailingWriter:
        """A file whose third write fails, as on a full disk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(training, "open", lambda *a: FailingWriter(open(*a)), raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(pinned_state("local"), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_missing_tensor_rejected(tmp_path):
    # without its edge rows a local checkpoint reads as a learned one, which
    # must hold the structure weights that a local one does not store
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("local"), path)
    raw = _rewrite_manifest(
        path.read_bytes(),
        lambda m: m.update(tensors=[t for t in m["tensors"] if t["name"] != "local_edges"]),
    )
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="missing tensor 'structure.w_from'"):
        load_checkpoint(path)


EDGE_ROW_CASES = [
    "index_past_n", "negative_index", "fractional_index", "nan_index", "diagonal_pair",
    "repeated_pair", "descending_pair", "infinite_value", "nan_value", "two_columns",
]


def bad_edge_rows(raw, case):
    """The bytes of the local checkpoint ``raw`` with one edit of ``case``
    to its ``local_edges`` rows, made at the edge (1, 0), which has an edge
    (0, j) before it and (1, 2) after it: each edit breaks one rule alone."""
    (length,) = struct.unpack("<Q", raw[4:12])
    tensors = {t["name"]: t for t in json.loads(raw[12 : 12 + length])["tensors"]}
    shape, n = tensors["local_edges"]["shape"], tensors["node_latlon"]["shape"][0]
    if case == "two_columns":  # the first 2E values read as E rows of two

        def narrow(manifest):
            for t in manifest["tensors"]:
                if t["name"] == "local_edges":
                    t["shape"] = [shape[0], 2]

        return _rewrite_manifest(raw, narrow)
    start = 12 + length + tensors["local_edges"]["offset"]
    rows = np.frombuffer(raw, "<f4", math.prod(shape), start).reshape(shape).copy()
    (k,) = np.flatnonzero((rows[:, 0] == 1) & (rows[:, 1] == 0))
    assert rows[k - 1, 0] == 0 and rows[k + 1, :2].tolist() == [1, 2]
    edits = {
        "index_past_n": (1, n), "negative_index": (1, -1), "fractional_index": (1, 0.5),
        "nan_index": (0, np.nan), "diagonal_pair": (1, 1), "infinite_value": (2, np.inf),
        "nan_value": (2, np.nan),
    }
    if case in edits:
        column, value = edits[case]
        rows[k, column] = value
    elif case == "repeated_pair":
        rows[k, :2] = rows[k - 1, :2]
    else:  # descending_pair
        rows[[k, k + 1]] = rows[[k + 1, k]]
    return raw[:start] + rows.tobytes() + raw[start + rows.nbytes :]


@pytest.mark.parametrize("case", EDGE_ROW_CASES)
def test_a_bad_local_edge_row_is_refused_naming_it(tmp_path, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("local"), path)
    path.write_bytes(bad_edge_rows(path.read_bytes(), case))
    with pytest.raises(FormatError, match="local_edges"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "name, at",
    [("mlp.w2", 0), ("gcn.0.running_var", 2), ("structure.w_from", 5), ("node_latlon", 1)],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_checkpoint_value_is_refused_naming_its_tensor(tmp_path, name, at, value):
    # node_latlon's value 1 is the second coordinate of a grid node, not the
    # ONI node; a NaN there is a second NaN row, which the has_oni_node check names
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    raw = bytearray(path.read_bytes())
    (length,) = struct.unpack("<Q", raw[4:12])
    (entry,) = [t for t in json.loads(raw[12 : 12 + length])["tensors"] if t["name"] == name]
    start = 12 + length + entry["offset"] + 4 * at
    raw[start : start + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))
    match = f"tensor '{name}' holds a non-finite value"
    if name == "node_latlon" and np.isnan(value):
        match = r"node_latlon has NaN rows \[0, 6\] of 7"
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "name, shape",
    [
        ("mlp.b2", [1, 1]),  # checked against the model built from the manifest
        ("node_latlon", [2, 7]),  # checked while that model is built
    ],
)
def test_checkpoint_tensor_of_wrong_shape_rejected(tmp_path, name, shape):
    # each new shape holds as many values as the saved one, so the blob still parses
    def reshape(manifest):
        for t in manifest["tensors"]:
            if t["name"] == name:
                t["shape"] = shape

    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    path.write_bytes(_rewrite_manifest(path.read_bytes(), reshape))
    with pytest.raises(FormatError, match=name):
        load_checkpoint(path)


def test_checkpoint_shape_past_the_blob_rejected_before_reading(tmp_path):
    # 2**33 * 2**31 values: a product that wraps to 0 in int64 must still
    # count as past the end of the blob
    def widen(manifest):
        manifest["tensors"][0]["shape"] = [2**33, 2**31]

    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    path.write_bytes(_rewrite_manifest(path.read_bytes(), widen))
    with pytest.raises(FormatError, match="overruns the checkpoint blob"):
        load_checkpoint(path)


def test_checkpoint_tampered_blob_rejected(tmp_path):
    bundle, _, _, state = tiny_setup()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _rewrite_manifest(raw, edit):
    (length,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + length])
    edit(manifest)
    payload = json.dumps(manifest).encode()
    return raw[:4] + struct.pack("<Q", len(payload)) + payload + raw[12 + length :]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:8],  # header cut inside the manifest length
        lambda raw: raw[:12],  # manifest cut away
        lambda raw: _rewrite_manifest(raw, lambda m: m.pop("tensors")),
        lambda raw: _rewrite_manifest(raw, lambda m: m["model"].pop("layer_dims")),
        lambda raw: _rewrite_manifest(raw, lambda m: m["tensors"][0].update(shape="wide")),
        lambda raw: _rewrite_manifest(raw, lambda m: m["structure"].pop("max_edges")),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(format_version=6)),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(format_version="1")),
        lambda raw: _rewrite_manifest(raw, lambda m: m.pop("format_version")),
        lambda raw: _rewrite_manifest(raw, lambda m: m["structure"].update(max_edges=10.5)),
        lambda raw: _rewrite_manifest(raw, lambda m: m["structure"].update(max_edges=True)),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(model=[["pooling", "mean"]])),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(has_oni_node="no")),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(seed=True)),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(format_version=True)),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(blob_bytes=float(m["blob_bytes"]))),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(optimizer=[])),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(notes="x")),
        lambda raw: _rewrite_manifest(raw, lambda m: m["model"].update(dropout=0.1)),
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(tensors={})),
        # format 3's edge_mode, a key that later formats do not have
        lambda raw: _rewrite_manifest(raw, lambda m: m.update(edge_mode=None)),
        lambda raw: _rewrite_manifest(raw, lambda m: m["tensors"][1].update(offset=True)),
        lambda raw: _rewrite_manifest(
            raw, lambda m: m["tensors"][1].update(offset=m["tensors"][0]["offset"])
        ),
        lambda raw: _rewrite_manifest(
            raw, lambda m: m["tensors"].append(dict(m["tensors"][0], name="extra"))
        ),
        lambda raw: _rewrite_manifest(raw, lambda m: m["tensors"].append(m["tensors"][0])),
        lambda raw: _rewrite_manifest(raw, lambda m: m["tensors"].reverse()),
    ],
    ids=[
        "truncated_header", "no_manifest", "no_tensors", "no_layer_dims", "bad_shape",
        "no_max_edges", "newer_version", "version_string", "no_version",
        "fractional_max_edges", "bool_max_edges", "model_not_an_object",
        "string_oni_node", "bool_seed", "bool_version", "float_blob_bytes",
        "optimizer_not_an_object", "unknown_top_level_key", "unknown_model_key",
        "tensors_not_a_list", "null_edge_mode", "bool_offset", "shared_offset",
        "extra_tensor", "duplicated_tensor", "reversed_tensors",
    ],
)
def test_checkpoint_corrupt_manifest_rejected(tmp_path, corrupt):
    _, _, _, state = tiny_setup()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("oni_node", [True, False])
def test_checkpoint_has_oni_node_must_match_the_nan_row(tmp_path, oni_node):
    # the ONI node is the one NaN row of node_latlon, and it is last
    gridset, _ = synth_teleconnection_dataset(4, 4, 48, 1, seed=32201)
    bundle = prepare_dataset(gridset, window=3, lead=1, oni_node=oni_node)
    state = build_model(bundle, GcnConfig(layer_dims=[4]), TrainConfig(seed=32202, embed_dim=4))
    assert np.isnan(state.node_latlon[-1]).all() == oni_node
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(_rewrite_manifest(raw, lambda m: m.update(has_oni_node=not oni_node)))
    with pytest.raises(FormatError, match="checkpoint.has_oni_node"):
        load_checkpoint(path)
    path.write_bytes(raw)
    assert load_checkpoint(path).has_oni_node == oni_node


@pytest.mark.parametrize("oni_node", [True, False])
def test_has_oni_node_is_read_off_the_last_coordinate_row(tmp_path, oni_node):
    gridset, _ = synth_teleconnection_dataset(4, 4, 48, 1, seed=38431)
    bundle = prepare_dataset(gridset, window=3, lead=1, oni_node=oni_node)
    state = build_model(bundle, GcnConfig(layer_dims=[4]), TrainConfig(seed=38432, embed_dim=4))
    save_checkpoint(state, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    for latlon, flag in [
        (bundle.nodes.latlon, bundle.nodes.has_oni_node),
        (state.node_latlon, state.has_oni_node),
        (loaded.node_latlon, loaded.has_oni_node),
    ]:
        assert flag is oni_node
        assert np.isnan(latlon[-1]).all() == oni_node
        assert not np.isnan(latlon[:-1]).any()
    raw = (tmp_path / "model.ckpt").read_bytes()
    (length,) = struct.unpack("<Q", raw[4:12])
    assert json.loads(raw[12 : 12 + length])["has_oni_node"] is oni_node


@pytest.mark.parametrize(
    "edit",
    [
        lambda opt: opt.update(momentum=1.5),
        lambda opt: opt.pop("weight_decay"),
        lambda opt: opt.update(nesterov=True),
        lambda opt: opt.update(learning_rate=True),
        lambda opt: opt.update(momentum=False),
        lambda opt: opt.update(weight_decay="1e-4"),
    ],
    ids=[
        "momentum_out_of_range", "missing_key", "extra_key", "bool_learning_rate",
        "bool_momentum", "string_weight_decay",
    ],
)
def test_checkpoint_bad_optimizer_section_rejected(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    path.write_bytes(_rewrite_manifest(path.read_bytes(), lambda m: edit(m["optimizer"])))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_records_every_structure_hyperparameter():
    tensors = {"static_features", "w_from", "w_to"}
    hyper = {f.name for f in fields(StructureParams)} - tensors
    assert sorted(training.STRUCTURE_FIELDS) == sorted(hyper)
    assert sorted(training.OPTIMIZER_FIELDS) == sorted({f.name for f in fields(Sgd)} - {"velocity"})


def test_checkpoint_writes_exactly_the_fields_its_reader_takes(tmp_path):
    # a field added to the writer or to a reader table alone fails here
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("learned"), path)
    raw = path.read_bytes()
    (length,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12 : 12 + length])
    assert manifest.keys() == training.CHECKPOINT_FIELDS.keys()
    assert manifest["model"].keys() == training.MODEL_FIELDS.keys()
    assert manifest["structure"].keys() == training.STRUCTURE_FIELDS.keys()
    assert manifest["optimizer"].keys() == training.OPTIMIZER_FIELDS.keys()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """The bytes of a small checkpoint after one epoch of training."""
    bundle, cfg, _, state = tiny_setup(seed=3)
    train(state, bundle.train, replace(cfg, epochs=1))
    path = tmp_path_factory.mktemp("trained") / "model.ckpt"
    save_checkpoint(state, path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["length", "manifest", "blob"]),
    st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)), max_size=3),
    st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_corrupted_checkpoint_loads_or_raises_format_error(
    trained_checkpoint, tmp_path_factory, region, flips, cut
):
    # bytes flipped in the length header, the manifest or the blob, then
    # the file cut at any point; a checkpoint that decodes may load
    raw = bytearray(trained_checkpoint)
    (length,) = struct.unpack("<Q", raw[4:12])
    regions = {"length": (4, 12), "manifest": (12, 12 + length), "blob": (12 + length, len(raw))}
    start, end = regions[region]
    for at, mask in flips:
        raw[start + int(at * (end - start))] ^= mask
    if cut is not None:
        raw = raw[: int(cut * len(raw))]
    path = tmp_path_factory.getbasetemp() / "corrupt.ckpt"
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except FormatError:
        pass


def test_checkpoint_fresh_eval_report_matches(tmp_path):
    bundle, _, model_cfg, state = tiny_setup(seed=11, train_fraction=0.8)
    cfg = TrainConfig(seed=11, epochs=2, embed_dim=8)
    train(state, bundle.train, cfg)
    report_a = evaluate(state, bundle.test)
    save_checkpoint(state, tmp_path / "m.ckpt")
    report_b = evaluate(load_checkpoint(tmp_path / "m.ckpt"), bundle.test)
    assert report_a.r == report_b.r
    assert report_a.rmse == report_b.rmse
    np.testing.assert_array_equal(report_a.predictions, report_b.predictions)


# --- csv exports -------------------------------------------------------------------


def test_csv_exports(tmp_path):
    report = EvalReport(
        lead_months=2,
        r=0.5,
        rmse=0.25,
        n=2,
        predictions=np.array([1.0, 2.0]),
        targets=np.array([1.5, 1.5]),
    )
    write_report_csv(report, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == "lead,r,rmse,n\n2,0.5,0.25,2\n"
    write_predictions_csv(report, tmp_path / "preds.csv")
    assert (tmp_path / "preds.csv").read_text() == (
        "index,target,prediction\n0,1.5,1.0\n1,1.5,2.0\n"
    )
    write_history_csv([(0, 0, 0.5), (0, 1, 0.25)], tmp_path / "loss.csv")
    assert (tmp_path / "loss.csv").read_text() == "epoch,batch,loss\n0,0,0.5\n0,1,0.25\n"


def test_write_csv_prints_floats_by_repr_and_the_rest_by_str(tmp_path):
    rows = [("learned", 3, np.float32(0.1), np.float64(1 / 3), True), ("x", -1, 2.0, 1e-300, None)]
    training.write_csv(tmp_path / "t.csv", "a,b,c,d,e", rows)
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c,d,e\nlearned,3,0.10000000149011612,0.3333333333333333,True\nx,-1,2.0,1e-300,None\n"
    )


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    assert TrainConfig(preset="gcn3b").resolved_weight_decay() == 1e-3
    assert TrainConfig(weight_decay=0.5, preset="nope").resolved_weight_decay() == 0.5
