import hashlib
import json
import struct

import numpy as np
import pytest

from dataclasses import replace

from onigraph.autodiff import EdgeIndex, OptimizerState
from onigraph.data import prepare_dataset, synth_teleconnection_dataset
from onigraph.errors import ConfigError, DataError, FormatError, NumericError
from onigraph.model import GcnConfig, init_params
from onigraph import training
from onigraph.structure import kept_edges
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


def constant_output_model(value, seed=0):
    """Zero GCN weights with residuals off force the prediction to the
    final bias, giving a model with a known constant output."""
    bundle, cfg, _, _ = tiny_setup(seed=seed)
    model_cfg = GcnConfig(layer_dims=[4], use_residual=False)
    state = build_model(bundle, model_cfg, cfg)
    for w in state.gcn_weights:
        w.data[...] = 0.0
    state.mlp_b2.data[...] = [value]
    return bundle, state


# --- training loop -------------------------------------------------------------


def test_zero_lr_leaves_parameters_and_loss_flat():
    bundle, _, model_cfg, _ = tiny_setup()
    cfg = TrainConfig(learning_rate=0.0, momentum=0.0, epochs=4, batch_size=10_000, seed=1)
    state = build_model(bundle, model_cfg, cfg)
    before = {name: t.data.copy() for name, t in state.parameters()}
    _, history = train(state, bundle.train, cfg)
    losses = [h[2] for h in history]
    # reshuffling permutes the summation order, so equal only to rounding
    np.testing.assert_allclose(losses, losses[0], rtol=1e-12)
    for name, t in state.parameters():
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)


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
    # a pre-tanh gain that shrinks the embeddings leaves every score near 0.5
    # and w_from / w_to without gradient, so "learned" edges never change
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
        lambda s: setattr(s, "has_oni_node", False),
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
    for name, slot in state.optimizer.items():
        np.testing.assert_array_equal(slot.velocity, loaded.optimizer[name].velocity)
    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def pinned_state(edge_mode):
    """A small model whose every checkpointed value comes from uniform draws
    (no BLAS, so its bytes do not depend on the host): an ONI node with NaN
    coordinates, non-default running statistics, and optimizer slots in
    learned mode."""
    rng = np.random.default_rng(2024)
    n = 7
    static = rng.uniform(-2.0, 2.0, (n, 4))
    latlon = np.column_stack([rng.uniform(-20.0, 20.0, n), rng.uniform(150.0, 260.0, n)])
    latlon[-1] = np.nan
    fixed = None
    if edge_mode == "local":
        fixed = (rng.uniform(size=(n, n)) < 0.4).astype(float)
        np.fill_diagonal(fixed, 1.0)
    cfg = GcnConfig(layer_dims=[5, 3], pooling="sum_and_mean", window=2, lead_months=2)
    state = init_params(
        cfg, static, latlon, seed=5, has_oni_node=True, embed_dim=3, feature_gain=0.5,
        max_edges=10, edge_mode=edge_mode, fixed_adjacency=fixed,
    )
    for norm in state.gcn_norms + [state.mlp_norm]:
        norm.running.mean[...] = rng.uniform(-1.0, 1.0, norm.running.mean.shape)
        norm.running.var[...] = rng.uniform(0.5, 2.0, norm.running.var.shape)
    if edge_mode == "learned":
        state.optimizer = {
            name: OptimizerState(rng.uniform(-0.1, 0.1, t.shape), 0.005, 0.9, 1e-4)
            for name, t in state.parameters()
        }
    return state


@pytest.mark.parametrize(
    "edge_mode, sha1",
    [
        ("learned", "e0f2a3bdc6dd87e9ec1173e1fa163339fe4e18ef"),
        ("local", "ce42deb9dda890376eb069d641b04ca7b5c8a7ac"),
    ],
)
def test_checkpoint_bytes_are_pinned(tmp_path, edge_mode, sha1):
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state(edge_mode), path)
    assert hashlib.sha1(path.read_bytes()).hexdigest() == sha1
    # what loads saves back to the same bytes
    save_checkpoint(load_checkpoint(path), tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


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
    path = tmp_path / "model.ckpt"
    save_checkpoint(pinned_state("local"), path)
    raw = _rewrite_manifest(
        path.read_bytes(),
        lambda m: m.update(tensors=[t for t in m["tensors"] if t["name"] != "local_adjacency"]),
    )
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="local_adjacency"):
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


def test_checkpoint_keeps_its_own_feature_gain(tmp_path):
    # a checkpoint made under another default gain must not pick up the current one
    bundle, _, model_cfg, _ = tiny_setup()
    state = build_model(bundle, model_cfg, TrainConfig(embed_dim=8, feature_gain=0.1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.structure.feature_gain == 0.1
    np.testing.assert_array_equal(
        predict_samples(loaded, bundle.train), predict_samples(state, bundle.train)
    )


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
    ],
    ids=["truncated_header", "no_manifest", "no_tensors", "no_layer_dims", "bad_shape"],
)
def test_checkpoint_corrupt_manifest_rejected(tmp_path, corrupt):
    _, _, _, state = tiny_setup()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        load_checkpoint(path)


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


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    assert TrainConfig(preset="gcn3b").resolved_weight_decay() == 1e-3
    assert TrainConfig(weight_decay=0.5, preset="nope").resolved_weight_decay() == 0.5
