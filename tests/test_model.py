import math

import numpy as np
import pytest

from onigraph.autodiff import (
    BN_EPS,
    EdgeIndex,
    RunningStats,
    Tape,
    Tensor,
    edge_block_matmul,
    grad_check,
    mse_loss,
    pool_blocks,
)
from onigraph.errors import ConfigError, DimensionError
from onigraph.model import (
    GcnConfig,
    NormParams,
    PRESETS,
    Shift,
    folded,
    forward_batch,
    gcn_layer,
    init_params,
    mlp_head,
    model_adjacency,
    model_edges,
    pooled_layers,
)
from test_training import off_diagonal


def tiny_state(
    n=6,
    layer_dims=(4, 4),
    seed=0,
    window=2,
    features=2,
    embed_dim=3,
    pooling="mean",
    static_features=None,
    **kwargs,
):
    rng = np.random.default_rng(seed + 1000)
    cfg = GcnConfig(
        layer_dims=list(layer_dims),
        pooling=pooling,
        window=window,
        features_per_node=features,
    )
    if static_features is None:
        static_features = rng.normal(size=(n, 4))
    latlon = np.column_stack([rng.uniform(-60, 60, n), rng.uniform(0, 360, n)])
    return init_params(
        cfg,
        static_features,
        latlon,
        seed=seed,
        embed_dim=embed_dim,
        max_edges=min(3 * n, n * (n - 1)),
        **kwargs,
    )


def graph(a):
    """The edges and values of an (n, n) matrix I + A with a unit diagonal."""
    a = np.asarray(a, float)
    edges = EdgeIndex.from_flat(a.shape[0], np.flatnonzero(a))
    return edges, Tensor(a[edges.rows, edges.cols])


UNIT_NORM_SCALE = 1 / np.sqrt(1 + BN_EPS)


def unit_norm(width):
    """Batchnorm with unit scale, zero shift, running mean 0 and variance 1:
    in evaluation it only multiplies by UNIT_NORM_SCALE."""
    running = RunningStats.initial(width, np.float64)
    return NormParams(Tensor(np.ones(width)), Tensor(np.zeros(width)), running)


def eval_layer(graph_, z, weight, norm):
    """``gcn_layer`` as a folded copy runs it: ``weight`` scaled by the
    running statistics' scale, and their shift."""
    scale, shift = norm.folded()
    return gcn_layer(graph_, z, Tensor(weight.data * scale), Shift(shift))


def predict_one(state, x):
    copy = folded(state)
    return mlp_head(copy, pooled_layers(copy, x, model_edges(state))).item()


def rand_input(state, batch=1, seed=5):
    rng = np.random.default_rng(seed)
    n = state.node_count
    return Tensor(rng.normal(size=(batch * n, state.config.input_width)))


# --- gcn layer ---------------------------------------------------------------


# Positive inputs, weights and graphs keep every pre-activation positive,
# where the ELU is the identity; a square weight adds the input back.


def test_layer_identity_passthrough():
    z = Tensor(np.random.default_rng(0).random((3, 3)))
    out = eval_layer(graph(np.eye(3)), Tensor(z.data.copy()), Tensor(np.eye(3)), unit_norm(3))
    np.testing.assert_array_equal(out.data, z.data * UNIT_NORM_SCALE + z.data)


def test_layer_hand_aggregation():
    out = eval_layer(
        graph([[1.0, 1.0], [0.0, 1.0]]),
        Tensor([[1.0], [2.0]]),
        Tensor([[1.0, 1.0]]),  # not square, so no residual
        unit_norm(2),
    )
    np.testing.assert_array_equal(out.data, np.array([[3.0, 3.0], [2.0, 2.0]]) * UNIT_NORM_SCALE)


def test_layer_elu_oracle():
    out = eval_layer(graph(np.eye(1)), Tensor([[-1.0]]), Tensor([[1.0]]), unit_norm(1))
    # the norm scales the pre-activation, and the square weight adds the input
    assert out.data[0, 0] == pytest.approx(math.exp(-1.0 * UNIT_NORM_SCALE) - 2.0, abs=1e-12)


def test_layer_residual_identity_when_output_zero():
    state = tiny_state(n=3, layer_dims=(2, 2))
    z = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
    out = gcn_layer(graph(np.eye(3)), z, Tensor(np.zeros((2, 2))), norm=state.gcn_norms[1])
    np.testing.assert_array_equal(out.data, z.data)


# --- jumping knowledge / pooling ----------------------------------------------


def test_jumping_knowledge_width_and_order():
    # every layer's sums, then every layer's means; two graphs of two rows,
    # layers 1 and 2 wide
    a = Tensor([[1.0], [3.0], [5.0], [9.0]])
    b = Tensor([[2.0, 0.0], [4.0, 2.0], [0.0, 6.0], [0.0, 2.0]])
    np.testing.assert_array_equal(
        pool_blocks([a, b], 2, "sum_and_mean").data,
        [[4.0, 6.0, 2.0, 2.0, 3.0, 1.0], [14.0, 0.0, 8.0, 7.0, 0.0, 4.0]],
    )
    np.testing.assert_array_equal(
        pool_blocks([a, b], 2, "mean").data, [[2.0, 3.0, 1.0], [7.0, 0.0, 4.0]]
    )
    assert GcnConfig(layer_dims=[1, 2], pooling="sum_and_mean").pooled_width == 6


def test_pool_all_equal_rows():
    row = np.array([1.5, -2.0])
    z = Tensor(np.tile(row, (4, 1)))
    np.testing.assert_allclose(pool_blocks([z], 4, "mean").data, [row])
    np.testing.assert_allclose(
        pool_blocks([z], 4, "sum_and_mean").data, [np.concatenate([4 * row, row])]
    )


def test_pool_sum_and_mean_hand_value():
    out = pool_blocks([Tensor([[1.0], [3.0]])], 2, "sum_and_mean")
    np.testing.assert_array_equal(out.data, [[4.0, 2.0]])


# --- mlp head ------------------------------------------------------------------


def test_mlp_zero_weights_give_zero():
    state = tiny_state()
    for t in (state.mlp_w1, state.mlp_w2, state.mlp_b2):
        t.data[...] = 0.0
    out = mlp_head(folded(state), Tensor(np.ones((1, state.config.pooled_width))))
    assert out.data[0] == 0.0


def test_mlp_single_path_hand_value():
    state = tiny_state(n=4, layer_dims=(1,), window=1, features=1)
    state.mlp_w1.data[...] = [[2.0]]
    state.mlp_w2.data[...] = [[3.0]]
    state.mlp_b2.data[...] = [-1.0]
    g = 0.8
    out = mlp_head(folded(state), Tensor([[g]]))
    hidden = 2.0 * g / math.sqrt(1.0 + 1e-5)  # eval stats: mean 0, var 1
    expected = 3.0 * hidden - 1.0  # positive, so ELU is identity
    assert out.data[0] == pytest.approx(expected, abs=1e-12)


def test_mlp_output_scalar_shape():
    state = tiny_state()
    out = mlp_head(folded(state), Tensor(np.zeros((1, state.config.pooled_width))))
    assert out.shape == (1,)


# --- full forward ----------------------------------------------------------------


def test_forward_deterministic():
    state = tiny_state(seed=3)
    x = rand_input(state)
    a = predict_one(state, x)
    b = predict_one(state, x)
    assert a == b


def test_forward_wiring_smoke_severed_input():
    # no layer width equals its input width, so no residual carries the input
    state = tiny_state(n=5, layer_dims=(3, 5), seed=8)
    for w in state.gcn_weights:
        w.data[...] = 0.0
    state.mlp_b2.data[...] = [0.7]
    with Tape():
        out = forward_batch(state, rand_input(state, batch=3, seed=1))
    np.testing.assert_allclose(out.data, np.full(3, 0.7), atol=1e-12)
    with Tape():
        out2 = forward_batch(state, rand_input(state, batch=3, seed=2))
    np.testing.assert_allclose(out2.data, out.data, atol=1e-12)


def test_forward_permutation_invariance():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(5):
        n = 7
        static = rng.normal(size=(n, 4))
        state = tiny_state(n=n, seed=trial, static_features=static)
        x = rand_input(state, seed=trial + 50)
        base = predict_one(state, x)

        perm = rng.permutation(n)
        state_p = tiny_state(n=n, seed=trial, static_features=static[perm])
        x_p = Tensor(x.data[perm])
        permuted = predict_one(state_p, x_p)
        worst = max(worst, abs(base - permuted))
    assert worst <= 1e-9


def test_forward_gradients_end_to_end():
    state = tiny_state(n=6, layer_dims=(4, 4), seed=2)
    batch = 3
    x = rand_input(state, batch=batch, seed=9)
    targets = Tensor(np.random.default_rng(4).normal(size=batch))
    frozen, _ = model_edges(state)

    def f():
        pred = forward_batch(state, x, edges=frozen)
        return mse_loss(pred, targets)

    params = [t for _, t in state.parameters()]
    assert grad_check(f, params, step=1e-5) <= 1e-4


def test_forward_gradients_through_narrowing_layer():
    # 4 -> 2 aggregates after the transform, so the reordered path is checked
    state = tiny_state(n=5, layer_dims=(4, 2), seed=6)
    batch = 2
    x = rand_input(state, batch=batch, seed=10)
    targets = Tensor(np.random.default_rng(7).normal(size=batch))
    frozen, _ = model_edges(state)

    def f():
        pred = forward_batch(state, x, edges=frozen)
        return mse_loss(pred, targets)

    params = [t for _, t in state.parameters()]
    assert grad_check(f, params, step=1e-5) <= 1e-4


def test_layer_aggregation_order_does_not_change_values():
    rng = np.random.default_rng(14)
    a = rng.random((4, 4))
    np.fill_diagonal(a, 1.0)
    z = rng.random((4, 5))  # positive, so the ELU is the identity
    for width in (2, 5, 7):  # narrowing, equal and widening layers
        w = rng.random((5, width))
        out = eval_layer(graph(a), Tensor(z.copy()), Tensor(w), unit_norm(width))
        want = a @ z @ w * UNIT_NORM_SCALE + (z if width == 5 else 0.0)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)


def test_forward_shape_mismatch_rejected():
    state = tiny_state()
    with pytest.raises(DimensionError):
        forward_batch(state, Tensor(np.zeros((5, 4))))


@pytest.mark.parametrize("rows", [5, 7, 13], ids=lambda r: f"{r}_rows")
def test_pooled_layers_rejects_a_row_count_not_a_multiple_of_n(rows):
    state = tiny_state(n=6, seed=38411)
    rng = np.random.default_rng(38412)
    graph_ = model_edges(state)
    with pytest.raises(DimensionError, match="stacked rows"):
        pooled_layers(state, Tensor(rng.normal(size=(rows, state.config.input_width))), graph_)
    x = Tensor(rng.normal(size=(12, state.config.input_width)))  # two samples
    assert pooled_layers(state, x, graph_).shape == (2, state.config.pooled_width)


# --- init ------------------------------------------------------------------------


def test_init_same_seed_identical():
    a = tiny_state(seed=11)
    b = tiny_state(seed=11)
    for (name_a, ta), (_, tb) in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(ta.data, tb.data, err_msg=name_a)


def test_init_different_seeds_differ():
    a = tiny_state(seed=1)
    b = tiny_state(seed=2)
    assert any(
        not np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters())
    )


def test_init_weights_within_glorot_bound():
    state = tiny_state(seed=7, layer_dims=(5, 3))
    checks = [
        (state.structure.w_from, 4, 3),
        (state.gcn_weights[0], 4, 5),
        (state.gcn_weights[1], 5, 3),
        (state.mlp_w1, state.config.pooled_width, state.config.pooled_width),
    ]
    for tensor, fan_in, fan_out in checks:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(tensor.data) <= bound)


def test_presets_cover_paper_ensemble():
    assert PRESETS["gcn2a"].layer_dims == (250, 100)
    assert PRESETS["gcn2b"].layer_dims == (250, 250)
    assert PRESETS["gcn3a"] == PRESETS["gcn3a"].__class__((200, 200, 200), "sum_and_mean", 1e-4)
    assert PRESETS["gcn3b"].weight_decay == 1e-3
    assert PRESETS["gcn2a"].pooling == "mean"
    assert PRESETS["gcn3b"].pooling == "sum_and_mean"


def test_config_validation():
    with pytest.raises(ConfigError):
        GcnConfig(layer_dims=[])
    with pytest.raises(ConfigError):
        GcnConfig(layer_dims=[4], pooling="max")


def test_local_graph_is_built_once_with_the_state(monkeypatch):
    n = 6
    rng = np.random.default_rng(37)
    fixed = (rng.uniform(size=(n, n)) < 0.5).astype(float)
    np.fill_diagonal(fixed, 1.0)
    state = tiny_state(n=n, local_edges=off_diagonal(fixed))
    edges, values = model_edges(state)
    np.testing.assert_array_equal(edges.dense(values.data, self_loops=True), fixed)
    # the fixed matrix is the I + A that the dense kernel scatters
    z = Tensor(rng.normal(size=(2 * n, 3)))
    scattered = edge_block_matmul(values, edges, z).data
    assert scattered.tobytes() == (fixed @ z.data.reshape(2, n, 3)).tobytes()

    def rebuilt(*args):
        raise AssertionError("the local graph was rebuilt")

    monkeypatch.setattr(type(edges), "from_flat", rebuilt)
    assert model_edges(state)[0] is edges and model_edges(state)[1] is values
    x = Tensor(rng.normal(size=(2 * n, state.config.input_width)))
    with Tape():
        forward_batch(state, x)
    copy = folded(state)
    mlp_head(copy, pooled_layers(copy, x, model_edges(state)))
    np.testing.assert_array_equal(model_adjacency(state).data, fixed)


# --- evaluation: the running statistics folded into the weights ---------------
# A folded copy scales a layer's weight columns by gamma / sqrt(running_var +
# eps) and adds beta - running_mean * scale after the product; the textbook
# form below normalizes the product itself. Seeds fixed before the tests ran.

FOLD_LAYERS = {  # (input width, output width): which side aggregates
    "transform_first": (6, 3),  # narrowing: A(ZW)
    "aggregate_first": (3, 6),  # widening: (AZ)W
    "residual": (4, 4),  # square: (AZ)W, plus the input
}
# a few float32 ulps per unit of the magnitudes that the fold's shift cancels
FLOAT32_FOLD_ULPS = 4


def elu64(x):
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def fold_norm(rng, h, dtype):
    """A normalization whose running statistics lie near the column
    statistics of the float64 pre-activations ``h``, so that normalized
    values are of order one, with learned scale and shift."""
    std = h.std(axis=0)
    return NormParams(
        Tensor(rng.normal(1.0, 0.3, h.shape[1]).astype(dtype)),
        Tensor(rng.normal(0.0, 0.5, h.shape[1]).astype(dtype)),
        RunningStats(
            (h.mean(axis=0) + 0.3 * std * rng.normal(size=h.shape[1])).astype(dtype),
            (h.var(axis=0) * rng.uniform(0.5, 2.0, h.shape[1])).astype(dtype),
        ),
    )


def textbook(h, norm):
    """ELU(((h - mean) / sqrt(var + eps)) * gamma + beta) in float64, and
    |mean * s|, the magnitude that the fold's shift cancels, with the scale
    s = gamma / sqrt(var + eps)."""
    gamma, beta, mean, var = (
        a.astype(np.float64) for a in (norm.gamma.data, norm.beta.data, norm.running.mean,
                                        norm.running.var)
    )
    inv = 1.0 / np.sqrt(var + BN_EPS)
    return elu64((h - mean) * inv * gamma + beta), np.abs(mean * inv * gamma), inv * gamma


def assert_fold_matches(got, want, magnitude, dtype):
    """float64 to rtol 1e-12; float32 within FLOAT32_FOLD_ULPS of
    ``magnitude``: |running_mean * s| + |y|, plus the magnitude of every
    product that the output sums, each of which rounds."""
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    else:
        bound = FLOAT32_FOLD_ULPS * np.finfo(np.float32).eps * magnitude
        assert np.all(np.abs(got.astype(np.float64) - want) <= bound)


@pytest.mark.parametrize("offset", [0.0, 100.0], ids=["centered", "mean_100_sd"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layer", sorted(FOLD_LAYERS))
def test_eval_layer_matches_the_textbook_normalization(layer, dtype, offset):
    rng = np.random.default_rng(37611)
    n, batch = 7, 3
    d_in, d_out = FOLD_LAYERS[layer]
    # every node reads from two others with the same weights, so every row
    # of I + A sums to 1.9 and a constant input shifts every row alike
    a = np.eye(n) + 0.6 * np.roll(np.eye(n), 1, axis=1) + 0.3 * np.roll(np.eye(n), 3, axis=1)
    w = rng.uniform(-1.0, 1.0, (d_in, d_out)).astype(dtype).astype(np.float64)
    z = rng.normal(size=(batch * n, d_in))

    def pre(z, w=w):  # the layer's product in float64
        return (a @ z.reshape(batch, n, d_in)).reshape(-1, d_in) @ w

    if offset:  # a constant input large enough that |mean| >= offset * sd
        per_unit = pre(np.ones_like(z)).mean(axis=0)
        z += 2.0 * offset * np.max(pre(z).std(axis=0) / np.abs(per_unit))
    z = z.astype(dtype).astype(np.float64)
    h = pre(z)
    norm = fold_norm(rng, h, dtype)
    assert np.all(np.abs(norm.running.mean) >= offset * np.sqrt(norm.running.var))
    edges, values = graph(a)
    state = tiny_state(n=n, layer_dims=(d_out,), window=d_in, features=1,
                       static_features=np.ones((n, 4), dtype))
    state.gcn_weights[0], state.gcn_norms[0] = Tensor(w.astype(dtype)), norm
    copy = folded(state)
    got = gcn_layer(
        (edges, Tensor(values.data.astype(dtype))), Tensor(z.astype(dtype)),
        copy.gcn_weights[0], copy.gcn_norms[0],
    ).data
    assert got.dtype == dtype
    act, shifted, scale = textbook(h, norm)
    residual = z if d_in == d_out else 0.0
    want = act + residual
    products = pre(np.abs(z), np.abs(w)) * np.abs(scale)  # the products' rounding
    assert_fold_matches(got, want, shifted + products + np.abs(act) + np.abs(residual), dtype)


@pytest.mark.parametrize("offset", [0.0, 100.0], ids=["centered", "mean_100_sd"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_eval_head_matches_the_textbook_normalization(dtype, offset):
    rng = np.random.default_rng(37612)
    state = tiny_state(n=5, layer_dims=(3, 4), static_features=np.ones((5, 4), dtype))
    w1, w2, b2 = (state.mlp_w1, state.mlp_w2, state.mlp_b2)
    for p in (w1, w2, b2):
        p.data[...] = rng.uniform(-1.0, 1.0, p.shape)
    pooled = rng.normal(size=(9, w1.shape[0]))
    if offset:
        h = pooled @ w1.data.astype(np.float64)
        pooled += 2.0 * offset * np.max(h.std(axis=0) / np.abs(w1.data.sum(axis=0)))
    pooled = pooled.astype(dtype).astype(np.float64)
    h = pooled @ w1.data.astype(np.float64)
    state.mlp_norm = fold_norm(rng, h, dtype)
    running = state.mlp_norm.running
    assert np.all(np.abs(running.mean) >= offset * np.sqrt(running.var))
    got = mlp_head(folded(state), Tensor(pooled.astype(dtype))).data
    assert got.dtype == dtype
    hidden, shifted, scale = textbook(h, state.mlp_norm)
    w2_64 = w2.data.astype(np.float64)
    want = (hidden @ w2_64)[:, 0] + b2.data[0]
    # the hidden rows' error and the rounding of the last product, summed through |w2|
    products = np.abs(pooled) @ np.abs(w1.data.astype(np.float64)) * np.abs(scale)
    magnitude = (shifted + products + 2.0 * np.abs(hidden)) @ np.abs(w2_64)[:, 0]
    assert_fold_matches(got, want, magnitude + np.abs(b2.data[0]), dtype)


@pytest.mark.parametrize("edge_mode", ["learned", "local"])
def test_folded_leaves_every_parameter_and_running_statistic(edge_mode):
    rng = np.random.default_rng(38421)
    local = off_diagonal(np.eye(6, k=1) + np.eye(6, k=-1)) if edge_mode == "local" else None
    state = tiny_state(n=6, layer_dims=(4, 4, 3), seed=38422, local_edges=local)
    for _, t in state.parameters():
        t.data[...] = rng.normal(size=t.shape)
    for norm in [*state.gcn_norms, state.mlp_norm]:
        norm.running.mean[...] = rng.normal(size=norm.running.mean.shape)
        norm.running.var[...] = rng.uniform(0.5, 2.0, norm.running.var.shape)

    def snapshot():
        return [(name, t.data.tobytes()) for name, t in state.parameters()] + [
            (name, array.tobytes()) for name, array in state.buffers()
        ]

    before = snapshot()
    copy = folded(state)
    assert snapshot() == before
    assert all(isinstance(norm, Shift) for norm in [*copy.gcn_norms, copy.mlp_norm])
    assert copy.local_edges is state.local_edges and copy.structure is state.structure
