"""The one graph form: edge lists, the aggregation and scoring ops on both
sides of the density threshold that picks their dense or CSR kernels, and
the lazy scipy import that keeps dense-only runs small."""

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import onigraph
from onigraph import autodiff, training
from onigraph.autodiff import (
    EdgeIndex,
    RunningStats,
    Tape,
    Tensor,
    Workspace,
    _make_output,
    _sigmoid,
    backward,
    edge_block_matmul,
    flatten,
    grad_check,
    matmul,
    mse_loss,
    record_op,
)
from onigraph.data import SampleSet
from onigraph.errors import ConfigError, DimensionError, NumericError
from onigraph.model import GcnConfig, forward_batch, init_params, model_adjacency, model_edges
from onigraph.structure import SCORE_GAIN, StructureParams, kept_edges, top_edges
from onigraph.training import predict_samples
from test_training import off_diagonal

# SPARSE_SHARE values that force one kernel at every density
KERNELS = {"csr": 2.0, "dense": 0.0}
N = 40


def random_edges(rng, n, share=0.3, isolated=()):
    mask = rng.random((n, n)) < share
    np.fill_diagonal(mask, False)
    for i in isolated:
        mask[i, :] = mask[:, i] = False
    return EdgeIndex.from_flat(n, np.flatnonzero(mask))


def dense(edges, values):
    a = np.eye(edges.n)
    a[edges.rows, edges.cols] += values
    return a


def structure_params(rng, n=7, d_in=4, d_emb=3, max_edges=12):
    return StructureParams(
        static_features=Tensor(rng.normal(size=(n, d_in))),
        w_from=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        w_to=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        max_edges=max_edges,
    )


def reference_scores(p):
    """sigmoid(SCORE_GAIN * E_from @ E_to^T), E_* = tanh(S @ w_*)."""
    s = p.static_features.data
    e_from = np.tanh(s @ p.w_from.data)
    e_to = np.tanh(s @ p.w_to.data)
    return 1.0 / (1.0 + np.exp(-SCORE_GAIN * e_from @ e_to.T))


# --- ops ---------------------------------------------------------------------


def test_edge_index_from_flat_is_row_major_csr():
    # flat indices 0 and 4 fall on the diagonal and are dropped
    edges = EdgeIndex.from_flat(3, np.array([0, 1, 2, 4, 6]))
    np.testing.assert_array_equal(edges.rows, [0, 0, 2])
    np.testing.assert_array_equal(edges.cols, [1, 2, 0])
    np.testing.assert_array_equal(edges.indptr, [0, 2, 2, 3])
    a = edges.csr(np.array([1.0, 2.0, 3.0])).toarray()
    np.testing.assert_array_equal(a, [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    np.testing.assert_array_equal(edges.dense(np.array([1.0, 2.0, 3.0])), a)


def test_kernel_choice_follows_the_density_threshold():
    # N=40: edges plus the 40 self-loops are sparse below 1600 / 16 = 100 entries
    def first_edges(k):
        off = np.flatnonzero(~np.eye(N, dtype=bool))
        return EdgeIndex.from_flat(N, off[:k])

    assert first_edges(59).sparse
    assert not first_edges(60).sparse


def test_edge_block_matmul_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(21)
    for trial in range(20):
        n, batch, d = (int(v) for v in rng.integers(1, 9, size=3))
        edges = random_edges(rng, n, share=0.0 if trial == 0 else 0.4)
        values = Tensor(rng.random(edges.rows.size), requires_grad=True)
        z = Tensor(rng.normal(size=(batch * n, d)), requires_grad=True)
        g = rng.normal(size=(batch * n, d))
        a = dense(edges, values.data)
        blocks, g3 = z.data.reshape(batch, n, d), g.reshape(batch, n, d)
        references = (
            np.matmul(a, blocks).reshape(batch * n, d),
            np.einsum("bid,bjd->ij", g3, blocks)[edges.rows, edges.cols],
            np.matmul(a.T, g3).reshape(batch * n, d),
        )
        for share in KERNELS.values():
            monkeypatch.setattr(autodiff, "SPARSE_SHARE", share)
            with Tape() as tape:
                out = edge_block_matmul(values, edges, z)
                dv, dz = tape.entries[-1].rule(g)
            for got, want in zip((out.data, dv, dz), references):
                atol = 1e-12 * max(1.0, np.abs(want).max(initial=0.0))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


def test_grad_check_edge_block_matmul_with_isolated_node(monkeypatch):
    # node 4 keeps only its self-loop: no edge leaves or enters it
    monkeypatch.setattr(autodiff, "SPARSE_SHARE", KERNELS["csr"])
    rng = np.random.default_rng(22)
    n, batch = 5, 3
    edges = random_edges(rng, n, share=0.6, isolated=(4,))
    assert 4 not in edges.rows and 4 not in edges.cols
    values = Tensor(rng.random(edges.rows.size), requires_grad=True)
    z = Tensor(rng.normal(size=(batch * n, 2)), requires_grad=True)
    target = Tensor(rng.normal(size=batch * n * 2))

    def f():
        return mse_loss(flatten(edge_block_matmul(values, edges, z)), target)

    assert grad_check(f, [values, z], step=1e-5) <= 1e-6


def test_grad_check_dense_kernel_value_gradient(monkeypatch):
    # the same check through the dense kernel, isolated node included
    monkeypatch.setattr(autodiff, "SPARSE_SHARE", KERNELS["dense"])
    rng = np.random.default_rng(22)
    n, batch = 5, 3
    edges = random_edges(rng, n, share=0.6, isolated=(4,))
    values = Tensor(rng.random(edges.rows.size), requires_grad=True)
    z = Tensor(rng.normal(size=(batch * n, 2)), requires_grad=True)
    target = Tensor(rng.normal(size=batch * n * 2))

    def f():
        return mse_loss(flatten(edge_block_matmul(values, edges, z)), target)

    assert not edges.sparse
    assert grad_check(f, [values, z], step=1e-5) <= 1e-6


def test_edge_value_gradient_does_not_depend_on_chunking(monkeypatch):
    monkeypatch.setattr(autodiff, "SPARSE_SHARE", KERNELS["csr"])
    rng = np.random.default_rng(23)
    n, batch = 9, 4
    edges = random_edges(rng, n, share=0.5)
    values = Tensor(rng.random(edges.rows.size), requires_grad=True)
    z = Tensor(rng.normal(size=(batch * n, 3)))
    g = rng.normal(size=(batch * n, 3))

    def value_grad():
        with Tape() as tape:
            edge_block_matmul(values, edges, z)
            return tape.entries[-1].rule(g)[0]

    whole = value_grad()
    monkeypatch.setattr(autodiff, "_EDGE_CHUNK", 1)  # one edge per chunk
    np.testing.assert_array_equal(value_grad(), whole)


def test_edge_block_matmul_shape_errors():
    edges = EdgeIndex.from_flat(2, np.array([1]))
    with pytest.raises(DimensionError):
        edge_block_matmul(Tensor([1.0, 2.0]), edges, Tensor(np.zeros((4, 1))))
    with pytest.raises(DimensionError):
        edge_block_matmul(Tensor([1.0]), edges, Tensor(np.zeros((3, 1))))


def test_edge_scores_equal_dense_scores_at_the_edges():
    rng = np.random.default_rng(24)
    p = structure_params(rng, n=6, max_edges=10)
    want = reference_scores(p)
    for edges in (None, random_edges(rng, 6, share=0.5)):
        edges, values = kept_edges(p, edges)
        np.testing.assert_allclose(values.data, want[edges.rows, edges.cols], rtol=1e-14)


def test_grad_check_kept_scores_against_both_embedding_maps(monkeypatch):
    rng = np.random.default_rng(25)
    p = structure_params(rng)
    frozen, _ = kept_edges(p)
    target = Tensor(rng.random(p.max_edges))

    def f():
        _, values = kept_edges(p, frozen)
        return mse_loss(values, target)

    for share in KERNELS.values():
        monkeypatch.setattr(autodiff, "SPARSE_SHARE", share)
        assert grad_check(f, [p.w_from, p.w_to], step=1e-6) <= 1e-6


def test_kept_edges_select_what_build_adjacency_keeps():
    rng = np.random.default_rng(26)
    for trial in range(5):
        p = structure_params(rng, n=9, max_edges=int(rng.integers(0, 72)))
        edges, values = kept_edges(p)
        scores = reference_scores(p)
        off = np.flatnonzero(~np.eye(9, dtype=bool))
        ranked = off[np.argsort(-scores.ravel()[off], kind="stable")]
        want = np.sort(ranked[: p.max_edges])
        np.testing.assert_array_equal(edges.rows * 9 + edges.cols, want)
        np.testing.assert_allclose(values.data, scores[edges.rows, edges.cols], rtol=1e-14)


def test_kept_edges_gradients_match_dense_scores(monkeypatch):
    rng = np.random.default_rng(27)
    p = structure_params(rng)
    weights = rng.normal(size=(7, 7))
    edges, values = kept_edges(p)
    # the chain rule by hand, over the dense scores with dropped entries at 0
    s = p.static_features.data
    e_from = np.tanh(s @ p.w_from.data)
    e_to = np.tanh(s @ p.w_to.data)
    y = reference_scores(p)
    dy = np.zeros((7, 7))
    dy[edges.rows, edges.cols] = 2.0 * (values.data - weights[edges.rows, edges.cols])
    dlogits = dy / edges.rows.size * y * (1.0 - y) * SCORE_GAIN
    d_from = dlogits @ e_to * (1.0 - e_from**2)
    d_to = dlogits.T @ e_from * (1.0 - e_to**2)

    for share in KERNELS.values():
        monkeypatch.setattr(autodiff, "SPARSE_SHARE", share)
        p.w_from.zero_grad()
        p.w_to.zero_grad()
        with Tape():
            edges, values = kept_edges(p)
            backward(mse_loss(values, Tensor(weights[edges.rows, edges.cols])))
        np.testing.assert_allclose(p.w_from.grad, s.T @ d_from, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p.w_to.grad, s.T @ d_to, rtol=1e-12, atol=1e-14)


# The structure learner as separate ops, before they were folded into
# kept_edges: matmul, tanh, then the edge-score op, each recorded on its own.
# The reference for the bits of the fold.


def _old_tanh(x):
    out = _make_output(np.tanh(x.data.copy()), x)
    return record_op(out, (x,), lambda g: (g * (1.0 - out.data * out.data),))


def _old_edge_scores(emb_from, emb_to, edges, gain, scores):
    out = _make_output(scores, emb_from, emb_to)
    sparse = edges.sparse

    def rule(g):
        y = out.data
        grad = g * y * (1.0 - y) * gain
        if sparse:
            grad = edges.csr(grad)
            return (grad @ emb_to.data, grad.T @ emb_from.data)
        grad = edges.dense(grad)
        return (grad @ emb_to.data.T.copy().T, (emb_from.data.T @ grad).T)

    return record_op(out, (emb_from, emb_to), rule)


def old_kept_edges(p, edges=None):
    emb_from, emb_to = (_old_tanh(matmul(p.static_features, w)) for w in (p.w_from, p.w_to))
    logits = emb_from.data @ emb_to.data.T.copy()
    if edges is None:
        edges, kept = top_edges(logits, p.max_edges)
    else:
        kept = logits[edges.rows, edges.cols]
    kept = _sigmoid(kept * SCORE_GAIN)
    return edges, _old_edge_scores(emb_from, emb_to, edges, SCORE_GAIN, kept)


@pytest.mark.parametrize("workspace", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kept_edges_keep_the_bits_of_the_separate_ops(monkeypatch, kernel, workspace):
    monkeypatch.setattr(autodiff, "SPARSE_SHARE", KERNELS[kernel])
    rng = np.random.default_rng(8513)
    p = structure_params(rng, n=N, d_in=6, d_emb=5, max_edges=3 * N)
    weights = rng.normal(size=(N, N))

    def run(build, frozen):
        p.w_from.zero_grad()
        p.w_to.zero_grad()
        with Workspace() if workspace else nullcontext(), Tape():
            for _ in range(2):  # a second step reuses the first one's buffers
                edges, values = build(p, frozen)
                backward(mse_loss(values, Tensor(weights[edges.rows, edges.cols])))
        return edges, values.data, p.w_from.grad, p.w_to.grad

    for frozen in (None, random_edges(rng, N, share=0.3)):
        (edges, *got), (want_edges, *want) = run(kept_edges, frozen), run(old_kept_edges, frozen)
        np.testing.assert_array_equal(edges.rows, want_edges.rows)
        np.testing.assert_array_equal(edges.cols, want_edges.cols)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_kept_edges_check_the_embedding_before_the_tanh():
    # XW overflows to +-inf, which tanh would map to +-1.0
    p = StructureParams(
        static_features=Tensor(np.full((3, 1), 1e308)),
        w_from=Tensor([[10.0]], requires_grad=True),
        w_to=Tensor([[-1.0]], requires_grad=True),
        max_edges=2,
    )
    with np.errstate(over="ignore"):
        assert not np.isfinite(matmul(p.static_features, p.w_from).data).all()
        with pytest.raises(NumericError, match="static_features @ w overflows"):
            kept_edges(p)


def test_frozen_edges_of_another_node_count_rejected():
    rng = np.random.default_rng(8514)
    p = structure_params(rng, n=7)
    for n in (6, 8):
        with pytest.raises(DimensionError):
            kept_edges(p, EdgeIndex.from_flat(n, np.array([1, n + 2])))


# --- the model on both sides of the threshold --------------------------------------


def sparse_state(edge_mode="learned", seed=3):
    rng = np.random.default_rng(seed)
    # widening 4 -> 6 aggregates first, narrowing 6 -> 3 transforms first
    cfg = GcnConfig(layer_dims=[6, 3], window=2, features_per_node=2)
    ring = np.eye(N) + np.roll(np.eye(N), 1, axis=1)
    return init_params(
        cfg,
        rng.normal(size=(N, 4)),
        np.column_stack([rng.uniform(-60, 60, N), rng.uniform(0, 360, N)]),
        seed=seed,
        embed_dim=3,
        max_edges=N,
        local_edges=off_diagonal(ring) if edge_mode == "local" else None,
    )


def forward_and_grads(state, x, y, edges):
    params = state.parameters()
    for _, t in params:
        t.zero_grad()
    with Tape():
        pred = forward_batch(state, x, edges=edges)
        backward(mse_loss(pred, y))
    grads = {name: t.grad.copy() for name, t in params}
    for _, t in params:
        t.zero_grad()
    return pred.data, grads


@pytest.mark.parametrize("case", ["learned", "learned_kept_mask", "local"])
def test_edge_path_matches_dense_path(case, monkeypatch):
    # the CSR and the dense kernels give the same predictions and gradients
    state = sparse_state("local" if case == "local" else "learned")
    frozen = model_edges(state)[0] if case == "learned_kept_mask" else None
    assert model_edges(state, frozen)[0].sparse  # below the density threshold
    rng = np.random.default_rng(4)
    batch = 3
    x = Tensor(rng.normal(size=(batch * N, 4)))
    y = Tensor(rng.normal(size=batch))
    samples = SampleSet(
        inputs=rng.normal(size=(5, N, 4)),
        targets=rng.normal(size=5),
        window_end=np.arange(5),
        end_calendar_month=np.arange(5) % 12 + 1,
        window=2,
        lead=1,
    )
    # running statistics stay untouched by the eval-mode predictions
    running = [
        RunningStats(norm.running.mean.copy(), norm.running.var.copy())
        for norm in state.gcn_norms + [state.mlp_norm]
    ]
    monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", 2 * N)  # blocks of 2, 2 and 1 samples
    results = {}
    for kernel, share in KERNELS.items():
        for norm, saved in zip(state.gcn_norms + [state.mlp_norm], running):
            norm.running = RunningStats(saved.mean.copy(), saved.var.copy())
        monkeypatch.setattr(autodiff, "SPARSE_SHARE", share)
        pred, grads = forward_and_grads(state, x, y, frozen)
        results[kernel] = pred, grads, predict_samples(state, samples)

    (csr_pred, csr_grads, csr_samples), (dense_pred, dense_grads, dense_samples) = (
        results["csr"],
        results["dense"],
    )
    np.testing.assert_allclose(csr_pred, dense_pred, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(csr_samples, dense_samples, rtol=1e-10, atol=1e-10)
    assert csr_grads.keys() == dense_grads.keys()
    for name in csr_grads:
        np.testing.assert_allclose(
            csr_grads[name], dense_grads[name], rtol=1e-10, atol=1e-10, err_msg=name
        )


def test_model_edges_describe_model_adjacency():
    for mode in ("learned", "local"):
        state = sparse_state(mode)
        edges, values = model_edges(state)
        np.testing.assert_array_equal(dense(edges, values.data), model_adjacency(state).data)
    ring = np.eye(N) + np.roll(np.eye(N), 1, axis=1)  # the local matrix of sparse_state
    np.testing.assert_array_equal(model_adjacency(state).data, ring)


def test_dense_graphs_keep_the_dense_path():
    state = sparse_state()
    state.structure.max_edges = 4 * N  # 200 of 1600 entries, above N^2 / 16
    edges, _ = model_edges(state)
    assert edges.rows.size == 4 * N and not edges.sparse


@pytest.mark.parametrize(
    "flat, values",
    [
        # each breaks one rule of the edges (0, 1), (1, 2) and (2, 0)
        ([1, N + 1, 2 * N], np.ones(3)),  # (1, 1) is on the diagonal
        ([1, N + 2, N + 2], np.ones(3)),  # repeated
        ([N + 2, 1, 2 * N], np.ones(3)),  # descending
        ([1, N * N], np.ones(2)),  # past the last entry
        ([-1, 1], np.ones(2)),
        (np.array([1.0, N + 2.0]), np.ones(2)),  # not integers
        ([1, N + 2], np.ones(3)),  # a value too many
        ([[1, N + 2]], np.ones((1, 2))),  # not a list
    ],
    ids=[
        "diagonal", "repeated", "descending", "past_n_squared", "negative", "float_indices",
        "extra_value", "two_dimensional",
    ],
)
def test_local_edges_must_be_ascending_off_diagonal_flat_indices(flat, values):
    with pytest.raises(ConfigError, match="local_edges must be ascending off-diagonal"):
        init_params(
            GcnConfig(layer_dims=[6, 3], window=2, features_per_node=2),
            np.zeros((N, 4)),
            np.zeros((N, 2)),
            seed=0,
            embed_dim=32,
            max_edges=None,
            local_edges=(np.asarray(flat), values),
        )


# --- the lazy scipy import -----------------------------------------------------

LAZY_IMPORT_SCRIPT = """
import sys
import onigraph
from onigraph.data import prepare_dataset, synth_teleconnection_dataset
from onigraph.training import (
    TrainConfig, build_model, evaluate, model_config_from_preset, train,
)
print("scipy" in sys.modules)
grid, _ = synth_teleconnection_dataset(8, 8, 60, 1, seed=0)
bundle = prepare_dataset(grid, window=3, lead=1, train_fraction=0.8)
model_cfg = model_config_from_preset("gcn2a", lead_months=1, layer_dims=[8, 4])

def one_step(max_edges):
    cfg = TrainConfig(epochs=1, batch_size=len(bundle.train), embed_dim=8, max_edges=max_edges)
    state = build_model(bundle, model_cfg, cfg)
    train(state, bundle.train, cfg)
    return state

evaluate(one_step(None), bundle.test)
print("scipy" in sys.modules)
one_step(bundle.nodes.count)
print("scipy" in sys.modules)
"""


def test_scipy_is_imported_on_the_edge_path_only():
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # after import; after a desk-size step and evaluate; after a sparse step
    assert proc.stdout.split() == ["False", "False", "True"]
