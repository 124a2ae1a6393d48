"""The edge-list graph path: its ops, its agreement with the dense path,
and the lazy scipy import that keeps dense-only runs small."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onigraph
from onigraph import autodiff, model
from onigraph.autodiff import (
    EdgeIndex,
    Tape,
    Tensor,
    backward,
    block_matmul,
    edge_block_matmul,
    edge_scores,
    flatten,
    grad_check,
    mse_loss,
    mul_mask,
    scale,
)
from onigraph.data import SampleSet
from onigraph.errors import DimensionError
from onigraph.model import GcnConfig, forward_batch, init_params, model_adjacency, model_edges
from onigraph.structure import StructureParams, build_adjacency, compute_scores, kept_edges
from onigraph.training import predict_samples


def random_edges(rng, n, share=0.3, isolated=()):
    mask = rng.random((n, n)) < share
    np.fill_diagonal(mask, False)
    for i in isolated:
        mask[i, :] = mask[:, i] = False
    return EdgeIndex.from_mask(mask)


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


# --- ops ---------------------------------------------------------------------


def test_edge_index_from_mask_is_row_major_csr():
    mask = np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0]], dtype=bool)
    edges = EdgeIndex.from_mask(mask)
    np.testing.assert_array_equal(edges.rows, [0, 0, 2])
    np.testing.assert_array_equal(edges.cols, [1, 2, 0])
    np.testing.assert_array_equal(edges.indptr, [0, 2, 2, 3])
    a = edges.csr(np.array([1.0, 2.0, 3.0])).toarray()
    np.testing.assert_array_equal(a, [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])


def test_edge_block_matmul_matches_dense_reference():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n, batch, d = (int(v) for v in rng.integers(1, 9, size=3))
        edges = random_edges(rng, n, share=0.0 if trial == 0 else 0.4)
        values = Tensor(rng.random(edges.rows.size), requires_grad=True)
        z = Tensor(rng.normal(size=(batch * n, d)), requires_grad=True)
        g = rng.normal(size=(batch * n, d))
        with Tape() as tape:
            out = edge_block_matmul(values, edges, z)
            dv, dz = tape.entries[-1].rule(g)
        a = Tensor(dense(edges, values.data), requires_grad=True)
        with Tape() as tape:
            ref = block_matmul(a, z, n)
            da, dz_ref = tape.entries[-1].rule(g)
        for got, want in ((out.data, ref.data), (dv, da[edges.rows, edges.cols]), (dz, dz_ref)):
            atol = 1e-12 * max(1.0, np.abs(want).max(initial=0.0))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


def test_grad_check_edge_block_matmul_with_isolated_node():
    # node 4 keeps only its self-loop: no edge leaves or enters it
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


def test_edge_value_gradient_does_not_depend_on_chunking(monkeypatch):
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
    edges = EdgeIndex.from_mask(np.array([[False, True], [False, False]]))
    with pytest.raises(DimensionError):
        edge_block_matmul(Tensor([1.0, 2.0]), edges, Tensor(np.zeros((4, 1))))
    with pytest.raises(DimensionError):
        edge_block_matmul(Tensor([1.0]), edges, Tensor(np.zeros((3, 1))))


def test_edge_scores_equal_dense_scores_at_the_edges():
    rng = np.random.default_rng(24)
    emb_from, emb_to = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=(6, 3)))
    edges = random_edges(rng, 6, share=0.5)
    logits = 2.0 * emb_from.data @ emb_to.data.T
    want = 1.0 / (1.0 + np.exp(-logits))
    got = edge_scores(emb_from, emb_to, edges, 2.0).data
    np.testing.assert_allclose(got, want[edges.rows, edges.cols], rtol=1e-14)


def test_grad_check_kept_scores_against_both_embedding_maps():
    rng = np.random.default_rng(25)
    p = structure_params(rng)
    mask = build_adjacency(p).kept_mask
    target = Tensor(rng.random(p.max_edges))

    def f():
        _, values = kept_edges(p, kept_mask=mask)
        return mse_loss(values, target)

    assert grad_check(f, [p.w_from, p.w_to], step=1e-6) <= 1e-6


def test_kept_edges_select_what_build_adjacency_keeps():
    rng = np.random.default_rng(26)
    for trial in range(5):
        p = structure_params(rng, n=9, max_edges=int(rng.integers(0, 72)))
        edges, values = kept_edges(p)
        adj = build_adjacency(p)
        off = adj.kept_mask & ~np.eye(9, dtype=bool)
        np.testing.assert_array_equal(EdgeIndex.from_mask(off).rows, edges.rows)
        np.testing.assert_array_equal(EdgeIndex.from_mask(off).cols, edges.cols)
        scores = compute_scores(p).data
        np.testing.assert_allclose(values.data, scores[edges.rows, edges.cols], rtol=1e-14)


def test_kept_edges_gradients_match_dense_scores():
    rng = np.random.default_rng(27)
    p = structure_params(rng)
    weights = rng.normal(size=(7, 7))

    def grads(build):
        p.w_from.zero_grad()
        p.w_to.zero_grad()
        with Tape():
            backward(build())
        return p.w_from.grad.copy(), p.w_to.grad.copy()

    def sparse_loss():
        edges, values = kept_edges(p)
        w = Tensor(weights[edges.rows, edges.cols])
        return mse_loss(values, w)

    def dense_loss():
        # the same loss over the masked dense scores: dropped entries add 0
        edges, _ = kept_edges(p)
        off = np.zeros((7, 7), dtype=bool)
        off[edges.rows, edges.cols] = True
        loss = mse_loss(flatten(mul_mask(compute_scores(p), off)), Tensor((weights * off).ravel()))
        return scale(loss, 49 / edges.rows.size)

    for got, want in zip(grads(sparse_loss), grads(dense_loss)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


# --- the model's two paths -----------------------------------------------------

N = 40


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
        edge_mode=edge_mode,
        fixed_adjacency=ring if edge_mode == "local" else None,
    )


def forward_and_grads(state, x, y, kept_mask):
    params = state.parameters()
    for _, t in params:
        t.zero_grad()
    with Tape():
        pred = forward_batch(state, x, len(y.data), mode="train", kept_mask=kept_mask)
        backward(mse_loss(pred, y))
    grads = {name: t.grad.copy() for name, t in params}
    for _, t in params:
        t.zero_grad()
    return pred.data, grads


@pytest.mark.parametrize("case", ["learned", "learned_kept_mask", "local"])
def test_edge_path_matches_dense_path(case, monkeypatch):
    state = sparse_state("local" if case == "local" else "learned")
    kept_mask = build_adjacency(state.structure).kept_mask if case == "learned_kept_mask" else None
    assert model_edges(state, kept_mask) is not None  # below the density threshold
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
    running = [norm.running.copy() for norm in state.gcn_norms + [state.mlp_norm]]
    edge_pred, edge_grads = forward_and_grads(state, x, y, kept_mask)
    edge_samples = predict_samples(state, samples, chunk=2)

    for norm, saved in zip(state.gcn_norms + [state.mlp_norm], running):
        norm.running = saved.copy()
    monkeypatch.setattr(model, "SPARSE_SHARE", 0.0)
    assert model_edges(state, kept_mask) is None
    dense_pred, dense_grads = forward_and_grads(state, x, y, kept_mask)
    dense_samples = predict_samples(state, samples, chunk=2)

    np.testing.assert_allclose(edge_pred, dense_pred, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(edge_samples, dense_samples, rtol=1e-10, atol=1e-10)
    assert edge_grads.keys() == dense_grads.keys()
    for name in edge_grads:
        np.testing.assert_allclose(
            edge_grads[name], dense_grads[name], rtol=1e-10, atol=1e-10, err_msg=name
        )


def test_model_edges_describe_model_adjacency():
    for mode in ("learned", "local"):
        state = sparse_state(mode)
        edges, values = model_edges(state)
        np.testing.assert_allclose(
            dense(edges, values.data), model_adjacency(state).data, rtol=1e-14, atol=0.0
        )


def test_dense_graphs_keep_the_dense_path():
    state = sparse_state()
    state.structure.max_edges = 4 * N  # 200 of 1600 entries, above N^2 / 16
    assert model_edges(state) is None
    state = sparse_state("local")
    state.fixed_adjacency[0, 0] = 0.5  # not a unit self-loop
    assert model_edges(state) is None


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
