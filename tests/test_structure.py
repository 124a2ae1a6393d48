import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onigraph.autodiff import (
    EdgeIndex,
    Tensor,
    _sigmoid,
    block_reduce,
    edge_block_matmul,
    flatten,
    grad_check,
    mse_loss,
)
from onigraph.errors import ConfigError, NumericError
from onigraph.model import GcnConfig, init_params, model_adjacency
from onigraph.structure import StructureParams, kept_edges, top_edges


def make_params(n=5, d_in=4, d_emb=3, seed=0, max_edges=None, **kw):
    rng = np.random.default_rng(seed)
    return StructureParams(
        static_features=Tensor(rng.normal(size=(n, d_in))),
        w_from=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        w_to=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        max_edges=n * (n - 1) if max_edges is None else max_edges,
        **kw,
    )


def all_scores(p):
    """Every off-diagonal edge score as an (n, n) array with a zero diagonal."""
    every = EdgeIndex.from_flat(p.node_count, np.arange(p.node_count**2))
    _, values = kept_edges(p, every)
    return every.dense(values.data)


def top_mask(logits, e):
    """The edges :func:`top_edges` keeps, as an (n, n) boolean mask."""
    edges, _ = top_edges(logits, e)
    mask = np.zeros(logits.shape, dtype=bool)
    mask[edges.rows, edges.cols] = True
    return mask


def adjacency(p):
    """I + A of the kept edges."""
    edges, values = kept_edges(p)
    return edges.dense(values.data, self_loops=True)


# --- score computation -------------------------------------------------------


def test_zero_weights_give_half_everywhere():
    p = make_params()
    p.w_from.data[...] = 0.0
    p.w_to.data[...] = 0.0
    _, values = kept_edges(p)
    np.testing.assert_array_equal(values.data, np.full(20, 0.5))


def test_scalar_score_oracle():
    p = StructureParams(
        static_features=Tensor([[1.0], [0.0], [-1.0]]),
        w_from=Tensor([[1.0]]),
        w_to=Tensor([[-1.0]]),
        feature_gain=1.0,
        score_gain=1.0,
        max_edges=6,
    )
    scores = all_scores(p)
    # sender embed tanh(x), receiver embed tanh(-x); entry (0, 2) pairs +1 with -(-1)
    raw = math.tanh(1.0) * math.tanh(1.0)
    expected = 1.0 / (1.0 + math.exp(-raw))
    assert scores[0, 2] == pytest.approx(expected, abs=1e-12)
    assert scores[0, 2] == pytest.approx(0.641073, abs=1e-6)


def test_score_gain_preserves_ordering():
    base = make_params(seed=3, score_gain=1.0)
    sharp = make_params(seed=3, score_gain=5.0)
    lo = all_scores(base)
    hi = all_scores(sharp)
    assert not np.allclose(lo, hi)
    assert np.array_equal(np.argsort(lo, axis=None), np.argsort(hi, axis=None))


# --- sparsification ----------------------------------------------------------


def test_keep_all_when_budget_covers_offdiagonal():
    p = make_params(n=4, max_edges=12)
    edges, values = kept_edges(p)
    assert edges.rows.size == 12
    kept = edges.dense(values.data)
    np.testing.assert_array_equal(kept, all_scores(p))
    assert np.all(kept[np.eye(4, dtype=bool)] == 0.0)


def test_two_node_example_keeps_largest():
    logits = np.array([[0.9, 0.1], [0.4, 0.9]])
    edges, kept = top_edges(logits, 1)
    np.testing.assert_array_equal(edges.dense(kept), [[0.0, 0.0], [_sigmoid(logits)[1, 0], 0.0]])
    assert (edges.rows.tolist(), edges.cols.tolist()) == ([1], [0])


def test_zero_budget_clears_offdiagonal():
    edges, values = kept_edges(make_params(max_edges=0))
    assert edges.rows.size == 0 and values.shape == (0,)
    np.testing.assert_array_equal(edges.dense(values.data), np.zeros((5, 5)))


def test_tie_break_is_lexicographic():
    scores = np.full((3, 3), 0.5)
    mask = top_mask(scores, 2)
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 1] = expected[0, 2] = True  # smallest (row, col) pairs win ties
    np.testing.assert_array_equal(mask, expected)


def test_sparsify_matches_bruteforce_sort():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        scores = rng.random((n, n))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        e = int(rng.integers(0, n * (n - 1) + 1))
        mask = top_mask(scores, e)
        sig = _sigmoid(scores)
        ranked = sorted(
            ((i, j) for i in range(n) for j in range(n) if i != j),
            key=lambda ij: (-sig[ij], ij[0], ij[1]),
        )
        expected = np.zeros((n, n), dtype=bool)
        for i, j in ranked[:e]:
            expected[i, j] = True
        np.testing.assert_array_equal(mask, expected)


def bruteforce_mask(scores, e):
    n = scores.shape[0]
    ranked = sorted(
        ((i, j) for i in range(n) for j in range(n) if i != j),
        key=lambda ij: (-scores[ij], ij[0], ij[1]),
    )
    expected = np.zeros((n, n), dtype=bool)
    for i, j in ranked[:e]:
        expected[i, j] = True
    return expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.sampled_from([-math.inf, -1.0, 0.0, 0.25, 0.5, 1.0, math.inf]),
                min_size=n * n,
                max_size=n * n,
            ),
            st.integers(min_value=0, max_value=n * (n - 1) + 5),
        ).map(lambda pair: (np.array(pair[0]).reshape(n, n), pair[1]))
    )
)
def test_top_edges_matches_bruteforce_with_heavy_ties(case):
    scores, e = case
    np.testing.assert_array_equal(top_mask(scores, e), bruteforce_mask(_sigmoid(scores), e))


@pytest.mark.parametrize("extra", [0, 5])
def test_budget_at_or_above_offdiagonal_count_keeps_every_edge(extra):
    scores = np.random.default_rng(8).random((6, 6))
    mask = top_mask(scores, 6 * 5 + extra)
    np.testing.assert_array_equal(mask, ~np.eye(6, dtype=bool))


def test_all_equal_scores_fill_in_row_major_order():
    n, e = 5, 7
    mask = top_mask(np.full((n, n), 0.3), e)
    expected = np.zeros(n * (n - 1), dtype=bool)
    expected[:e] = True
    np.testing.assert_array_equal(mask[~np.eye(n, dtype=bool)], expected)


def test_infinite_scores_are_ranked_exactly():
    scores = np.array(
        [
            [math.inf, -math.inf, 0.5, math.inf],
            [0.2, math.inf, -math.inf, 0.5],
            [math.inf, 0.1, -math.inf, -math.inf],
            [-math.inf, 0.5, 0.0, math.inf],
        ]
    )
    for e in range(4 * 3 + 1):
        np.testing.assert_array_equal(top_mask(scores, e), bruteforce_mask(_sigmoid(scores), e))
    # the infinite diagonal never takes a slot from the two infinite edges
    expected = np.zeros((4, 4), dtype=bool)
    expected[0, 3] = expected[2, 0] = True
    np.testing.assert_array_equal(top_mask(scores, 2), expected)


def test_nan_scores_rejected():
    scores = np.full((3, 3), 0.5)
    scores[1, 2] = math.nan
    with pytest.raises(NumericError):
        top_edges(scores, 2)


def test_top_edges_leaves_scores_untouched():
    rng = np.random.default_rng(5)
    for e in (0, 3, 20, 30):
        scores = np.round(rng.normal(size=(6, 6)), 1)
        scores[0, 1] = math.inf
        scores[2, 2] = -math.inf
        before = scores.copy()
        top_edges(scores, e)
        np.testing.assert_array_equal(scores, before)


def test_top_edges_indptr_holds_csr_row_pointers():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        scores = np.round(rng.random((n, n)), 1)
        edges, _ = top_edges(scores, int(rng.integers(0, n * (n - 1) + 1)))
        assert edges.indptr.dtype == np.int32
        assert edges.indptr[0] == 0 and edges.indptr[-1] == edges.rows.size
        for i in range(n):
            row = slice(edges.indptr[i], edges.indptr[i + 1])
            np.testing.assert_array_equal(edges.rows[row], i)
            assert np.all(np.diff(edges.cols[row]) > 0)


def test_top_edges_at_full_grid_size_matches_lexsort():
    # the full-grid node count and its default budget of 8N; logits on a
    # grid of 1000 levels tie the e-th score many times over, and the
    # diagonal sits above it
    n, e = 1346, 8 * 1346
    scores = np.round(np.random.default_rng(7).random((n, n)), 3)
    np.fill_diagonal(scores, 1.0)
    sig = _sigmoid(scores).ravel()
    rows, cols = np.divmod(np.arange(n * n), n)
    off = np.flatnonzero(rows != cols)
    ranked = off[np.lexsort((cols[off], rows[off], -sig[off]))]
    kept = np.sort(ranked[:e])
    edges, values = top_edges(scores, e)
    np.testing.assert_array_equal(edges.rows, kept // n)
    np.testing.assert_array_equal(edges.cols, kept % n)
    np.testing.assert_array_equal(values.view(np.uint64), sig[kept].view(np.uint64))


def assert_selects_like_bruteforce(logits, e):
    """The kept edges and their score bits are those of a sort over the
    sigmoid of every logit."""
    scores = _sigmoid(logits)
    flat = np.flatnonzero(bruteforce_mask(scores, e))
    edges, values = top_edges(logits, e)
    np.testing.assert_array_equal(edges.rows.astype(np.intp) * logits.shape[0] + edges.cols, flat)
    np.testing.assert_array_equal(values.view(np.uint64), scores.ravel()[flat].view(np.uint64))


# logits whose scores saturate at 1.0 (x >= 37) or round to a few subnormal
# steps (x near -745), so distinct logits tie in score; rounded logits,
# which tie exactly; and the infinities
_BAND_LOGITS = st.one_of(
    st.floats(min_value=37.0, max_value=800.0),
    st.floats(min_value=-747.0, max_value=-37.0),
    st.floats(min_value=-40.0, max_value=40.0).map(lambda v: round(v, 1)),
    st.sampled_from([-math.inf, math.inf, 27.7, -744.4, -745.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(_BAND_LOGITS, min_size=n * n, max_size=n * n),
            st.integers(min_value=0, max_value=n * (n - 1) + 5),
        ).map(lambda pair: (np.array(pair[0]).reshape(n, n), pair[1]))
    )
)
def test_band_selection_matches_bruteforce_over_every_score(case):
    logits, e = case
    assert_selects_like_bruteforce(logits, e)


def test_subnormal_and_saturated_scores_tie_across_logits():
    # the scores of -744.2 through -745.0 round to one subnormal step, those
    # of -745.3 and below to 0, and every logit at or above 37 scores 1.0
    logits = np.array(
        [
            [0.0, -744.0, -744.2, -744.4],
            [-744.6, 0.0, -745.0, -745.3],
            [37.0, 40.0, 0.0, -800.0],
            [38.5, -746.0, -744.1, 0.0],
        ]
    )
    scores = _sigmoid(logits)
    assert scores[0, 1] > scores[0, 2] == scores[1, 2] > scores[1, 3] == scores[2, 3] == 0.0
    assert scores[2, 0] == scores[2, 1] == scores[3, 0] == 1.0
    for e in range(4 * 3 + 1):
        assert_selects_like_bruteforce(logits, e)
        assert_selects_like_bruteforce(logits[:, ::-1] - 3.0, e)


def test_band_scores_match_the_frozen_edge_gather():
    p = make_params(n=30, seed=17, max_edges=90, score_gain=40.0)
    edges, values = kept_edges(p)
    _, frozen = kept_edges(p, edges)
    np.testing.assert_array_equal(values.data.view(np.uint64), frozen.data.view(np.uint64))


def test_kept_edges_at_full_grid_size_stays_below_two_and_a_half_logit_arrays():
    # the logits and one partitioned copy are the only N x N float arrays
    n = 1345
    p = make_params(n=n, d_in=6, d_emb=8, seed=4, max_edges=8 * n)
    tracemalloc.start()
    try:
        kept_edges(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


# --- self-loops ---------------------------------------------------------------


def test_self_loops_on_zero_matrix_give_identity():
    edges = EdgeIndex.from_flat(3, np.zeros(0, dtype=int))
    np.testing.assert_array_equal(edges.dense(np.zeros(0), self_loops=True), np.eye(3))


def test_self_loops_idempotent():
    # a matrix with unit self-loops comes back unchanged from its edge list
    base = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.8, 0.5, 1.0]])
    edges = EdgeIndex.from_flat(3, np.flatnonzero(base))  # the diagonal is dropped
    out = edges.dense(base[edges.rows, edges.cols], self_loops=True)
    np.testing.assert_array_equal(out, base)


def test_self_loops_leave_offdiagonal_untouched():
    base = np.array([[0.0, 0.7], [0.2, 0.0]])
    edges = EdgeIndex.from_flat(2, np.flatnonzero(base > 0))
    out = edges.dense(base[edges.rows, edges.cols], self_loops=True)
    np.testing.assert_array_equal(out, [[1.0, 0.7], [0.2, 1.0]])


# --- the kept graph -------------------------------------------------------------


def test_edge_budget_of_eight_per_node_average():
    n = 10
    p = make_params(n=n, seed=9, max_edges=8 * n)
    off = ~np.eye(n, dtype=bool)
    assert np.count_nonzero(adjacency(p)[off]) <= 8 * n


def test_build_adjacency_deterministic():
    p = make_params(n=7, seed=5, max_edges=11)
    (edges_a, a), (edges_b, b) = kept_edges(p), kept_edges(p)
    np.testing.assert_array_equal(edges_a.rows, edges_b.rows)
    np.testing.assert_array_equal(edges_a.cols, edges_b.cols)
    np.testing.assert_array_equal(a.data, b.data)


def test_bidirectional_edges_possible():
    # identical sender/receiver maps give a symmetric score matrix, so the
    # top pair survives in both directions
    rng = np.random.default_rng(2)
    feats = Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(3, 2))
    p = StructureParams(
        static_features=feats,
        w_from=Tensor(w.copy()),
        w_to=Tensor(w.copy()),
        max_edges=2,
    )
    edges, _ = kept_edges(p)
    assert edges.rows.size == 2
    (i1, i2), (j1, j2) = edges.rows, edges.cols
    assert (i1, j1) == (j2, i2)


def test_kept_set_invariant_to_score_gain():
    masks = []
    for gain in (0.5, 2.0, 8.0):
        p = make_params(n=8, seed=13, max_edges=20, score_gain=gain)
        edges, _ = kept_edges(p)
        masks.append(edges.dense(np.ones(edges.rows.size)))
    np.testing.assert_array_equal(masks[0], masks[1])
    np.testing.assert_array_equal(masks[1], masks[2])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_adjacency_invariants_random_params(n, budget_raw, seed):
    budget = budget_raw % (n * (n - 1) + 1)
    rng = np.random.default_rng(seed)
    state = init_params(
        GcnConfig(layer_dims=[2]),
        rng.normal(size=(n, 4)),
        np.zeros((n, 2)),
        seed=seed,
        embed_dim=3,
        max_edges=budget,
    )
    edges, values = kept_edges(state.structure)
    assert edges.rows.size <= budget
    assert np.all(edges.rows != edges.cols)
    assert np.all(values.data >= 0.0) and np.all(values.data <= 1.0)
    a = model_adjacency(state).data
    np.testing.assert_array_equal(a[edges.rows, edges.cols], values.data)
    off = ~np.eye(n, dtype=bool)
    assert np.count_nonzero(a[off]) <= budget
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    np.testing.assert_array_equal(np.diag(a), np.ones(n))


def test_structure_gradients_with_frozen_mask():
    p = make_params(n=5, seed=21, max_edges=8)
    frozen, _ = kept_edges(p)

    def f():
        _, values = kept_edges(p, frozen)
        adj = edge_block_matmul(values, frozen, Tensor(np.eye(5)))  # I + A
        pooled = flatten(block_reduce(adj, 5, "mean"))
        return mse_loss(pooled, Tensor(np.linspace(0.0, 1.0, 5)))

    assert grad_check(f, [p.w_from, p.w_to], step=1e-5) <= 1e-4


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        make_params(feature_gain=0.0)
    with pytest.raises(ConfigError):
        make_params(n=3, max_edges=7)
