import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onigraph.autodiff import (
    Tape,
    Tensor,
    backward,
    block_reduce,
    flatten,
    grad_check,
    mse_loss,
    mul_mask,
)
from onigraph.errors import ConfigError, NumericError
from onigraph.structure import (
    Adjacency,
    StructureParams,
    add_self_loops,
    build_adjacency,
    compute_scores,
    sparsify_top_e,
    top_edges_mask,
)


def make_params(n=5, d_in=4, d_emb=3, seed=0, max_edges=None, **kw):
    rng = np.random.default_rng(seed)
    return StructureParams(
        static_features=Tensor(rng.normal(size=(n, d_in))),
        w_from=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        w_to=Tensor(rng.normal(size=(d_in, d_emb)), requires_grad=True),
        max_edges=n * (n - 1) if max_edges is None else max_edges,
        **kw,
    )


# --- score computation -------------------------------------------------------


def test_zero_weights_give_half_everywhere():
    p = make_params()
    p.w_from.data[...] = 0.0
    p.w_to.data[...] = 0.0
    np.testing.assert_array_equal(compute_scores(p).data, np.full((5, 5), 0.5))


def test_scalar_score_oracle():
    p = StructureParams(
        static_features=Tensor([[1.0], [0.0], [-1.0]]),
        w_from=Tensor([[1.0]]),
        w_to=Tensor([[-1.0]]),
        feature_gain=1.0,
        score_gain=1.0,
        max_edges=6,
    )
    scores = compute_scores(p).data
    # sender embed tanh(x), receiver embed tanh(-x); entry (0, 2) pairs +1 with -(-1)
    raw = math.tanh(1.0) * math.tanh(1.0)
    expected = 1.0 / (1.0 + math.exp(-raw))
    assert scores[0, 2] == pytest.approx(expected, abs=1e-12)
    assert scores[0, 2] == pytest.approx(0.641073, abs=1e-6)


def test_score_gain_preserves_ordering():
    base = make_params(seed=3, score_gain=1.0)
    sharp = make_params(seed=3, score_gain=5.0)
    lo = compute_scores(base).data
    hi = compute_scores(sharp).data
    assert not np.allclose(lo, hi)
    assert np.array_equal(np.argsort(lo, axis=None), np.argsort(hi, axis=None))


# --- sparsification ----------------------------------------------------------


def test_keep_all_when_budget_covers_offdiagonal():
    p = make_params(n=4)
    scores = compute_scores(p)
    adj = sparsify_top_e(scores, 12)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_array_equal(adj.matrix.data[off], scores.data[off])
    assert np.all(adj.matrix.data[np.eye(4, dtype=bool)] == 0.0)


def test_two_node_example_keeps_largest():
    scores = Tensor([[0.9, 0.1], [0.4, 0.9]])
    adj = sparsify_top_e(scores, 1)
    np.testing.assert_array_equal(adj.matrix.data, [[0.0, 0.0], [0.4, 0.0]])
    assert adj.kept_mask[1, 0] and not adj.kept_mask[0, 1]


def test_zero_budget_clears_offdiagonal():
    adj = sparsify_top_e(compute_scores(make_params()), 0)
    np.testing.assert_array_equal(adj.matrix.data, np.zeros((5, 5)))


def test_tie_break_is_lexicographic():
    scores = np.full((3, 3), 0.5)
    mask = top_edges_mask(scores, 2)
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
        mask = top_edges_mask(scores, e)
        ranked = sorted(
            ((i, j) for i in range(n) for j in range(n) if i != j),
            key=lambda ij: (-scores[ij], ij[0], ij[1]),
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
    np.testing.assert_array_equal(top_edges_mask(scores, e), bruteforce_mask(scores, e))


@pytest.mark.parametrize("extra", [0, 5])
def test_budget_at_or_above_offdiagonal_count_keeps_every_edge(extra):
    scores = np.random.default_rng(8).random((6, 6))
    mask = top_edges_mask(scores, 6 * 5 + extra)
    np.testing.assert_array_equal(mask, ~np.eye(6, dtype=bool))


def test_all_equal_scores_fill_in_row_major_order():
    n, e = 5, 7
    mask = top_edges_mask(np.full((n, n), 0.3), e)
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
        np.testing.assert_array_equal(top_edges_mask(scores, e), bruteforce_mask(scores, e))
    # the infinite diagonal never takes a slot from the two infinite edges
    expected = np.zeros((4, 4), dtype=bool)
    expected[0, 3] = expected[2, 0] = True
    np.testing.assert_array_equal(top_edges_mask(scores, 2), expected)


def test_nan_scores_rejected():
    scores = np.full((3, 3), 0.5)
    scores[1, 2] = math.nan
    with pytest.raises(NumericError):
        top_edges_mask(scores, 2)


# --- self-loops ---------------------------------------------------------------


def test_self_loops_on_zero_matrix_give_identity():
    adj = Adjacency(Tensor(np.zeros((3, 3))), np.zeros((3, 3), dtype=bool))
    out = add_self_loops(adj)
    np.testing.assert_array_equal(out.matrix.data, np.eye(3))


def test_self_loops_idempotent():
    adj = Adjacency(Tensor(np.eye(2)), np.eye(2, dtype=bool))
    out = add_self_loops(add_self_loops(adj))
    np.testing.assert_array_equal(out.matrix.data, np.eye(2))


def test_self_loops_leave_offdiagonal_untouched():
    base = np.array([[0.0, 0.7], [0.2, 0.0]])
    out = add_self_loops(Adjacency(Tensor(base), base > 0))
    np.testing.assert_array_equal(out.matrix.data, [[1.0, 0.7], [0.2, 1.0]])


# --- composition --------------------------------------------------------------


def test_build_adjacency_equals_three_steps():
    p = make_params(n=6, max_edges=9)
    direct = build_adjacency(p)
    stepwise = add_self_loops(sparsify_top_e(compute_scores(p), p.max_edges))
    np.testing.assert_array_equal(direct.matrix.data, stepwise.matrix.data)
    np.testing.assert_array_equal(direct.kept_mask, stepwise.kept_mask)


@pytest.mark.parametrize("frozen", [False, True])
def test_build_adjacency_gradients_equal_three_steps(frozen):
    weights = np.random.default_rng(17).normal(size=(6, 6))
    p = make_params(n=6, seed=4, max_edges=9)
    mask = build_adjacency(p).kept_mask if frozen else None

    def grads(make):
        for w in (p.w_from, p.w_to):
            w.zero_grad()
        with Tape():
            adj = make()
            pooled = flatten(block_reduce(mul_mask(adj.matrix, weights), 6, "sum"))
            backward(mse_loss(pooled, Tensor(np.zeros(6))))
        return adj.matrix.data, p.w_from.grad.copy(), p.w_to.grad.copy()

    def three_steps():
        scores = compute_scores(p)
        if mask is None:
            return add_self_loops(sparsify_top_e(scores, p.max_edges))
        off = mask & ~np.eye(6, dtype=bool)
        return add_self_loops(Adjacency(mul_mask(scores, off), off))

    direct = grads(lambda: build_adjacency(p, kept_mask=mask))
    for got, want in zip(direct, grads(three_steps)):
        np.testing.assert_array_equal(got, want)


def test_edge_budget_of_eight_per_node_average():
    n = 10
    p = make_params(n=n, seed=9, max_edges=8 * n)
    adj = build_adjacency(p)
    off = ~np.eye(n, dtype=bool)
    assert np.count_nonzero(adj.matrix.data[off]) <= 8 * n


def test_build_adjacency_deterministic():
    p = make_params(n=7, seed=5, max_edges=11)
    a = build_adjacency(p).matrix.data
    b = build_adjacency(p).matrix.data
    np.testing.assert_array_equal(a, b)


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
    mask = build_adjacency(p).kept_mask
    off = np.argwhere(mask & ~np.eye(4, dtype=bool))
    assert len(off) == 2
    (i1, j1), (i2, j2) = off
    assert (i1, j1) == (j2, i2)


def test_kept_set_invariant_to_score_gain():
    masks = []
    for gain in (0.5, 2.0, 8.0):
        p = make_params(n=8, seed=13, max_edges=20, score_gain=gain)
        masks.append(build_adjacency(p).kept_mask)
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
    p = make_params(n=n, seed=seed, max_edges=budget)
    adj = build_adjacency(p)
    a = adj.matrix.data
    off = ~np.eye(n, dtype=bool)
    assert np.count_nonzero(a[off]) <= budget
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    np.testing.assert_array_equal(np.diag(a), np.ones(n))


def test_structure_gradients_with_frozen_mask():
    p = make_params(n=5, seed=21, max_edges=8)
    mask = build_adjacency(p).kept_mask

    def f():
        adj = build_adjacency(p, kept_mask=mask)
        pooled = flatten(block_reduce(adj.matrix, 5, "mean"))
        return mse_loss(pooled, Tensor(np.linspace(0.0, 1.0, 5)))

    assert grad_check(f, [p.w_from, p.w_to], step=1e-5) <= 1e-4


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        make_params(feature_gain=0.0)
    with pytest.raises(ConfigError):
        make_params(n=3, max_edges=7)
