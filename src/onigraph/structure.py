"""Learned global connectivity: a continuous adjacency matrix computed from
static node features, sparsified to a total edge budget, with self-loops.

Edge scores are bilinear in two learned embeddings of the static node
features. Each entry is a weighted directed connection, the score matrix
need not be symmetric, and both directions of a pair may survive
sparsification. Only the largest ``max_edges`` off-diagonal entries are
kept (a budget on the total edge count, not per node), so informative
nodes are free to accumulate many more connections than others.

The graph comes in two forms that select the same edges: a dense N x N
adjacency with self-loops (:func:`build_adjacency`), and an edge list of
the kept scores (:func:`kept_edges`) whose tape and gradients touch only
the kept edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    EdgeIndex,
    Tensor,
    _sigmoid,
    add_const,
    edge_scores,
    matmul,
    mul_mask,
    scale,
    transpose,
    unary_activation,
)
from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray


@dataclass
class StructureParams:
    """Inputs of the connectivity learner.

    static_features: (N, d_in) per-node descriptors, fixed during training.
    w_from / w_to:   (d_in, d_emb) learnable maps producing the sender and
                     receiver embeddings whose inner products score edges.
    feature_gain:    pre-tanh scale. Smaller values shrink the embeddings
                     toward zero, which flattens every score toward 0.5
                     and starves w_from / w_to of gradient; the default
                     1.0 keeps tanh in its responsive range.
    score_gain:      pre-sigmoid scale; larger values sharpen edge scores
                     away from 0.5 without changing their order.
    max_edges:       budget on off-diagonal nonzeros after sparsification.
    """

    static_features: Tensor
    w_from: Tensor
    w_to: Tensor
    feature_gain: float = 1.0
    score_gain: float = 2.0
    max_edges: int = 0

    def __post_init__(self):
        n, d_in = self.static_features.shape
        if self.w_from.shape != self.w_to.shape or self.w_from.shape[0] != d_in:
            raise DimensionError(
                f"embedding maps {self.w_from.shape}/{self.w_to.shape} do not fit "
                f"feature width {d_in}"
            )
        if self.feature_gain <= 0.0 or self.score_gain <= 0.0:
            raise ConfigError("feature_gain and score_gain must be positive")
        if not 0 <= self.max_edges <= n * (n - 1):
            raise ConfigError(
                f"max_edges must lie in [0, {n * (n - 1)}], got {self.max_edges}"
            )

    @property
    def node_count(self) -> int:
        return self.static_features.shape[0]


@dataclass
class Adjacency:
    """Sparsified adjacency: entries in [0, 1], plus the survivor mask."""

    matrix: Tensor
    kept_mask: Array  # bool (N, N), True where the entry is nonzero


def _embedding(params: StructureParams, w: Tensor) -> Tensor:
    return unary_activation(scale(matmul(params.static_features, w), params.feature_gain), "tanh")


def compute_scores(params: StructureParams) -> Tensor:
    """Dense edge scores sigmoid(score_gain * E_from @ E_to^T) where
    E_* = tanh(feature_gain * static_features @ w_*). Fully differentiable
    with respect to w_from and w_to."""
    emb_from = _embedding(params, params.w_from)
    emb_to = _embedding(params, params.w_to)
    return unary_activation(
        scale(matmul(emb_from, transpose(emb_to)), params.score_gain), "sigmoid"
    )


def top_edges_mask(scores: Array, max_edges: int) -> Array:
    """Boolean mask of the ``max_edges`` largest off-diagonal entries.

    Ties are broken toward the smallest (row, col) pair so the selection is
    fully deterministic. The diagonal never competes for the budget; a
    budget above the off-diagonal count keeps every off-diagonal entry.
    Infinite scores rank like any other value; NaN scores have no rank and
    are rejected.
    """
    n = scores.shape[0]
    if max_edges < 0:
        raise ConfigError(f"edge budget must be non-negative, got {max_edges}")
    off = ~np.eye(n, dtype=bool)
    values = scores[off]  # row-major, so position order is the (row, col) order
    if np.isnan(values).any():
        raise NumericError("edge scores contain NaN")
    mask = np.zeros((n, n), dtype=bool)
    e = min(max_edges, values.size)
    if e == 0:
        return mask
    # partial sort for the e-th largest value; everything above it is kept,
    # and the remaining slots go to its ties in (row, col) order
    kth = -np.partition(-values, e - 1)[e - 1]
    keep = values > kth
    ties = np.flatnonzero(values == kth)
    keep[ties[: e - np.count_nonzero(keep)]] = True
    mask[off] = keep
    return mask


def sparsify_top_e(scores: Tensor, max_edges: int) -> Adjacency:
    """Zero everything except the ``max_edges`` largest off-diagonal scores.

    Gradient is a masked pass-through: kept entries stay differentiable,
    dropped entries (and the diagonal) receive zero gradient.
    """
    if scores.data.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DimensionError(f"scores must be square, got {scores.shape}")
    mask = top_edges_mask(scores.data, max_edges)
    return Adjacency(mul_mask(scores, mask), mask)


def add_self_loops(adj: Adjacency) -> Adjacency:
    """Set every diagonal entry to exactly 1.0, off the tape.

    Self-loops do not count against the edge budget and carry no gradient;
    off-diagonal entries are untouched. Idempotent.
    """
    n = adj.matrix.shape[0]
    eye = np.eye(n, dtype=bool)
    cleared = mul_mask(adj.matrix, ~eye)
    return Adjacency(add_const(cleared, np.eye(n)), adj.kept_mask | eye)


def build_adjacency(params: StructureParams, kept_mask: Array | None = None) -> Adjacency:
    """Scores -> top-e sparsification -> self-loops.

    Recomputed from the current parameters on every call, so training sees
    a fresh adjacency each optimization step. Passing ``kept_mask`` skips
    edge selection and reuses a fixed survivor set, which keeps the forward
    pass differentiable at a frozen sparsity pattern (used by gradient
    checks, where re-selection would make finite differences meaningless).
    """
    scores = compute_scores(params)
    eye = np.eye(params.node_count, dtype=bool)
    if kept_mask is None:
        sparse = sparsify_top_e(scores, params.max_edges)
    else:
        off_mask = kept_mask & ~eye
        sparse = Adjacency(mul_mask(scores, off_mask), off_mask)
    # both paths leave the diagonal at zero, so the self-loops are one add
    return Adjacency(add_const(sparse.matrix, eye), sparse.kept_mask | eye)


def kept_edges(params: StructureParams, kept_mask: Array | None = None) -> tuple[EdgeIndex, Tensor]:
    """The off-diagonal edges :func:`build_adjacency` keeps, and their
    scores as a differentiable vector; self-loops are left implicit.

    Selection runs on dense scores computed off the tape, with the same
    bits as :func:`compute_scores` (one product, one sigmoid); only the
    kept scores are recorded, so neither the tape nor the gradient of
    w_from / w_to holds an N x N array. ``kept_mask`` fixes the edge set
    as in :func:`build_adjacency`.
    """
    emb_from = _embedding(params, params.w_from)
    emb_to = _embedding(params, params.w_to)
    if kept_mask is None:
        logits = emb_from.data @ emb_to.data.T.copy()
        logits *= params.score_gain
        mask = top_edges_mask(_sigmoid(logits), params.max_edges)
    else:
        mask = kept_mask & ~np.eye(params.node_count, dtype=bool)
    edges = EdgeIndex.from_mask(mask)
    return edges, edge_scores(emb_from, emb_to, edges, params.score_gain)
