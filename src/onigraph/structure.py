"""Learned global connectivity: a sparse graph computed from static node
features, cut to a total edge budget, with implicit unit self-loops.

Edge scores are bilinear in two learned embeddings of the static node
features. Each entry is a weighted directed connection, the score matrix
need not be symmetric, and both directions of a pair may survive
sparsification. Only the largest ``max_edges`` off-diagonal entries are
kept (a budget on the total edge count, not per node), so informative
nodes are free to accumulate many more connections than others.

The graph has one form, built in :func:`kept_edges`: the list of kept
edges and their scores. One dense pass off the tape scores every pair and
selects the kept edges; only the kept scores are recorded, so neither the
tape nor the gradient of the embedding maps holds an N x N array.
Selection (:func:`top_edges`) reads the scores as one row-major flat
vector: a single copy, partitioned in place, gives the e-th largest
off-diagonal score, and the ascending flat indices of the scores above it,
then of its first ties, are the edge list. Ops on the graph pick a dense
or a CSR kernel from its density
(:attr:`~onigraph.autodiff.EdgeIndex.sparse`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import EdgeIndex, Tensor, _sigmoid, edge_scores, matmul, scale, unary_activation
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


def _embedding(params: StructureParams, w: Tensor) -> Tensor:
    return unary_activation(scale(matmul(params.static_features, w), params.feature_gain), "tanh")


def top_edges(scores: Array, max_edges: int) -> EdgeIndex:
    """Edge list of the ``max_edges`` largest off-diagonal entries.

    Ties are broken toward the smallest (row, col) pair so the selection is
    fully deterministic. The diagonal never competes for the budget; a
    budget above the off-diagonal count keeps every off-diagonal entry.
    Infinite scores rank like any other value; NaN scores have no rank and
    are rejected. ``scores`` itself is left unchanged.
    """
    n = scores.shape[0]
    if max_edges < 0:
        raise ConfigError(f"edge budget must be non-negative, got {max_edges}")
    flat = scores.ravel()
    ranked = flat.copy()
    ranked[:: n + 1] = -np.inf  # the diagonal ranks last and takes no slot
    if np.isnan(ranked).any():
        raise NumericError("edge scores contain NaN")
    e = min(max_edges, n * (n - 1))
    if e == 0:
        return EdgeIndex.from_flat(n, np.zeros(0, dtype=np.intp))
    # partial sort for the e-th largest value; everything above it is kept,
    # and the remaining slots go to its off-diagonal ties in (row, col) order
    ranked.partition(ranked.size - e)
    kth = ranked[ranked.size - e]
    keep = flat > kth
    keep[:: n + 1] = False
    ties = np.flatnonzero(flat == kth)
    ties = ties[ties % (n + 1) != 0]
    keep[ties[: e - np.count_nonzero(keep)]] = True
    return EdgeIndex.from_flat(n, np.flatnonzero(keep))


def kept_edges(
    params: StructureParams, edges: EdgeIndex | None = None
) -> tuple[EdgeIndex, Tensor]:
    """The ``max_edges`` top-scoring off-diagonal edges and their scores as
    a differentiable vector; self-loops are left implicit.

    Scores are sigmoid(score_gain * E_from @ E_to^T) with
    E_* = tanh(feature_gain * static_features @ w_*), computed densely off
    the tape, selected by :func:`top_edges` straight into the row-major
    edge list and gathered at the kept edges. Recomputed from the current
    parameters on every call, so training sees a fresh graph each
    optimization step. Passing ``edges`` skips selection and scores a fixed
    edge set, which keeps the forward pass differentiable at a frozen
    sparsity pattern (used by gradient checks, where re-selection would
    make finite differences meaningless).
    """
    emb_from = _embedding(params, params.w_from)
    emb_to = _embedding(params, params.w_to)
    # a contiguous copy of E_to^T: BLAS rounds the product with a transposed
    # view differently, and seeded training histories keep these bits
    logits = emb_from.data @ emb_to.data.T.copy()
    logits *= params.score_gain
    scores = _sigmoid(logits)
    if edges is None:
        edges = top_edges(scores, params.max_edges)
    kept = scores[edges.rows, edges.cols]
    return edges, edge_scores(emb_from, emb_to, edges, params.score_gain, kept)
