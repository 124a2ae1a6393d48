"""Learned global connectivity: a sparse graph computed from static node
features, cut to a total edge budget, with implicit unit self-loops.

Edge scores are bilinear in two learned embeddings of the static node
features. Each entry is a weighted directed connection, the score matrix
need not be symmetric, and both directions of a pair may survive
sparsification. Only the largest ``max_edges`` off-diagonal entries are
kept (a budget on the total edge count, not per node), so informative
nodes are free to accumulate many more connections than others.

The graph has one form, built in :func:`kept_edges`: the list of kept
edges and their scores. One dense pass off the tape computes every logit;
only the kept scores are recorded, so neither the tape nor the gradient of
the embedding maps holds an N x N array. Selection (:func:`top_edges`)
ranks scores, but scores only a band of logits: a single copy of the flat
logits, partitioned in place, gives the e-th largest off-diagonal logit,
and the sigmoid runs only where the logit reaches the threshold whose
score lies a fixed relative margin below that logit's score. The margin
is far wider than the sigmoid's rounding error, so no entry outside the
band can score as high as the e-th score, and the band holds about e
entries instead of N². The ascending flat indices of the band's scores
above the e-th score, then of its first ties, are the edge list. Ops on
the graph pick a dense or a CSR kernel from its density
(:attr:`~onigraph.autodiff.EdgeIndex.sparse`).
"""

from __future__ import annotations

import math
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


# How far below the e-th score the band of scored logits reaches, as a
# share of that score. _sigmoid, the scalar score of the e-th logit and the
# threshold's two logarithms each round within a few ulps (2^-52) of the
# exact value; 2^-40 is thousands of ulps, so a logit below the threshold
# scores strictly below the e-th score. Subnormal scores round to a fixed
# step of 2^-1074 instead, and _BAND_FLOOR, 16 such steps, covers them.
_BAND_MARGIN = 2.0**-40
_BAND_FLOOR = 2.0**-1070


def top_edges(logits: Array, max_edges: int) -> tuple[EdgeIndex, Array]:
    """Edge list of the ``max_edges`` off-diagonal entries with the largest
    scores ``sigmoid(logits)``, and those scores.

    Ties in score are broken toward the smallest (row, col) pair so the
    selection is fully deterministic; distinct logits that round to one
    score tie. The diagonal never competes for the budget; a budget above
    the off-diagonal count keeps every off-diagonal entry. Infinite logits
    rank like any other value; NaN logits have no rank and are rejected.
    ``logits`` itself is left unchanged.

    The sigmoid runs only on the band of off-diagonal logits at or above
    the logit whose score lies ``_BAND_MARGIN`` below the score of the
    e-th largest logit. No logit below it can score as high as the e-th
    score, so the band holds every kept entry and all of its ties.
    """
    n = logits.shape[0]
    if max_edges < 0:
        raise ConfigError(f"edge budget must be non-negative, got {max_edges}")
    flat = logits.ravel()
    ranked = flat.copy()
    ranked[:: n + 1] = -np.inf  # the diagonal ranks last and takes no slot
    if np.isnan(ranked).any():
        raise NumericError("edge logits contain NaN")
    e = min(max_edges, n * (n - 1))
    if e == 0:
        return EdgeIndex.from_flat(n, np.zeros(0, dtype=np.intp)), np.zeros(0)
    # partial sort for the e-th largest logit x; the band threshold t is the
    # logit of its score (_sigmoid's formula, to within an ulp) less the margin
    ranked.partition(ranked.size - e)
    x = float(ranked[ranked.size - e])
    target = math.exp(min(x, 0.0)) / (1.0 + math.exp(-abs(x))) * (1.0 - _BAND_MARGIN) - _BAND_FLOOR
    t = math.log(target) - math.log1p(-target) if target > 0.0 else -math.inf
    band = np.flatnonzero(flat >= t)
    band = band[band % (n + 1) != 0]
    scores = _sigmoid(flat[band])
    # everything above the e-th largest score is kept, and the remaining
    # slots go to its ties in (row, col) order
    kth = np.partition(scores, scores.size - e)[scores.size - e]
    keep = scores > kth
    ties = np.flatnonzero(scores == kth)
    keep[ties[: e - np.count_nonzero(keep)]] = True
    return EdgeIndex.from_flat(n, band[keep]), scores[keep]


def kept_edges(
    params: StructureParams, edges: EdgeIndex | None = None
) -> tuple[EdgeIndex, Tensor]:
    """The ``max_edges`` top-scoring off-diagonal edges and their scores as
    a differentiable vector; self-loops are left implicit.

    Scores are sigmoid(score_gain * E_from @ E_to^T) with
    E_* = tanh(feature_gain * static_features @ w_*). The logits are
    computed densely off the tape, and :func:`top_edges` selects the kept
    edges straight into the row-major edge list, scoring only its band of
    candidates. Recomputed from the current parameters on every call, so
    training sees a fresh graph each optimization step. Passing ``edges``
    skips selection and scores a fixed edge set, gathering only its
    logits, which keeps the forward pass differentiable at a frozen
    sparsity pattern (used by gradient checks, where re-selection would
    make finite differences meaningless).
    """
    emb_from = _embedding(params, params.w_from)
    emb_to = _embedding(params, params.w_to)
    # a contiguous copy of E_to^T: BLAS rounds the product with a transposed
    # view differently, and seeded training histories keep these bits
    logits = emb_from.data @ emb_to.data.T.copy()
    logits *= params.score_gain
    if edges is None:
        edges, kept = top_edges(logits, params.max_edges)
    else:
        kept = _sigmoid(logits[edges.rows, edges.cols])
    return edges, edge_scores(emb_from, emb_to, edges, params.score_gain, kept)
