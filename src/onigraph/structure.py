"""Learned global connectivity: a sparse graph computed from static node
features, cut to a total edge budget, with implicit unit self-loops.

Edge scores are bilinear in two learned embeddings of the static node
features. Each entry is a weighted directed connection, the score matrix
need not be symmetric, and both directions of a pair may survive
sparsification. Only the largest ``max_edges`` off-diagonal entries are
kept (a budget on the total edge count, not per node), so informative
nodes are free to accumulate many more connections than others.

The graph has one form, built in :func:`kept_edges`: the list of kept edges
and their scores, one op of this module's own on top of the two ``matmul``
feature products, recorded through ``autodiff.record_op``. One dense pass
computes every unscaled logit ``E_from @ E_to^T``; only the kept scores are
recorded, so neither the tape nor the gradient of the embedding maps holds
an N x N array. The positive ``SCORE_GAIN`` and the sigmoid both keep
the logits' order, so selection (:func:`top_edges`) ranks the unscaled
logits, mostly without copying them, and the gain and the sigmoid apply to
the kept logits only. Ops on the graph pick a dense or a CSR kernel from its
density (:attr:`~onigraph.autodiff.EdgeIndex.sparse`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import EdgeIndex, Tensor, _make_output, _sigmoid, matmul
from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray


@dataclass
class StructureParams:
    """Inputs of the connectivity learner.

    static_features: (N, d_in) per-node descriptors, fixed during training.
    w_from / w_to:   (d_in, d_emb) learnable maps producing the sender and
                     receiver embeddings whose inner products score edges.
    max_edges:       budget on off-diagonal nonzeros after sparsification.

    The tanh of each embedding and the pre-sigmoid ``SCORE_GAIN`` are
    fixed (:func:`kept_edges`).
    """

    static_features: Tensor
    w_from: Tensor
    w_to: Tensor
    max_edges: int

    def __post_init__(self):
        n, d_in = self.static_features.shape
        if self.w_from.shape != self.w_to.shape or self.w_from.shape[0] != d_in:
            raise DimensionError(
                f"embedding maps {self.w_from.shape}/{self.w_to.shape} do not fit "
                f"feature width {d_in}"
            )
        if not 0 <= self.max_edges <= n * (n - 1):
            raise ConfigError(
                f"max_edges must lie in [0, {n * (n - 1)}], got {self.max_edges}"
            )

    @property
    def node_count(self) -> int:
        return self.static_features.shape[0]


# Pre-sigmoid scale of the kept logits: it sharpens the edge scores away
# from 0.5, and as a power of two it scales each logit exactly.
SCORE_GAIN = 2.0

# top_edges guesses the e-th largest logit from every
# (flat.size // _SAMPLE_SIZE)-th logit; graphs of fewer than twice this
# many entries (up to 127 nodes, every desk grid) sample every entry, which
# ranks them all. CHANGES.md has the timings.
_SAMPLE_SIZE = 8192


# Eight True bytes read as one word: a word of a boolean mask holds a False
# exactly when it differs from this one, whatever the byte order.
_TRUE_WORD = np.uint64(0x0101010101010101)
# Candidate masks of at least this many entries are read a word at a time
# (_false_positions), smaller ones byte by byte: there the word pass's dozen
# extra numpy calls cost more than the bytes it skips (CHANGES.md).
_WORD_SCAN_SIZE = 1 << 16


def _false_positions(mask: Array) -> Array:
    """``np.flatnonzero(~mask)`` of a contiguous boolean vector, found eight
    bytes at a time: only the words that hold a False are read byte by
    byte, and the last ``mask.size % 8`` entries one by one."""
    head = mask.size - mask.size % 8
    words = mask[:head].view(np.uint64)
    hit = np.flatnonzero(words != _TRUE_WORD)
    at = np.flatnonzero(np.logical_not(words.take(hit).view(np.bool_)))
    found = hit[at >> 3]  # then in place: fewer candidate-sized temporaries
    found *= 8
    found += at & 7
    tail = np.flatnonzero(np.logical_not(mask[head:]))
    return np.concatenate((found, tail + head)) if tail.size else found


def _candidates(flat: Array, n: int, lo: float) -> tuple[Array, Array]:
    """Ascending flat indices of the off-diagonal logits at or above ``lo``,
    and those logits; a NaN among them is rejected."""
    # flat < lo is False at every NaN, so none escapes the check below
    below = np.less(flat, lo)
    below[:: n + 1] = True  # the diagonal takes no slot
    if below.size < _WORD_SCAN_SIZE:
        candidates = np.flatnonzero(np.logical_not(below, out=below))
    else:
        candidates = _false_positions(below)
    values = flat[candidates]
    if np.isnan(values).any():
        raise NumericError("edge logits contain NaN")
    return candidates, values


def _sampled_candidates(
    flat: Array, n: int, e: int, stride: int
) -> tuple[Array, Array, float] | None:
    """The candidates of :func:`top_edges` at or above a guess taken from
    every ``stride``-th logit and the e-th largest logit among them, or None
    when fewer than ``e`` candidates reach the guess. At stride 1 the
    guess ranks every entry, so it cannot miss."""
    sample = flat[::stride].copy()
    # no diagonal: sample k sits on it when k * stride is a multiple of n + 1
    sample[:: (n + 1) // math.gcd(stride, n + 1)] = -np.inf
    # a guess about 2e entries down: the sample's estimate of the e-th
    # largest logit sits at rank e * sample.size / flat.size
    rank = min(2 * e * sample.size // flat.size + 8, sample.size)
    sample.partition(sample.size - rank)
    lo = sample[sample.size - rank]
    del sample  # freed before the candidate pass
    candidates, values = _candidates(flat, n, lo)
    if values.size < e:
        return None
    return candidates, values, np.partition(values, values.size - e)[values.size - e]


def top_edges(logits: Array, max_edges: int) -> tuple[EdgeIndex, Array]:
    """Edge list of the ``max_edges`` off-diagonal entries with the largest
    logits, and those logits.

    Equal logits go to the smallest (row, col) pair, so the selection is
    fully deterministic. The diagonal never competes for the budget; a
    budget above the off-diagonal count keeps every off-diagonal entry.
    Infinite logits rank like any other value; NaN logits have no rank and
    are rejected. ``logits`` itself is left unchanged.

    A sample of every ``flat.size // _SAMPLE_SIZE``-th entry (every entry on
    smaller graphs) guesses a logit about 2e entries down, one pass collects
    the off-diagonal candidates at or above it, and a partition of the
    candidates gives the e-th largest logit (:func:`_sampled_candidates`).
    With fewer than e candidates, the same steps run again at stride 1.
    The candidates at or above the e-th largest logit are kept, but for its
    last ties in (row, col) order past the budget.
    """
    n = logits.shape[0]
    if max_edges < 0:
        raise ConfigError(f"edge budget must be non-negative, got {max_edges}")
    flat = logits.ravel()
    e = min(max_edges, n * (n - 1))
    if e == 0:
        _candidates(flat, n, np.inf)  # rejects an off-diagonal NaN
        return EdgeIndex.from_flat(n, np.zeros(0, dtype=np.intp)), np.zeros(0, logits.dtype)
    picked = _sampled_candidates(flat, n, e, max(1, flat.size // _SAMPLE_SIZE))
    if picked is None:
        picked = _sampled_candidates(flat, n, e, 1)
    candidates, values, kth = picked
    keep = values >= kth
    surplus = np.count_nonzero(keep) - e  # ties of kth past the budget
    if surplus:
        keep[np.flatnonzero(values == kth)[-surplus:]] = False
    kept = np.flatnonzero(keep)
    return EdgeIndex.from_flat(n, candidates[kept]), values[kept]


def kept_edges(
    params: StructureParams, edges: EdgeIndex | None = None
) -> tuple[EdgeIndex, Tensor]:
    """The ``max_edges`` off-diagonal edges with the largest logits, and
    their scores as a differentiable vector; self-loops are left implicit.

    Scores are sigmoid(SCORE_GAIN * E_from @ E_to^T) with
    E_* = tanh(static_features @ w_*). The two feature products are
    ``matmul`` ops; everything after them is one recorded op. The unscaled
    logits E_from @ E_to^T are computed densely, and :func:`top_edges`
    selects the kept edges straight into the row-major edge list by logit;
    ``SCORE_GAIN`` and the sigmoid apply to the kept logits only.
    Recomputed from the current parameters on every call, so training sees
    a fresh graph each optimization step. Passing ``edges``
    skips selection and scores a fixed edge set, gathering only its
    logits, which keeps the forward pass differentiable at a frozen
    sparsity pattern (used by gradient checks, where re-selection would
    make finite differences meaningless). Either way the scores are
    ``_sigmoid`` of the gathered logits times ``SCORE_GAIN``, with the same
    bits.

    Only the kept scores are recorded, so the tape holds no N x N array.
    Backward scatters the score gradient into one n x n matrix, CSR or
    dense as :meth:`~onigraph.autodiff.EdgeIndex.matrix` picks, and carries
    its products with the two embeddings back through the tanh to the
    feature products.
    """
    if edges is not None and edges.n != params.node_count:
        raise DimensionError(f"frozen edges of {edges.n} nodes for {params.node_count} nodes")
    products = tuple(matmul(params.static_features, w) for w in (params.w_from, params.w_to))
    # checked before the tanh, which maps an overflow to a finite +-1
    if not all(np.isfinite(product.data).all() for product in products):
        raise NumericError("structure embedding: static_features @ w overflows")
    emb_from, emb_to = (np.tanh(product.data) for product in products)
    # a contiguous copy of E_to^T: BLAS rounds the product with a transposed
    # view differently, and seeded training histories keep these bits
    logits = emb_from @ emb_to.T.copy()
    if edges is None:
        edges, kept = top_edges(logits, params.max_edges)
    else:
        kept = logits[edges.rows, edges.cols]
    kept = _sigmoid(np.multiply(kept, SCORE_GAIN, out=kept), out=kept)
    out = _make_output(kept, *products)

    def rule(g: Array):
        grad = edges.matrix(g * kept * (1.0 - kept) * SCORE_GAIN)
        # operands laid out as in the backward of the dense product
        # E_from @ copy(E_to^T): BLAS rounds other layouts differently, and
        # seeded training histories keep these bits; the CSR products give
        # the bits of grad @ E_to and grad^T @ E_from in these layouts too
        d_from, d_to = grad @ emb_to.T.copy().T, (emb_from.T @ grad).T
        return [d * (1.0 - e * e) for d, e in ((d_from, emb_from), (d_to, emb_to))]

    # through the module, where a wrapper patched in from outside (the
    # benchmark's tracer) sees every recorded op
    return edges, autodiff.record_op(out, products, rule)
