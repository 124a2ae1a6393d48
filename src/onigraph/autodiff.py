"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Everything differentiable in this package is built from the primitives in
this module, except the structure learner's edge scores: one op of their
own, recorded through :func:`record_op` by ``structure.kept_edges``. A
:class:`Tensor` wraps a rank-0/1/2 numpy array; operations executed inside
a ``with Tape():`` block record their backward rules in execution order
(define-by-run, so the tape is rebuilt on every forward pass), and
:func:`backward` walks the tape once in reverse, freeing each entry as it
goes, and accumulates gradients additively into ``Tensor.grad`` of the leaf
tensors (those no recorded op produced) only.

Outside a tape context the same functions run as plain forward numerics,
which is how evaluation avoids recording anything.

Every op keeps its inputs' dtype: its output, the arrays its backward rule
returns and the buffers it takes are of the one dtype of its operands, and
operands of two dtypes raise ``TypeError``. The trained model computes in
float32 (``data.prepare_dataset`` hands over float32 inputs); gradient
checks build float64 tensors.

Ops do not check their outputs: products, aggregation, bias and residual
adds, pooling and flatten carry inf and NaN forward by IEEE rules.
Finiteness is checked where such a value could vanish or would leave the
model, each check raising ``NumericError``: before the ELU, which maps -inf
to -1, in :func:`batchnorm_features` (training) and :func:`shift_elu` (the
``model.folded`` copy that evaluation runs), in ``structure.kept_edges``
before the embedding's tanh and on the edge logits, in :func:`mse_loss`,
and on ``training.predict_samples``' output.

Inside a ``with Workspace():`` block the ops write their step-sized
arrays into reused buffers instead of fresh ones, with the same bits.
``training.train`` holds one for exactly the length of the call, so
evaluation allocates its own arrays and no step buffer stays resident
after training.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray


def _as_float(values) -> Array:
    """``values`` as an array: float32 arrays as they are, anything else as
    float64."""
    arr = np.asarray(values)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim > 2:
        raise DimensionError(f"tensors are rank 0, 1 or 2, got shape {arr.shape}")
    return arr


def _dtype(*arrays: Array) -> np.dtype:
    """The one dtype of an op's operands; a mix of dtypes raises TypeError
    instead of promoting."""
    dtype = arrays[0].dtype
    if any(a.dtype != dtype for a in arrays[1:]):
        raise TypeError(f"operands mix dtypes {sorted({a.dtype.name for a in arrays})}")
    return dtype


class Tensor:
    """Rank-0/1/2 float32 or float64 array, optionally tracked for gradients.

    ``grad`` accumulates across backward passes (gradients of a sum of
    losses equal the sum of gradients) until zeroed, which the optimizer
    does at the end of each step.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_float(values)
        self.requires_grad = requires_grad
        self.grad: Array | None = np.zeros_like(self.data) if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# A backward rule maps the gradient at the op's output to per-input
# gradient contributions (None for inputs that need no gradient). Each
# array it returns belongs to the backward walk, which adds later gradients
# into it in place: a new array, or the output's gradient for one input
# only, sharing memory with no other returned array and no forward value.
BackwardRule = Callable[[Array], Sequence[Array | None]]


@dataclass
class TapeEntry:
    output: Tensor
    inputs: tuple[Tensor, ...]
    rule: BackwardRule


class Tape:
    """Ordered op record; inputs of an entry always precede it."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tapes.pop()
        return False


# The open Tape blocks, innermost last, and the active Workspace. Module
# state: the engine runs in one thread.
_tapes: list[Tape] = []
_workspace: "Workspace | None" = None


def active_tape() -> Tape | None:
    return _tapes[-1] if _tapes else None


class Workspace:
    """Reused buffers for the arrays of training steps; at most one is
    active at a time, and leaving the block drops every buffer.

    Buffers are flat and kept per dtype by size, not shape: a request gets
    the smallest free buffer of its dtype that holds it, as a reshaped
    prefix view, so a smaller trailing batch reuses the full batch's
    buffers. A buffer is free when the workspace holds its only reference,
    so an array still viewing it (a tape entry, a pending gradient, an
    output the caller kept) is never overwritten. ``misses`` counts the
    buffers taken from numpy.
    """

    def __init__(self):
        self.buffers: dict[np.dtype, list[Array]] = {}  # per dtype, ascending size
        self.misses = 0

    @staticmethod
    def active() -> "Workspace | None":
        return _workspace

    def __enter__(self) -> "Workspace":
        global _workspace
        if _workspace is not None:
            raise RuntimeError("a workspace is already active")
        _workspace = self
        return self

    def __exit__(self, *exc) -> bool:
        global _workspace
        _workspace = None
        self.buffers.clear()
        return False

    def take(self, shape: tuple[int, ...], dtype) -> Array:
        """A free buffer's prefix as a ``dtype`` array of ``shape``: the
        smallest one of that dtype that holds it, if it is less than twice
        the size (a larger one stays free for a larger request), else a new
        buffer."""
        size = math.prod(shape)
        buffers = self.buffers.setdefault(np.dtype(dtype), [])
        for buf in buffers:
            # max(..., 1): a zero-size request reuses a zero-size buffer
            if size <= buf.size < max(2 * size, 1) and sys.getrefcount(buf) == _FREE_REFS:
                return buf[:size].reshape(shape)
        buf = np.empty(size, dtype)
        self.misses += 1
        bisect.insort(buffers, buf, key=len)
        return buf[:size].reshape(shape)


# What sys.getrefcount reads, in a loop like the one in Workspace.take, for
# a buffer that only its list and the loop variable hold: interpreters
# differ in whether the call's own argument counts.
_FREE_REFS = next(sys.getrefcount(buf) for buf in [np.empty(0)])


def _empty(shape: tuple[int, ...], dtype) -> Array:
    """An uninitialized ``dtype`` array of ``shape``: a buffer of the active
    workspace, or a fresh array when none is active."""
    workspace = Workspace.active()
    return np.empty(shape, dtype) if workspace is None else workspace.take(shape, dtype)


# np.einsum adds the rows in .sum(axis=0)'s order, in one faster loop (CHANGES.md);
# at width 1 numpy sums the one column pairwise, so that and other layouts keep .sum.
def _column_sums(a: Array, b: Array | None = None) -> Array:
    """The sums over the rows (the second-to-last axis) of ``a``, or of
    ``a * b``, for a (rows, D) or (B, rows, D) array: the bits of
    ``a.sum(axis=-2)`` or ``(a * b).sum(axis=-2)``. The fast path needs
    C-contiguous operands; any other layout takes numpy's reduce."""
    if a.shape[-1] == 1 or not (a.flags.c_contiguous and (b is None or b.flags.c_contiguous)):
        return (a if b is None else a * b).sum(axis=-2)
    if b is None:
        return np.einsum("...ij->...j", a)
    return np.einsum("...ij,...ij->...j", a, b)


def record_op(output: Tensor, inputs: tuple[Tensor, ...], rule: BackwardRule) -> Tensor:
    """Attach ``rule`` for ``output`` to the active tape, if recording."""
    tape = active_tape()
    if tape is not None and output.requires_grad:
        tape.entries.append(TapeEntry(output, inputs, rule))
    return output


def _make_output(data: Array, *inputs: Tensor) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``grad`` for every leaf tensor
    (one that no recorded op produced, such as a parameter) that requires
    gradients and is reachable from ``loss``, and leave the tape empty.

    Each tape entry is popped and consumed exactly once, in reverse
    execution order, so an entry's buffers and the gradient at its output
    are freed as the walk passes it. Op outputs keep ``grad`` None.

    Every array a backward rule returns belongs to the walk (see
    ``BackwardRule``), so the first gradient reaching a tensor is held as
    it is, and each later one is added into it in place.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward must run inside the Tape block that recorded the loss")
    if not loss.requires_grad or not tape.entries:
        raise RuntimeError("loss was not produced by any recorded operation")

    # id -> (tensor, its gradient so far); holding the tensor keeps its id
    pending: dict[int, tuple[Tensor, Array]] = {id(loss): (loss, np.ones_like(loss.data))}
    entries = tape.entries
    while entries:
        entry = entries.pop()
        held = pending.pop(id(entry.output), None)
        if held is None:
            continue
        for tensor, contrib in zip(entry.inputs, entry.rule(held[1])):
            if contrib is None or not tensor.requires_grad:
                continue
            if id(tensor) in pending:
                grad = pending[id(tensor)][1]
                grad += contrib
            else:
                pending[id(tensor)] = (tensor, contrib)
    for tensor, grad in pending.values():
        tensor.grad = grad.copy() if tensor.grad is None else tensor.grad + grad


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward: dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    dtype = _dtype(a.data, b.data)
    out = _make_output(
        np.matmul(a.data, b.data, out=_empty((a.shape[0], b.shape[1]), dtype)), a, b
    )

    def rule(g: Array):
        return (
            np.matmul(g, b.data.T, out=_empty(a.shape, dtype)) if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return record_op(out, (a, b), rule)


# Densest share of I + A (edges plus self-loops) that runs the CSR kernels,
# where they tie with the dense ones; CHANGES.md has the timings.
SPARSE_SHARE = 1 / 16


@dataclass(frozen=True)
class EdgeIndex:
    """Directed off-diagonal edges of an ``n``-node graph in row-major
    order: edge ``k`` runs from node ``rows[k]`` to node ``cols[k]``, and
    ``indptr`` holds the CSR row pointers of that order."""

    n: int
    rows: Array
    cols: Array
    indptr: Array

    @classmethod
    def from_flat(cls, n: int, flat: Array) -> "EdgeIndex":
        """The edges at ascending row-major indices ``i * n + j`` of an
        n x n array; indices on the diagonal are dropped."""
        rows = flat // n
        cols = flat - rows * n
        off = rows != cols
        if not off.all():
            rows, cols = rows[off], cols[off]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, rows.astype(np.int32), cols.astype(np.int32), indptr)

    @property
    def sparse(self) -> bool:
        """Whether the edges plus the n self-loops fill less than
        ``SPARSE_SHARE`` of the n x n entries, so that ops on this graph
        run their CSR kernels."""
        return self.rows.size + self.n < SPARSE_SHARE * self.n * self.n

    def dense(self, values: Array, self_loops: bool = False) -> Array:
        """The n x n array of ``values``' dtype holding ``values`` on the
        edges, with ones on the diagonal if ``self_loops``, and zeros
        elsewhere."""
        n, dtype = self.n, values.dtype
        a = np.eye(n, dtype=dtype) if self_loops else np.zeros((n, n), dtype)
        a[self.rows, self.cols] = values
        return a

    def csr(self, values: Array):
        """The n x n scipy CSR matrix holding ``values`` on the edges."""
        # imported here so that dense-only runs never load scipy
        from scipy.sparse import csr_array

        return csr_array((values, self.cols, self.indptr), shape=(self.n, self.n))

    def matrix(self, values: Array):
        """The n x n matrix holding ``values`` on the edges and zeros
        elsewhere, in the form that ops on this graph compute with: CSR if
        :attr:`EdgeIndex.sparse`, else dense."""
        return self.csr(values) if self.sparse else self.dense(values)


# Elements per operand of one gathered chunk in the edge-value gradient:
# small enough to stay in cache (CHANGES.md), and never more than one activation.
_EDGE_CHUNK = 1 << 16


def edge_block_matmul(values: Tensor, edges: EdgeIndex, z: Tensor) -> Tensor:
    """Apply I + A to each consecutive ``edges.n``-row block of ``z``, where
    A holds ``values`` on ``edges`` and zeros elsewhere. Row
    ``b * n + i`` of ``z`` is node ``i`` of sample ``b`` (the sample-major
    layout of a stacked batch), and node ``i`` reads from node ``j`` with
    weight ``A[i, j]``.

    Each call builds its operator from ``values``. A sparse graph (see
    :attr:`EdgeIndex.sparse`) runs scipy CSR products per block, and the
    gradient of ``values`` is one dot product per edge over samples and
    features, gathered in chunks no larger than one activation. A denser
    one runs BLAS products with I + A scattered into an n x n array, and
    the gradient of ``values`` is read off the gradient of that array, one
    contraction over samples and features.
    """
    n = edges.n
    if values.shape != edges.rows.shape:
        raise DimensionError(f"{values.shape} edge values for {edges.rows.size} edges")
    if z.data.ndim != 2 or z.shape[0] % n != 0:
        raise DimensionError(f"edge_block_matmul rows {z.shape} not a multiple of {n}")
    batch, width = z.shape[0] // n, z.shape[1]
    dtype = _dtype(values.data, z.data)
    blocks = z.data.reshape(batch, n, width)
    sparse = edges.sparse
    if sparse:
        a = edges.csr(values.data)

        def apply(m, x3):  # (I + m) per block, m sparse
            y3 = x3.copy()
            for b in range(batch):
                y3[b] += m @ x3[b]
            return y3
    else:
        a = edges.dense(values.data, self_loops=True)

        def apply(m, x3):
            return np.matmul(m, x3, out=_empty(x3.shape, dtype))
    out = _make_output(apply(a, blocks).reshape(z.shape), values, z)

    def rule(g: Array):
        g3 = g.reshape(batch, n, width)
        dv = dz = None
        if values.requires_grad:
            if sparse:
                dv = _edge_dots(g3, blocks, edges)
            else:
                # the contiguous operands and the product of np.tensordot
                # (same bits), in workspace buffers
                g_rows = _empty((n, batch * width), dtype)
                g_rows.reshape(n, batch, width)[...] = g3.transpose(1, 0, 2)
                z_cols = _empty((batch * width, n), dtype)
                z_cols.reshape(batch, width, n)[...] = blocks.transpose(0, 2, 1)
                dv = np.dot(g_rows, z_cols, out=_empty((n, n), dtype))[edges.rows, edges.cols]
        if z.requires_grad:
            dz = apply(a.T, g3).reshape(z.shape)
        return (dv, dz)

    return record_op(out, (values, z), rule)


def _edge_dots(g3: Array, z3: Array, edges: EdgeIndex) -> Array:
    """``sum(g3[:, i, :] * z3[:, j, :])`` for every edge (i, j)."""
    batch, n, width = g3.shape
    g_nodes = g3.transpose(1, 0, 2).reshape(n, batch * width)
    z_nodes = z3.transpose(1, 0, 2).reshape(n, batch * width)
    out = np.empty(edges.rows.size, g3.dtype)
    step = min(n, max(1, _EDGE_CHUNK // (batch * width)))
    for lo in range(0, out.size, step):
        hi = lo + step
        np.einsum(
            "kc,kc->k", g_nodes[edges.rows[lo:hi]], z_nodes[edges.cols[lo:hi]], out=out[lo:hi]
        )
    return out


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # exp(min(x, 0)) / (1 + exp(-|x|)): 1 / (1 + e^-x) for x >= 0 and
    # e^x / (1 + e^x) below, with the same bits as evaluating each branch,
    # but no branch, and exp only of non-positive arguments (no overflow).
    # ``out`` may be ``x`` itself: the denominator is taken first.
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    np.add(den, 1.0, out=den)
    num = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(num, out=num)
    return np.divide(num, den, out=num)


def _elu(y: Array) -> Array:
    # max(y, expm1(min(y, 0))): expm1 sees only min(y, 0), so a large
    # positive entry cannot overflow. One max picks each branch exactly:
    # above 0 the second operand is 0 < y, and at or below 0 it is
    # expm1(y) >= y (e^x - 1 >= x). On a tie numpy returns the second
    # operand, so -0.0 gives min(-0.0, 0.0) = +0.0 and max(-0.0, +0.0) = +0.0.
    neg = np.minimum(y, 0.0, out=_empty(y.shape, y.dtype))
    np.expm1(neg, out=neg)
    return np.maximum(y, neg, out=y)


def _elu_grad(g: Array, y: Array) -> Array:
    # y > 0 exactly where the input was: slope 1 there, y + 1 = e^x below;
    # from the output alone, into a fresh array that the caller may overwrite
    d = np.minimum(y, 0.0, out=_empty(y.shape, y.dtype))
    d += 1.0
    d *= g
    return d


BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics
BN_EPS = 1e-5  # added to each column's variance before its square root


@dataclass
class RunningStats:
    """Exponential-moving batch statistics for one normalized width."""

    mean: Array
    var: Array

    @classmethod
    def initial(cls, width: int, dtype) -> "RunningStats":
        return cls(np.zeros(width, dtype), np.ones(width, dtype))


def batchnorm_features(
    z: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running: RunningStats,
) -> Tensor:
    """The training pass's normalization: normalize each feature column
    over the rows of ``z`` with the batch mean and population variance,
    scale by ``gamma``, shift by ``beta``, then apply the ELU, as one op,
    and update the running statistics in place. Evaluation folds the
    running statistics into the weights instead (``model.folded`` and
    :func:`shift_elu`). The input is centered in ``z``'s own array, which
    saves one array of its size: nothing may read ``z`` after this call (no
    backward rule reads its op's output).

    The forward pass keeps the centered input ``xc = z - mean`` and the
    output ``y = xc * scale + beta``, one buffer when nothing is recorded,
    with ``scale = gamma * inv`` and ``inv = 1 / sqrt(var + BN_EPS)`` per
    column, and checks finiteness before the ELU, which maps -inf to -1.
    Backward takes the ELU's gradient ``d`` from the output alone and, from
    two column sums ``dbeta = sum(d)`` and ``sx = sum(d * xc)``, gives
    ``dgamma = sx * inv`` and, in place on ``d``, the batchnorm backward
    (Ioffe & Szegedy 2015) ``dz = d * scale - (scale / n) * dbeta - xc *
    (scale * inv**2 / n) * sx``. Values and gradients match the textbook
    formulas to rounding, except that ELU maps -0.0 to +0.0; a shift that
    starts at zero never gives -0.0.
    """
    if z.data.ndim != 2:
        raise DimensionError(f"batchnorm input must be rank 2, got {z.shape}")
    n, width = z.shape
    if gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(
            f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match width {width}"
        )
    dtype = _dtype(z.data, gamma.data, beta.data, running.mean, running.var)
    if n < 2:
        raise NumericError(f"batch variance undefined for {n} row(s) in train mode")

    # np.mean's and np.var's sums, with their bits (see _column_sums); the
    # squares are summed as they are formed, never stored
    xc = z.data
    mean = _column_sums(xc) / n
    xc -= mean
    var = _column_sums(xc, xc) / n
    m = BN_MOMENTUM
    running.mean[...] = (1.0 - m) * running.mean + m * mean
    running.var[...] = (1.0 - m) * running.var + m * var

    inv = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv
    records = active_tape() is not None and (
        z.requires_grad or gamma.requires_grad or beta.requires_grad
    )
    y = np.multiply(xc, scale, out=_empty(z.shape, dtype) if records else xc)
    y += beta.data
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite value produced by a tensor op")
    out = _make_output(y, z, gamma, beta)
    _elu(y)
    if not records:
        return out

    def rule(g: Array):
        # backward drops the gradient of any input that needs none
        d = _elu_grad(g, y)
        dbeta, sx = _column_sums(d), _column_sums(d, xc)
        d *= scale
        d -= (scale / n) * dbeta
        # xc's last read, so its buffer takes the product
        d -= np.multiply(xc, (scale * inv * inv / n) * sx, out=xc)
        return (d, sx * inv, dbeta)

    return record_op(out, (z, gamma, beta), rule)


def shift_elu(h: Tensor, shift: Array) -> Tensor:
    """``ELU(h + shift)``, ``shift`` added to every row, in ``h``'s own
    array: evaluation's normalization, whose per-column scale is folded
    into the weight before it (``model.folded``). Nothing may read ``h``
    after this call. Finiteness is checked before the ELU, which maps -inf
    to -1. It records nothing, so it raises ``RuntimeError`` under an open
    ``Tape``, where a gradient would be lost."""
    if active_tape() is not None:
        raise RuntimeError("shift_elu records no gradient; evaluate outside any Tape")
    if h.data.ndim != 2 or shift.shape != (h.shape[1],):
        raise DimensionError(f"shift of shape {shift.shape} does not fit rows of {h.shape}")
    _dtype(h.data, shift)
    y = h.data
    y += shift
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite value produced by a tensor op")
    return _make_output(_elu(y))


POOLINGS = ("mean", "sum_and_mean")


def pool_blocks(parts: Sequence[Tensor], block_rows: int, kind: str) -> Tensor:
    """Pool each graph of ``block_rows`` stacked rows of every (B * n, D_l)
    part into one row of the (B, P) output: each part's column means side
    by side, with ``"sum_and_mean"`` every part's column sums before them.
    Backward copies over the block rows each part's gradient at its means
    times 1/n, plus that at its sums."""
    if kind not in POOLINGS:
        raise ConfigError(f"pooling must be one of {POOLINGS}, got {kind!r}")
    n = block_rows
    shapes = [p.shape for p in parts]
    if not shapes or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise DimensionError(f"pool_blocks needs rank-2 parts of one row count, got {shapes}")
    if n < 1 or shapes[0][0] % n != 0:
        raise DimensionError(f"pool_blocks rows {shapes[0][0]} not a multiple of {n}")
    batch = shapes[0][0] // n
    dtype = _dtype(*(p.data for p in parts))
    sums = [_column_sums(p.data.reshape(batch, n, p.shape[1])) for p in parts]
    pooled = [s / n for s in sums]  # np.mean's bits
    if kind == "sum_and_mean":
        pooled = sums + pooled
    out = _make_output(np.concatenate(pooled, axis=1), *parts)
    bounds = np.cumsum([0] + [p.shape[1] for p in parts])

    def rule(g: Array):
        g_in = g[:, -bounds[-1] :] * (1.0 / n)
        if kind == "sum_and_mean":
            g_in += g[:, : bounds[-1]]
        grads = []
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            d = None
            if p.requires_grad:  # each graph's gradient row on its n rows
                d = _empty(p.shape, dtype)
                d.reshape(batch, n, hi - lo)[...] = g_in[:, None, lo:hi]
            grads.append(d)
        return grads

    return record_op(out, tuple(parts), rule)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over two equal-length vectors; scalar output.
    A non-finite loss raises ``NumericError``."""
    if pred.data.ndim != 1 or target.data.ndim != 1 or pred.shape != target.shape:
        raise DimensionError(f"mse_loss length mismatch: {pred.shape} vs {target.shape}")
    b = pred.shape[0]
    if b < 1:
        raise DimensionError("mse_loss needs at least one element")
    _dtype(pred.data, target.data)
    diff = pred.data - target.data
    out = _make_output(np.asarray((diff @ diff) / b), pred, target)
    if not np.isfinite(out.data):
        raise NumericError("non-finite value produced by a tensor op")

    def rule(g: Array):
        base = (2.0 / b) * diff * g
        return (
            base if pred.requires_grad else None,
            -base if target.requires_grad else None,
        )

    return record_op(out, (pred, target), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    dtype = _dtype(a.data, b.data)
    out = _make_output(a.data + b.data, a, b)

    def rule(g: Array):
        # b's is a copy, np.positive into a buffer (see BackwardRule)
        g_b = np.positive(g, out=_empty(g.shape, dtype)) if b.requires_grad else None
        return (g if a.requires_grad else None, g_b)

    return record_op(out, (a, b), rule)


def add_row_bias(z: Tensor, bias: Tensor) -> Tensor:
    """Add a length-D bias vector to every row of an (N, D) tensor."""
    if z.data.ndim != 2 or bias.data.ndim != 1 or z.shape[1] != bias.shape[0]:
        raise DimensionError(f"bias shape {bias.shape} does not fit rows of {z.shape}")
    _dtype(z.data, bias.data)
    out = _make_output(z.data + bias.data, z, bias)

    def rule(g: Array):
        return (
            g if z.requires_grad else None,
            _column_sums(g) if bias.requires_grad else None,
        )

    return record_op(out, (z, bias), rule)


def flatten(x: Tensor) -> Tensor:
    """The entries of ``x`` in row-major order, as a vector."""
    out = _make_output(x.data.reshape(-1).copy(), x)

    def rule(g: Array):
        return (g.reshape(x.shape),)

    return record_op(out, (x,), rule)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class Sgd:
    """SGD with Nesterov momentum and coupled L2 decay: one set of
    hyperparameters for the whole model, and a velocity per named
    parameter."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: dict[str, Array]

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ConfigError(f"weight decay must be finite and >= 0, got {self.weight_decay}")


def sgd_nesterov_step(params: Sequence[tuple[str, Tensor]], sgd: Sgd) -> None:
    """One SGD step over the named parameters, each with its own velocity:

    g = grad + wd * param
    v <- mu * v - lr * g
    param <- param + mu * v - lr * g

    Each parameter's gradient is zeroed afterwards.
    """
    for name, param in params:
        if param.grad is None:
            raise NumericError(f"sgd_nesterov_step needs a populated gradient for {name!r}")
        velocity = sgd.velocity.get(name)
        if velocity is None or velocity.shape != param.shape or velocity.dtype != param.data.dtype:
            raise DimensionError(
                f"no {param.data.dtype} velocity of shape {param.shape} for parameter {name!r}"
            )
        g = param.grad + sgd.weight_decay * param.data
        v = sgd.momentum * velocity - sgd.learning_rate * g
        sgd.velocity[name] = v
        param.data = param.data + sgd.momentum * v - sgd.learning_rate * g
        param.grad = np.zeros_like(param.data)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients of the scalar ``f()`` against central
    finite differences over every entry of every parameter.

    Returns the maximum relative error
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    ``f`` must be deterministic.
    """
    if step <= 0.0:
        raise ConfigError(f"step must be positive, got {step}")
    for p in params:
        p.zero_grad()
    with Tape():
        loss = f()
        if not np.all(np.isfinite(loss.data)):
            raise NumericError("grad_check: loss is not finite")
        backward(loss)
    analytic = [p.grad.copy() for p in params]

    def eval_loss() -> float:
        value = f()
        result = float(value.data.reshape(()))
        if not np.isfinite(result):
            raise NumericError("grad_check: perturbed loss is not finite")
        return result

    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = eval_loss()
            flat[i] = original - step
            minus = eval_loss()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * step)
            rel = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, rel)
    for p in params:
        p.zero_grad()
    return worst
