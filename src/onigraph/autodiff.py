"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything differentiable in this package is built from the primitives in
this module. A :class:`Tensor` wraps a rank-0/1/2 numpy array; operations
executed inside a ``with Tape():`` block record their backward rules in
execution order (define-by-run, so the tape is rebuilt on every forward
pass), and :func:`backward` walks the tape once in reverse, freeing each
entry as it goes, and accumulates gradients additively into ``Tensor.grad``
of the leaf tensors (those no recorded op produced) only.

Outside a tape context the same functions run as plain forward numerics,
which is how evaluation-mode inference avoids recording anything.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

Array = np.ndarray

_MODES = ("train", "eval")


def _as_f64(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim > 2:
        raise DimensionError(f"tensors are rank 0, 1 or 2, got shape {arr.shape}")
    return arr


class Tensor:
    """Rank-0/1/2 float64 array, optionally tracked for gradients.

    ``grad`` accumulates across backward passes (gradients of a sum of
    losses equal the sum of gradients) until zeroed, which the optimizer
    does at the end of each step.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
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
# gradient contributions (None for inputs that need no gradient).
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
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tape_stack().pop()
        return False


_LOCAL = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = []
        _LOCAL.tapes = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def record_op(output: Tensor, inputs: tuple[Tensor, ...], rule: BackwardRule) -> Tensor:
    """Attach ``rule`` for ``output`` to the active tape, if recording."""
    tape = active_tape()
    if tape is not None and output.requires_grad:
        tape.entries.append(TapeEntry(output, inputs, rule))
    return output


def _make_output(data: Array, *inputs: Tensor) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NumericError("non-finite value produced by a tensor op")
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
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward must run inside the Tape block that recorded the loss")
    if not loss.requires_grad or not tape.entries:
        raise RuntimeError("loss was not produced by any recorded operation")

    pending: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    entries = tape.entries
    while entries:
        entry = entries.pop()
        grad_out = pending.pop(id(entry.output), None)
        holders.pop(id(entry.output), None)
        if grad_out is None:
            continue
        for tensor, contrib in zip(entry.inputs, entry.rule(grad_out)):
            if contrib is None or not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in pending:
                pending[key] = pending[key] + contrib
            else:
                pending[key] = contrib
                holders[key] = tensor
    for key, grad in pending.items():
        tensor = holders[key]
        tensor.grad = grad.copy() if tensor.grad is None else tensor.grad + grad


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward: dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = _make_output(a.data @ b.data, a, b)

    def rule(g: Array):
        return (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None,
        )

    return record_op(out, (a, b), rule)


# Largest share of nonzero entries of I + A (edges plus self-loops) that
# runs the CSR kernels; a denser graph runs the dense ones. Aggregation
# forward plus backward at width 16, one BLAS thread on a 2-vCPU Xeon, CSR
# against dense: N=1345, batch 8: 10 against 44 ms at 2%, 40 against 55 ms
# at 6.25%, 68 against 42 ms at 14%; N=300, batch 8: 1.6 against 1.9 ms at
# 6.25%, 3.6 against 2.2 ms at 14%. At desk size (N=65, 8N edges, 14%)
# dense wins, 0.6 against 2.2 ms, and scipy is never imported.
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
        rows, cols = np.divmod(flat[flat % (n + 1) != 0], n)
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
        """The n x n array holding ``values`` on the edges, with ones on
        the diagonal if ``self_loops``, and zeros elsewhere."""
        a = np.eye(self.n) if self_loops else np.zeros((self.n, self.n))
        a[self.rows, self.cols] = values
        return a

    def csr(self, values: Array):
        """The n x n scipy CSR matrix holding ``values`` on the edges."""
        # imported here so that dense-only runs never load scipy
        from scipy.sparse import csr_array

        return csr_array((values, self.cols, self.indptr), shape=(self.n, self.n))


# Elements per operand of one gathered chunk in the edge-value gradient:
# small enough to stay in cache, and never more than one activation.
_EDGE_CHUNK = 1 << 15


def edge_block_matmul(values: Tensor, edges: EdgeIndex, z: Tensor) -> Tensor:
    """Apply I + A to each consecutive ``edges.n``-row block of ``z``, where
    A holds ``values`` on ``edges`` and zeros elsewhere. Row
    ``b * n + i`` of ``z`` is node ``i`` of sample ``b`` (the sample-major
    layout of a stacked batch), and node ``i`` reads from node ``j`` with
    weight ``A[i, j]``.

    A sparse graph (see :attr:`EdgeIndex.sparse`) runs scipy CSR products
    per block, and the gradient of ``values`` is one dot product per edge
    over samples and features, gathered in chunks no larger than one
    activation. A denser one runs BLAS products with I + A as an n x n
    array, and the gradient of ``values`` is read off the gradient of that
    array, one contraction over samples and features.
    """
    n = edges.n
    if values.shape != edges.rows.shape:
        raise DimensionError(f"{values.shape} edge values for {edges.rows.size} edges")
    if z.data.ndim != 2 or z.shape[0] % n != 0:
        raise DimensionError(f"edge_block_matmul rows {z.shape} not a multiple of {n}")
    batch, width = z.shape[0] // n, z.shape[1]
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
        apply = np.matmul
    out = _make_output(apply(a, blocks).reshape(z.shape), values, z)

    def rule(g: Array):
        g3 = g.reshape(batch, n, width)
        dv = dz = None
        if values.requires_grad:
            if sparse:
                dv = _edge_dots(g3, blocks, edges)
            else:
                dv = np.tensordot(g3, blocks, axes=([0, 2], [0, 2]))[edges.rows, edges.cols]
        if z.requires_grad:
            dz = apply(a.T, g3).reshape(z.shape)
        return (dv, dz)

    return record_op(out, (values, z), rule)


def _edge_dots(g3: Array, z3: Array, edges: EdgeIndex) -> Array:
    """``sum(g3[:, i, :] * z3[:, j, :])`` for every edge (i, j)."""
    batch, n, width = g3.shape
    g_nodes = g3.transpose(1, 0, 2).reshape(n, batch * width)
    z_nodes = z3.transpose(1, 0, 2).reshape(n, batch * width)
    out = np.empty(edges.rows.size)
    step = min(n, max(1, _EDGE_CHUNK // (batch * width)))
    for lo in range(0, out.size, step):
        hi = lo + step
        np.einsum(
            "kc,kc->k", g_nodes[edges.rows[lo:hi]], z_nodes[edges.cols[lo:hi]], out=out[lo:hi]
        )
    return out


def edge_scores(
    emb_from: Tensor, emb_to: Tensor, edges: EdgeIndex, gain: float, scores: Array
) -> Tensor:
    """The edge scores ``sigmoid(gain * emb_from @ emb_to^T)`` at the
    entries ``edges``, as a differentiable vector. ``scores`` holds their
    values, which the caller reads off its own dense pass; the op records
    only their gradient, so the tape holds no N x N array.

    Backward scatters the score gradient into one n x n matrix, CSR or
    dense as :attr:`EdgeIndex.sparse` picks, and returns its products with
    the two embeddings.
    """
    if emb_from.data.ndim != 2 or emb_from.shape != emb_to.shape or emb_from.shape[0] != edges.n:
        raise DimensionError(
            f"embeddings {emb_from.shape}/{emb_to.shape} do not fit {edges.n} nodes"
        )
    if scores.shape != edges.rows.shape:
        raise DimensionError(f"{scores.shape} scores for {edges.rows.size} edges")
    out = _make_output(scores, emb_from, emb_to)
    sparse = edges.sparse

    def rule(g: Array):
        y = out.data
        grad = g * y * (1.0 - y) * gain
        if sparse:
            grad = edges.csr(grad)
            d_from = grad @ emb_to.data if emb_from.requires_grad else None
            d_to = grad.T @ emb_from.data if emb_to.requires_grad else None
        else:
            # operands laid out as in the backward of the dense product
            # E_from @ copy(E_to^T): BLAS rounds other layouts differently,
            # and seeded training histories keep these bits
            grad = edges.dense(grad)
            d_from = grad @ emb_to.data.T.copy().T if emb_from.requires_grad else None
            d_to = (emb_from.data.T @ grad).T if emb_to.requires_grad else None
        return (d_from, d_to)

    return record_op(out, (emb_from, emb_to), rule)


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
    # exp(y) - 1 on the negative branch (unit scale), identity elsewhere;
    # expm1 sees only min(y, 0), so a large positive entry cannot overflow
    neg = np.minimum(y, 0.0, out=np.empty_like(y))
    np.expm1(neg, out=neg)
    np.maximum(y, 0.0, out=y)
    y += neg
    return y


def _elu_grad(g: Array, y: Array) -> Array:
    # y > 0 exactly where the input was: slope 1 there, y + 1 = e^x below
    d = np.minimum(y, 0.0, out=np.empty_like(y))
    d += 1.0
    d *= g
    return d


# kind -> (forward that overwrites its argument and returns it, gradient at
# the input from the gradient g at the output and the output y alone, as a
# fresh array the caller may overwrite)
_ACTIVATIONS = {
    "tanh": (
        lambda y: np.tanh(y, out=y),
        lambda g, y: g * (1.0 - y * y),
    ),
    "sigmoid": (
        lambda y: _sigmoid(y, out=y),
        lambda g, y: g * y * (1.0 - y),
    ),
    "elu": (_elu, _elu_grad),
    "identity": (
        lambda y: y,
        lambda g, y: g.copy(),
    ),
}


def _activation(kind: str):
    try:
        return _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}") from None


def unary_activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise activation: tanh, sigmoid, elu, or identity."""
    fwd, grad = _activation(kind)
    out = _make_output(fwd(x.data.copy()), x)

    def rule(g: Array):
        return (grad(g, out.data),)

    return record_op(out, (x,), rule)


@dataclass
class RunningStats:
    """Exponential-moving batch statistics for one normalized width."""

    mean: Array
    var: Array
    momentum: float = 0.1

    @classmethod
    def initial(cls, width: int, momentum: float = 0.1) -> "RunningStats":
        return cls(np.zeros(width), np.ones(width), momentum)

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy(), self.momentum)


def batchnorm_features(
    z: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float = 1e-5,
    mode: str = "train",
    running: RunningStats | None = None,
    activation: str = "identity",
) -> Tensor:
    """Standardize each feature column over the rows of ``z``, scale by
    ``gamma``, shift by ``beta``, then apply ``activation`` (one of the
    kinds of :func:`unary_activation`), as one op.

    In train mode the batch mean and population variance are used and the
    running statistics are updated in place; in eval mode the running
    statistics are used and nothing is mutated.

    The forward pass holds the standardized input and the output (one
    buffer when nothing is recorded), and checks finiteness before the
    activation, which can map -inf to a finite value. Backward takes the
    activation gradient from the output alone and runs the batchnorm
    backward (Ioffe & Szegedy 2015) in place on it. Values and gradients
    match separate batchnorm and activation ops bit for bit, except that
    ELU maps -0.0 to +0.0; a shift that starts at zero never gives -0.0.
    """
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    if z.data.ndim != 2:
        raise DimensionError(f"batchnorm input must be rank 2, got {z.shape}")
    n, width = z.shape
    if gamma.shape != (width,) or beta.shape != (width,):
        raise DimensionError(
            f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match width {width}"
        )
    if eps <= 0.0:
        raise ConfigError(f"eps must be positive, got {eps}")
    act, act_grad = _activation(activation)

    y = None
    if mode == "train":
        if n < 2:
            raise NumericError(f"batch variance undefined for {n} row(s) in train mode")
        mean = z.data.mean(axis=0)
        xhat = np.subtract(z.data, mean)
        # np.var's steps on the deviations already at hand: same bits
        y = np.square(xhat)
        var = y.sum(axis=0) / n
        if running is not None:
            m = running.momentum
            running.mean[...] = (1.0 - m) * running.mean + m * mean
            running.var[...] = (1.0 - m) * running.var + m * var
    else:
        if running is None:
            raise ConfigError("eval-mode batchnorm needs running statistics")
        xhat = np.subtract(z.data, running.mean)
        var = running.var

    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    records = active_tape() is not None and (
        z.requires_grad or gamma.requires_grad or beta.requires_grad
    )
    y = np.multiply(xhat, gamma.data, out=y if records else xhat)
    y += beta.data
    out = _make_output(y, z, gamma, beta)
    act(y)
    if not records:
        return out

    def rule(g: Array):
        d = act_grad(g, y)
        tmp = np.multiply(d, xhat)
        dgamma = tmp.sum(axis=0) if gamma.requires_grad else None
        dbeta = d.sum(axis=0) if beta.requires_grad else None
        if not z.requires_grad:
            return (None, dgamma, dbeta)
        d *= gamma.data  # dxhat
        if mode == "train":
            # (inv / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            s1 = d.sum(axis=0)
            s2 = np.multiply(d, xhat, out=tmp).sum(axis=0)
            d *= n
            d -= s1
            d -= np.multiply(xhat, s2, out=tmp)
            d *= inv / n
        else:
            d *= inv
        return (d, dgamma, dbeta)

    return record_op(out, (z, gamma, beta), rule)


def concat_features(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of rank-2 tensors sharing a row count."""
    if not parts:
        raise DimensionError("concat_features needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise DimensionError(
                f"concat_features row mismatch: {[tuple(q.shape) for q in parts]}"
            )
    out = _make_output(np.concatenate([p.data for p in parts], axis=1), *parts)
    widths = [p.shape[1] for p in parts]
    edges = np.cumsum([0] + widths)

    def rule(g: Array):
        return tuple(
            g[:, edges[i] : edges[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return record_op(out, tuple(parts), rule)


def block_reduce(z: Tensor, block_rows: int, kind: str) -> Tensor:
    """Per-block column mean or sum: (B*n, D) -> (B, D)."""
    if kind not in ("mean", "sum"):
        raise ConfigError(f"reduce kind must be 'mean' or 'sum', got {kind!r}")
    n = block_rows
    if z.data.ndim != 2 or n < 1 or z.shape[0] % n != 0:
        raise DimensionError(f"block_reduce rows {z.shape} not a multiple of {n}")
    batch = z.shape[0] // n
    blocks = z.data.reshape(batch, n, z.shape[1])
    data = blocks.mean(axis=1) if kind == "mean" else blocks.sum(axis=1)
    out = _make_output(data, z)
    scale_back = 1.0 / n if kind == "mean" else 1.0

    def rule(g: Array):
        expanded = np.repeat(g * scale_back, n, axis=0)
        return (expanded,)

    return record_op(out, (z,), rule)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over two equal-length vectors; scalar output."""
    if pred.data.ndim != 1 or target.data.ndim != 1 or pred.shape != target.shape:
        raise DimensionError(f"mse_loss length mismatch: {pred.shape} vs {target.shape}")
    b = pred.shape[0]
    if b < 1:
        raise DimensionError("mse_loss needs at least one element")
    diff = pred.data - target.data
    out = _make_output(np.asarray((diff @ diff) / b), pred, target)

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
    out = _make_output(a.data + b.data, a, b)

    def rule(g: Array):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return record_op(out, (a, b), rule)


def add_row_bias(z: Tensor, bias: Tensor) -> Tensor:
    """Add a length-D bias vector to every row of an (N, D) tensor."""
    if z.data.ndim != 2 or bias.data.ndim != 1 or z.shape[1] != bias.shape[0]:
        raise DimensionError(f"bias shape {bias.shape} does not fit rows of {z.shape}")
    out = _make_output(z.data + bias.data, z, bias)

    def rule(g: Array):
        return (
            g if z.requires_grad else None,
            g.sum(axis=0) if bias.requires_grad else None,
        )

    return record_op(out, (z, bias), rule)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a constant scalar."""
    out = _make_output(x.data * factor, x)

    def rule(g: Array):
        return (g * factor,)

    return record_op(out, (x,), rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _make_output(x.data.reshape(shape).copy(), x)

    def rule(g: Array):
        return (g.reshape(x.shape),)

    return record_op(out, (x,), rule)


def flatten(x: Tensor) -> Tensor:
    return reshape(x, (x.data.size,))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Per-parameter SGD slot: velocity buffer plus hyperparameters."""

    velocity: Array
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ConfigError(f"weight decay must be finite and >= 0, got {self.weight_decay}")


def sgd_nesterov_step(param: Tensor, state: OptimizerState) -> None:
    """One SGD step with Nesterov momentum and coupled L2 decay.

    g = grad + wd * param
    v <- mu * v - lr * g
    param <- param + mu * v - lr * g

    The parameter's gradient is zeroed afterwards.
    """
    if param.grad is None:
        raise NumericError("sgd_nesterov_step needs a populated gradient")
    if state.velocity.shape != param.shape:
        raise DimensionError(
            f"velocity shape {state.velocity.shape} does not match parameter {param.shape}"
        )
    g = param.grad + state.weight_decay * param.data
    v = state.momentum * state.velocity - state.learning_rate * g
    state.velocity = v
    param.data = param.data + state.momentum * v - state.learning_rate * g
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
    ``f`` must be deterministic (run batch normalization in a mode whose
    output does not depend on call history).
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
