import ast
import math
import os
import subprocess
import sys
import warnings
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onigraph
from onigraph import autodiff
from onigraph.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    EdgeIndex,
    RunningStats,
    Sgd,
    Tape,
    Tensor,
    Workspace,
    add,
    add_row_bias,
    backward,
    batchnorm_features,
    edge_block_matmul,
    flatten,
    grad_check,
    matmul,
    mse_loss,
    pool_blocks,
    record_op,
    sgd_nesterov_step,
    shift_elu,
    _column_sums,
    _sigmoid,
)
from onigraph.errors import ConfigError, DimensionError, NumericError
from onigraph.model import NormParams
from onigraph.structure import StructureParams, kept_edges


def t(values, grad=False):
    return Tensor(values, requires_grad=grad)


def initial_stats(width):
    """Float64 running statistics at their initial values."""
    return RunningStats.initial(width, np.float64)


def copied(running):
    """Fresh running statistics holding the values of ``running``."""
    return RunningStats(running.mean.copy(), running.var.copy())


def full_graph(n):
    """Every off-diagonal edge of an n-node graph: dense enough for the
    dense kernel of edge_block_matmul."""
    edges = EdgeIndex.from_flat(n, np.arange(n * n))
    assert not edges.sparse
    return edges


# --- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(t(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_zero_annihilates():
    out = matmul(t(np.zeros((2, 2))), t([[5.0, -1.0], [2.0, 7.0]]))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_matmul_hand_value():
    out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(t(np.ones((2, 3))), t(np.ones((2, 2))))


def test_matmul_identity_associativity_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 4))
    eye = np.eye(3)
    left = matmul(matmul(t(a), t(eye)), t(b)).data
    right = matmul(t(a), matmul(t(eye), t(b))).data
    direct = matmul(t(a), t(b)).data
    np.testing.assert_array_equal(left, direct)
    np.testing.assert_array_equal(right, direct)


def test_matmul_backward_rules():
    a = t([[1.0, 2.0], [3.0, 4.0]], grad=True)
    b = t([[5.0], [6.0]], grad=True)
    with Tape():
        loss = mse_loss(flatten(matmul(a, b)), t([0.0, 0.0]))
        backward(loss)
    # dC = 2/2 * C = C; dA = dC @ B^T, dB = A^T @ dC
    c = a.data @ b.data
    np.testing.assert_allclose(a.grad, c @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ c)


# --- activations ------------------------------------------------------------


def activate(x):
    """Evaluation's normalize+ELU reduced to its activation: shift_elu with
    a shift of -0.0, so every finite entry of the rank-2 ``x``, -0.0
    included, reaches the activation unchanged. It works in ``x``'s own
    array, so each call takes an ``x`` that nothing reads afterwards."""
    return shift_elu(x, np.full(x.shape[1], -0.0))


def test_activation_fixed_points():
    assert activate(t([[0.0]])).data[0, 0] == 0.0
    assert _sigmoid(np.zeros(1))[0] == 0.5


def test_elu_positive_branch_is_identity():
    assert activate(t([[2.0]])).data[0, 0] == 2.0


def test_activation_scalar_oracle_values():
    assert activate(t([[-1.0]])).data[0, 0] == pytest.approx(
        math.exp(-1.0) - 1.0, abs=1e-12
    )


def _two_branch_sigmoid(x):
    # the formula the branch-free sigmoid replaced
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def test_sigmoid_is_bit_identical_to_two_branch_formula():
    rng = np.random.default_rng(31)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 709.0, -709.0,
               1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
    inputs = [
        rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),
        np.array(special),
        np.array(0.3),
    ] + [rng.normal(scale=s, size=20_000) for s in (0.1, 1.0, 10.0, 800.0)]
    for x in inputs:
        want = _two_branch_sigmoid(x)
        got = _sigmoid(x)
        assert got.shape == x.shape
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        # NaN payloads may differ; every other result must match bit for bit
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_sigmoid_of_a_gathered_subset_matches_the_dense_bits():
    # selection scores only a gathered band of logits; each score must have
    # the bits the dense pass gives it, at any length and offset
    rng = np.random.default_rng(32)
    special = [40.0, -40.0, math.inf, -math.inf, 745.0, -745.0, 744.6, -744.6, 0.0, -0.0]
    x = np.concatenate([rng.normal(scale=30.0, size=4097), special, rng.normal(size=13)])
    x = rng.permutation(x)
    dense = _sigmoid(x).view(np.uint64)
    for size in (1, 3, 7, 15, 17, 33, 1001):
        index = np.sort(rng.choice(x.size, size=size, replace=False))
        np.testing.assert_array_equal(_sigmoid(x[index]).view(np.uint64), dense[index])
    for lo, hi in ((1, 2), (1, 8), (3, 30), (5, 4096), (7, x.size)):
        np.testing.assert_array_equal(_sigmoid(x[lo:hi]).view(np.uint64), dense[lo:hi])


def test_nonfinite_op_output_raises_numeric_error():
    # ops carry inf and NaN forward by IEEE rules; the loss, where they
    # leave the model, raises
    with np.errstate(over="ignore"):
        product = matmul(t([[1.0, 1e308]]), t([[10.0], [10.0]]))
    assert np.isposinf(product.data).all()
    with pytest.raises(NumericError):
        mse_loss(flatten(product), t([0.0]))
    total = add(t([math.nan]), t([1.0]))
    assert np.isnan(total.data).all()
    with pytest.raises(NumericError):
        mse_loss(total, t([1.0]))


def test_nonfinite_check_survives_optimized_mode():
    code = (
        "import numpy as np\n"
        "from onigraph.autodiff import Tensor, flatten, matmul, mse_loss\n"
        "from onigraph.errors import NumericError\n"
        "with np.errstate(over='ignore'):\n"
        "    pred = flatten(matmul(Tensor([[1e308]]), Tensor([[10.0]])))\n"
        "print('carried' if np.isposinf(pred.data).all() else 'checked')\n"
        "try:\n"
        "    mse_loss(pred, Tensor([0.0]))\n"
        "except NumericError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["carried", "raised"]


# --- batchnorm --------------------------------------------------------------


def fresh(z):
    """``z`` through one recorded op that copies it exactly (x + -0.0 is x
    for every float): batchnorm_features centers its input's array in
    place, so an input that a test reads or perturbs again goes in this way."""
    return add(z, t(np.full(z.shape, -0.0)))


def test_batchnorm_constant_column_is_zero():
    z = t(np.full((4, 2), 3.25))
    out = batchnorm_features(z, t(np.ones(2)), t(np.zeros(2)), initial_stats(2))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_batchnorm_two_value_column():
    z = t([[1.0], [3.0]])
    out = batchnorm_features(z, t(np.ones(1)), t(np.zeros(1)), initial_stats(1))
    unit = 1 / np.sqrt(1 + BN_EPS)  # variance 1
    np.testing.assert_array_equal(out.data, [[np.expm1(-unit)], [unit]])


def test_batchnorm_zero_gamma_gives_beta():
    z = t(np.random.default_rng(1).normal(size=(5, 3)))
    beta = np.array([1.0, 2.0, 0.5])  # positive: the ELU passes it unchanged
    out = batchnorm_features(z, t(np.zeros(3)), t(beta), initial_stats(3))
    np.testing.assert_array_equal(out.data, np.broadcast_to(beta, (5, 3)))


def test_batchnorm_single_row_train_rejected():
    with pytest.raises(NumericError):
        batchnorm_features(t([[1.0, 2.0]]), t(np.ones(2)), t(np.zeros(2)), initial_stats(2))


def test_batchnorm_running_stats_update_and_eval():
    running = initial_stats(1)
    z = np.array([[1.0], [3.0]])
    batchnorm_features(t(z.copy()), t(np.ones(1)), t(np.zeros(1)), running)
    assert running.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert running.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)
    before = (running.mean.copy(), running.var.copy())
    out = norm_act(t(z.copy()), t(np.ones(1)), t(np.zeros(1)), "eval", running)
    x = (z - before[0]) / np.sqrt(before[1] + BN_EPS)
    np.testing.assert_allclose(out.data, np.where(x > 0.0, x, np.expm1(x)))
    np.testing.assert_array_equal(running.mean, before[0])
    np.testing.assert_array_equal(running.var, before[1])


# --- fused batchnorm + activation -------------------------------------------

# The training op's normalization and backward, and evaluation's shift_elu,
# read their activation only through _elu, in place on the shifted values,
# and _elu_grad, a fresh gradient from the output alone. The tests below
# also check them with tanh, the sigmoid and the identity swapped in for the
# ELU: curved on both sides of zero, where the ELU is the identity above
# it, or no activation at all. Each runs in two modes: "train", the op with
# batch statistics, and "eval", the running statistics folded into a
# column scale and a shift (model.NormParams.folded, then shift_elu).
SWAPPED_ACTIVATIONS = {
    "tanh": (lambda y: np.tanh(y, out=y), lambda g, y: g * (1.0 - y * y)),
    "sigmoid": (lambda y: _sigmoid(y, out=y), lambda g, y: g * y * (1.0 - y)),
    "identity": (lambda y: y, lambda g, y: g.copy()),
}
ACTIVATION_KINDS = ("elu", *SWAPPED_ACTIVATIONS)


def activation(kind):
    """A context in which batchnorm_features and shift_elu apply ``kind``:
    the ELU, or another swapped in. The backward rule reads the swap when
    it runs, so the context holds the backward too."""
    if kind == "elu":
        return nullcontext()
    fwd, grad = SWAPPED_ACTIVATIONS[kind]
    return mock.patch.multiple(autodiff, _elu=fwd, _elu_grad=grad)


def norm_act(z, gamma, beta, mode, running):
    """Normalize+activate in ``mode``: the training op, which centers ``z``
    in its own array and updates ``running``, or evaluation's fold of
    ``running`` into a column scale of ``z`` and a shift."""
    if mode == "train":
        return batchnorm_features(z, gamma, beta, running)
    scale, shift = NormParams(gamma, beta, running).folded()
    return shift_elu(t(z.data * scale), shift)


def run_norm_act(z, gamma, beta, mode, running, g):
    """:func:`norm_act`'s output and the gradients (dz, dgamma, dbeta) its
    rule gives for the output gradient ``g``; evaluation records none."""
    if mode == "eval":
        return norm_act(z, gamma, beta, mode, running), ()
    with Tape() as tape:
        out = norm_act(z, gamma, beta, mode, running)
        return out, tape.entries[-1].rule(g)


# the separate ops the fused one replaced: forward of the pre-activation x,
# and the gradient at x from the gradient g at the output y
REFERENCE_ACTIVATIONS = {
    "elu": (lambda x: np.where(x > 0.0, x, np.expm1(x)),
            lambda g, x, y: np.where(x > 0.0, g, g * (y + 1.0))),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_two_branch_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "identity": (lambda x: x, lambda g, x, y: g),
}


def _batch_stats(z, mode, running):
    """The mean and variance a call normalizes with, and the running
    statistics after it."""
    if mode == "eval":
        return running.mean, running.var, (running.mean, running.var)
    mean, var = z.mean(axis=0), z.var(axis=0)
    m = BN_MOMENTUM
    return mean, var, ((1.0 - m) * running.mean + m * mean, (1.0 - m) * running.var + m * var)


def _reference_norm_act(z, gamma, beta, mode, running, kind, g):
    """Output, (dz, dgamma, dbeta) and the running statistics after the
    call, in the folded order: one scale and shift per column, and in train
    mode a backward from the two column sums of d and d * xc; eval mode
    applies the scale before the shift and has no gradients."""
    n = z.shape[0]
    mean, var, new_running = _batch_stats(z, mode, running)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv
    fwd, bwd = REFERENCE_ACTIVATIONS[kind]
    if mode == "eval":
        return fwd(z * scale + (beta - mean * scale)), (), new_running
    xc = z - mean
    x = xc * scale + beta
    y = fwd(x)
    d = bwd(g, x, y)
    dbeta, sx = d.sum(axis=0), (d * xc).sum(axis=0)
    dz = d * scale - (scale / n) * dbeta - xc * ((scale * inv * inv / n) * sx)
    return y, (dz, sx * inv, dbeta), new_running


def _textbook_norm_act(z, gamma, beta, mode, running, kind, g):
    """Output and (dz, dgamma, dbeta) by the textbook batchnorm and
    activation formulas: standardize, then scale and shift; eval mode has
    no gradients."""
    n = z.shape[0]
    mean, var, _ = _batch_stats(z, mode, running)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (z - mean) * inv
    x = xhat * gamma + beta
    fwd, bwd = REFERENCE_ACTIVATIONS[kind]
    y = fwd(x)
    if mode == "eval":
        return y, ()
    gx = bwd(g, x, y)
    dxhat = gx * gamma
    dz = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return y, (dz, (gx * xhat).sum(axis=0), gx.sum(axis=0))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_fused_norm_act_is_bit_identical_to_reference_formulas(kind, mode):
    rng = np.random.default_rng(41)
    batch, nodes, width = 3, 37, 5  # stacked (B * N, D) rows
    z0 = rng.normal(scale=2.0, size=(batch * nodes, width)) + 0.5
    gamma = t(rng.normal(size=width), grad=True)
    beta = t(rng.normal(size=width), grad=True)
    running0 = RunningStats(rng.normal(size=width), rng.random(width) + 0.5)
    g = rng.normal(size=z0.shape)
    want_y, want_grads, want_running = _reference_norm_act(
        z0, gamma.data, beta.data, mode, copied(running0), kind, g
    )
    running = copied(running0)
    with activation(kind):
        out, grads = run_norm_act(t(z0.copy(), grad=True), gamma, beta, mode, running, g)
        # nothing recorded: the single-buffer forward gives the same bits
        unrecorded = norm_act(t(z0.copy()), gamma, beta, mode, copied(running0))
    assert len(grads) == len(want_grads)
    for got, want in zip((out.data, unrecorded.data, *grads), (want_y, want_y, *want_grads)):
        assert got.tobytes() == want.tobytes()
    for got, want in zip((running.mean, running.var), want_running):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_grad_check_fused_norm_act(kind, mode):
    rng = np.random.default_rng(42)
    z = t(rng.normal(size=(6, 3)), grad=True)
    gamma = t(rng.normal(loc=1.0, scale=0.3, size=3), grad=True)
    beta = t(rng.normal(scale=0.5, size=3), grad=True)
    running = RunningStats(rng.normal(size=3), rng.random(3) + 0.5)
    target = t(rng.normal(size=18))

    def f():
        # train mode reads no running statistics, so f stays deterministic
        out = norm_act(fresh(z), gamma, beta, mode, copied(running))
        return mse_loss(flatten(out), target)

    with activation(kind):
        if mode == "train":
            assert grad_check(f, [z, gamma, beta], step=1e-6) <= 1e-6
        else:  # evaluation records no gradient, so it refuses to run under a Tape
            with pytest.raises(RuntimeError, match="no gradient"):
                grad_check(f, [z, gamma, beta], step=1e-6)


def test_fused_norm_act_eval_leaves_the_running_statistics():
    rng = np.random.default_rng(43)
    z = t(rng.normal(size=(12, 4)))
    running = RunningStats(rng.normal(size=4), rng.random(4) + 0.5)
    gamma, beta = t(rng.normal(size=4), grad=True), t(rng.normal(size=4), grad=True)
    held = (running.mean, running.var, gamma.data, beta.data)
    before = [a.copy() for a in held]
    norm_act(z, gamma, beta, "eval", running)
    with Tape(), pytest.raises(RuntimeError):
        norm_act(z, gamma, beta, "eval", running)
    for got, want in zip(held, before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["elu", "tanh", "sigmoid"])
def test_fused_norm_act_checks_finiteness_before_the_activation(kind):
    # xhat is about -1 on the second row, so the shifted value overflows to
    # -inf, which these activations would map to a finite value
    z = t([[1.0], [-1.0]])
    with activation(kind), pytest.raises(NumericError), np.errstate(over="ignore"):
        batchnorm_features(z, t([1e308]), t([-1e308]), initial_stats(1))


def test_elu_of_negative_zero_is_positive_zero():
    # the one signed-zero difference from where(x > 0, x, expm1(x)), which
    # gives -0.0; a zero-initialized shift never produces -0.0
    x = np.array([[-0.0, 0.0]])
    with activation("identity"):
        assert activate(t(x)).data.tobytes() == x.tobytes()  # -0.0 reaches the ELU
    out = activate(t(x)).data
    np.testing.assert_array_equal(out, [[0.0, 0.0]])
    assert not np.signbit(out).any()


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_activations_take_every_tensor_rank(kind):
    # the activation and its gradient work on arrays of any rank; the fused
    # op feeds them rank-2 rows
    fwd, bwd = REFERENCE_ACTIVATIONS[kind]
    act, act_grad = SWAPPED_ACTIVATIONS.get(kind, (autodiff._elu, autodiff._elu_grad))
    for values in (-0.75, [0.5, -2.0], [[1.5, -0.25]]):
        x = np.asarray(values)
        g = np.full(x.shape, 0.5)
        y = act(x.copy())
        assert y.tobytes() == fwd(x).tobytes()
        assert np.asarray(act_grad(g, y)).tobytes() == bwd(g, x, y).tobytes()
        if x.ndim == 2:
            with activation(kind):
                out = activate(t(values))
            assert out.data.tobytes() == fwd(x).tobytes()


def test_elu_evaluates_expm1_on_the_negative_half_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = activate(t([[800.0, -1.0]])).data
    assert out[0, 0] == 800.0
    assert out[0, 1] == math.expm1(-1.0)


ELU_INPUTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e4, max_value=-745.0),  # expm1 rounds to -1.0
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and +-0
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ELU_INPUTS, min_size=1, max_size=40))
def test_elu_keeps_the_bits_of_its_two_branch_formula(values):
    # the one max in _elu is exact only while expm1(x) >= x for x <= 0; a
    # libm whose expm1 breaks that fails here
    x = np.array(values)
    with np.errstate(over="ignore"):  # expm1 of the discarded positive branch
        want = np.where(x > 0.0, x, np.expm1(x))
    want[x == 0.0] = 0.0  # -0.0 maps to +0.0
    got = autodiff._elu(x.copy())
    assert got.tobytes() == want.tobytes()


# --- column sums: einsum with the bits of numpy's axis reduce ----------------


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=5000),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_column_sums_keep_the_bits_of_numpy_sums(rows, width, batch, seed):
    # if a numpy release changes einsum's summation order, this fails first
    rng = np.random.default_rng(seed)
    magnitude = np.exp(rng.uniform(-12.0, 12.0, size=(rows, width)))
    a = rng.normal(size=(rows, width)) * magnitude
    b = rng.normal(size=(rows, width))
    assert _column_sums(a).tobytes() == a.sum(axis=0).tobytes()
    assert _column_sums(a, a).tobytes() == np.square(a).sum(axis=0).tobytes()
    assert _column_sums(a, b).tobytes() == (a * b).sum(axis=0).tobytes()
    n = rows // batch
    if n:
        blocks = a[: batch * n].reshape(batch, n, width)
        assert _column_sums(blocks).tobytes() == blocks.sum(axis=1).tobytes()
    # other layouts take numpy's reduce, so they keep its bits too
    f = np.asfortranarray(a)
    assert _column_sums(f).tobytes() == f.sum(axis=0).tobytes()
    assert _column_sums(a, f).tobytes() == (a * f).sum(axis=0).tobytes()
    at = np.ascontiguousarray(a.T).T
    assert _column_sums(at, b).tobytes() == (at * b).sum(axis=0).tobytes()


@pytest.mark.parametrize("workspace", [False, True])
@pytest.mark.parametrize("width", [1, 2, 16, 48])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_fused_norm_act_keeps_the_bits_of_numpy_reductions(kind, mode, order, width, workspace):
    # _reference_norm_act takes every column sum with np.mean, np.var or
    # .sum(axis=0), where the op takes them through einsum;
    # 260 rows: enough that numpy sums a width-1 column pairwise. The op
    # centers in its input's array, so the centered input keeps the input's
    # layout: a Fortran-ordered one takes numpy's reduce in every column sum
    # that reads it, and the reference takes its sums in that layout too.
    rng = np.random.default_rng(4417)
    z0 = rng.normal(scale=3.0, size=(260, width)) + rng.normal(size=width)
    z0 = np.asarray(z0, order=order)
    gamma = t(rng.normal(loc=1.0, scale=0.3, size=width), grad=True)
    beta = t(rng.normal(scale=0.5, size=width), grad=True)
    running0 = RunningStats(rng.normal(size=width), rng.random(width) + 0.5)
    g = rng.normal(size=z0.shape)
    want_y, want_grads, want_running = _reference_norm_act(
        z0, gamma.data, beta.data, mode, running0, kind, g
    )
    with Workspace() if workspace else nullcontext():
        for _ in range(2):  # with a workspace: fresh buffers, then reused ones
            z = t(z0.copy(order="K"), grad=True)
            assert z.data.flags[f"{order}_CONTIGUOUS"]
            running = copied(running0)
            with activation(kind):
                out, grads = run_norm_act(z, gamma, beta, mode, running, g.copy())
            assert out.data.tobytes() == want_y.tobytes()
            assert len(grads) == len(want_grads)
            for got, want in zip(grads, want_grads):
                assert got.tobytes() == want.tobytes()
            for got, want in zip((running.mean, running.var), want_running):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 2, 16, 48])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_fused_norm_act_stays_within_rounding_of_the_textbook_formulas(kind, mode, width):
    # the folded order rounds differently from standardize-then-scale; each
    # array stays within 1e-12 of its largest magnitude (seed and bound
    # fixed before measuring)
    rng = np.random.default_rng(12611)
    z = t(rng.normal(scale=3.0, size=(260, width)) + 5.0 * rng.normal(size=width), grad=True)
    gamma = t(rng.normal(loc=1.0, scale=0.3, size=width), grad=True)
    beta = t(rng.normal(scale=0.5, size=width), grad=True)
    running = RunningStats(rng.normal(size=width), rng.random(width) + 0.5)
    g = rng.normal(size=z.shape)
    want_y, want_grads = _textbook_norm_act(
        z.data, gamma.data, beta.data, mode, copied(running), kind, g
    )
    with activation(kind):
        out, grads = run_norm_act(z, gamma, beta, mode, running, g)
    assert len(grads) == len(want_grads)
    for got, want in zip((out.data, *grads), (want_y, *want_grads)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- pooling: per-block reductions of every part, side by side ---------------
# With one row per block both kinds keep each row, so the pooled parts are
# their column-wise concatenation.


def test_concat_single_part_unchanged():
    a = t([[1.0, 2.0]])
    np.testing.assert_array_equal(pool_blocks([a], 1, "mean").data, a.data)


def test_concat_shapes_and_order():
    a = t(np.ones((4, 2)))
    b = t(np.zeros((4, 3)))
    out = pool_blocks([a, b], 1, "mean")
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)
    both = pool_blocks([a, b], 1, "sum_and_mean").data
    np.testing.assert_array_equal(both, np.hstack([a.data, b.data, a.data, b.data]))


def test_concat_enumerated_values():
    out = pool_blocks([t([[1.0], [2.0]]), t([[3.0], [4.0]])], 1, "mean")
    np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_row_mismatch_rejected():
    with pytest.raises(DimensionError):
        pool_blocks([t(np.ones((2, 1))), t(np.ones((3, 1)))], 1, "mean")
    with pytest.raises(DimensionError):  # a part that is not rank 2
        pool_blocks([t(np.ones((2, 1))), t(np.ones(2))], 1, "mean")


def test_block_reduce_single_block_values():
    np.testing.assert_array_equal(
        pool_blocks([t([[2.0, 5.0], [2.0, 5.0]])], 2, "mean").data, [[2.0, 5.0]]
    )
    np.testing.assert_array_equal(
        pool_blocks([t([[1.0], [3.0]])], 2, "sum_and_mean").data, [[4.0, 2.0]]
    )
    np.testing.assert_array_equal(
        pool_blocks([t([[1.0, 0.0], [3.0, 2.0]])], 2, "mean").data, [[2.0, 1.0]]
    )


def test_pool_blocks_means_keep_np_mean_bits():
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(21, 4)), rng.normal(size=(21, 3))
    out = pool_blocks([t(a), t(b)], 7, "sum_and_mean").data
    blocks = [x.reshape(3, 7, -1) for x in (a, b)]
    expected = [x.sum(axis=1) for x in blocks] + [x.mean(axis=1) for x in blocks]
    np.testing.assert_array_equal(out, np.hstack(expected))


def test_reduce_empty_rejected():
    with pytest.raises(DimensionError):
        pool_blocks([t(np.ones((0, 2)))], 0, "mean")
    with pytest.raises(DimensionError):
        pool_blocks([], 2, "mean")


def test_pool_blocks_rows_must_fill_whole_blocks():
    with pytest.raises(DimensionError):
        pool_blocks([t(np.ones((6, 2)))], 4, "sum_and_mean")


def test_pool_blocks_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="max"):
        pool_blocks([t(np.ones((4, 2)))], 2, "max")


@pytest.mark.parametrize("kind", ["mean", "sum_and_mean"])
def test_grad_check_pool_blocks(kind):
    rng = np.random.default_rng(19)
    a = t(rng.normal(size=(6, 2)), grad=True)
    b = t(rng.normal(size=(6, 3)))  # needs no gradient
    c = t(rng.normal(size=(6, 1)), grad=True)
    width = 6 if kind == "mean" else 12
    target = t(rng.normal(size=2 * width))

    def f():
        return mse_loss(flatten(pool_blocks([a, b, c], 3, kind)), target)

    assert grad_check(f, [a, c], step=1e-5) <= 1e-7


def test_block_ops_match_per_sample_ops():
    rng = np.random.default_rng(7)
    a = rng.random((3, 3))
    np.fill_diagonal(a, 1.0)
    edges = full_graph(3)
    z1, z2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    stacked = edge_block_matmul(t(a[edges.rows, edges.cols]), edges, t(np.vstack([z1, z2])))
    np.testing.assert_allclose(stacked.data[:3], a @ z1)
    np.testing.assert_allclose(stacked.data[3:], a @ z2)
    pooled = pool_blocks([t(np.vstack([z1, z2]))], 3, "mean")
    np.testing.assert_allclose(pooled.data, np.vstack([z1.mean(0), z2.mean(0)]))


# --- mse --------------------------------------------------------------------


def test_mse_values():
    assert mse_loss(t([1.0, 2.0]), t([1.0, 2.0])).item() == 0.0
    assert mse_loss(t([0.0]), t([2.0])).item() == 4.0
    assert mse_loss(t([1.0, 2.0]), t([0.0, 0.0])).item() == 2.5


def test_mse_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        mse_loss(t([1.0]), t([1.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_mse_nonnegative_and_zero_iff_equal(values):
    pred = t(values)
    target = t(values)
    assert mse_loss(pred, target).item() == 0.0
    shifted = t([v + 1.0 for v in values])
    assert mse_loss(pred, shifted).item() > 0.0


# --- backward ---------------------------------------------------------------


def test_backward_hand_chain_rule():
    w = t([[1.0]], grad=True)
    x = t([[2.0]])
    y = t([0.0])
    with Tape():
        loss = mse_loss(flatten(matmul(w, x)), y)
        backward(loss)
    assert w.grad[0, 0] == pytest.approx(8.0)


def test_backward_unreachable_parameter_gets_zero_grad():
    w1 = t([[1.0]], grad=True)
    w2 = t([[1.0]], grad=True)
    with Tape():
        loss = mse_loss(flatten(matmul(w1, t([[2.0]]))), t([0.0]))
        backward(loss)
    np.testing.assert_array_equal(w2.grad, [[0.0]])


def test_backward_two_paths_gradients_sum():
    w = t([[1.5]], grad=True)
    x1, x2 = t([[2.0]]), t([[-3.0]])

    def f():
        pred = flatten(add(matmul(w, x1), matmul(w, x2)))
        return mse_loss(pred, t([1.0]))

    assert grad_check(f, [w], step=1e-6) <= 1e-8


def test_backward_stores_leaf_gradients_only_and_empties_the_tape():
    w = t([[1.5, -0.5]], grad=True)
    x = t([[-2.0], [1.0]])
    with Tape() as tape:
        hidden = add_row_bias(matmul(w, x), t([0.5]))  # -3.5 + 0.5
        loss = mse_loss(flatten(hidden), t([0.0]))
        backward(loss)
        assert tape.entries == []
    assert hidden.grad is None and loss.grad is None
    np.testing.assert_array_equal(w.grad, np.array([[-2.0, 1.0]]) * (2.0 * -3.0))


def test_backward_requires_scalar():
    v = t([1.0, 2.0], grad=True)
    with Tape():
        out = add(v, v)
        with pytest.raises(DimensionError):
            backward(out)


def test_backward_linearity():
    def build(w):
        l1 = mse_loss(flatten(matmul(w, t([[2.0]]))), t([1.0]))
        l2 = mse_loss(flatten(matmul(w, t([[-1.0]]))), t([0.5]))
        return l1, l2

    w = t([[0.7]], grad=True)
    with Tape():
        l1, l2 = build(w)
        backward(add(reshape_scalar(l1), reshape_scalar(l2)))
    combined = w.grad.copy()

    w.zero_grad()
    with Tape():
        l1, _ = build(w)
        backward(l1)
    with Tape():
        _, l2 = build(w)
        backward(l2)
    np.testing.assert_allclose(w.grad, combined)


def reshape_scalar(x):
    return x  # scalars already share shape (); add() accepts them directly


def test_forward_backward_deterministic():
    def run():
        w = t(np.arange(6.0).reshape(2, 3), grad=True)
        x = t(np.arange(12.0).reshape(3, 4) / 7.0)
        with Tape():
            out = batchnorm_features(matmul(w, x), t(np.ones(4)), t(np.zeros(4)), initial_stats(4))
            loss = mse_loss(flatten(out), t(np.zeros(8)))
            backward(loss)
        return out.data.tobytes(), w.grad.tobytes()

    assert run() == run()


def _sparse_ring(n=40):
    """Each node reads from the next: sparse enough for the CSR kernels."""
    edges = EdgeIndex.from_flat(n, np.arange(n) * n + (np.arange(n) + 1) % n)
    assert edges.sparse
    return edges


def _added_to_itself(r):
    x = r(3, 2)
    return add(x, x)


def _norm_op(r, dtype):
    # float32 is the model's working dtype, float64 the gradient checks'
    z, gamma, beta = (t(r(*s).data.astype(dtype), grad=True) for s in [(5, 3), (3,), (3,)])
    return batchnorm_features(z, gamma, beta, RunningStats.initial(3, dtype))


def _pool_op(r, kind):
    return pool_blocks([r(6, 2), r(6, 3)], 3, kind)


def _structure_op(r):
    params = StructureParams(
        static_features=r(6, 4), w_from=r(4, 3), w_to=r(4, 3),
        max_edges=12,
    )
    return kept_edges(params)[1]


# (the recording function, a builder of one op whose every input needs a
# gradient); every input is its own random tensor
RULE_CASES = [
    ("add", lambda r: add(r(3, 2), r(3, 2))),
    ("add", _added_to_itself),
    ("add_row_bias", lambda r: add_row_bias(r(3, 2), r(2))),
    ("flatten", lambda r: flatten(r(3, 2))),
    ("matmul", lambda r: matmul(r(3, 2), r(2, 4))),
    ("mse_loss", lambda r: mse_loss(r(4), r(4))),
    ("edge_block_matmul", lambda r: edge_block_matmul(r(12), full_graph(4), r(8, 3))),
    ("edge_block_matmul", lambda r: edge_block_matmul(r(40), _sparse_ring(), r(80, 3))),
    *(("batchnorm_features", partial(_norm_op, dtype=dtype)) for dtype in (np.float32, np.float64)),
    *(("pool_blocks", partial(_pool_op, kind=kind)) for kind in ("mean", "sum_and_mean")),
    ("kept_edges", _structure_op),
]


def test_the_rule_cases_cover_every_recording_function():
    # by AST, so that a new op cannot skip the ownership test below
    recording = set()
    for path in Path(onigraph.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and "record_op" in ast.unparse(call.func)
                for call in ast.walk(node)
            ):
                recording.add(node.name)
    assert {name for name, _ in RULE_CASES} == recording


@pytest.mark.parametrize("name, build", RULE_CASES, ids=[name for name, _ in RULE_CASES])
def test_every_array_a_rule_returns_belongs_to_the_walk(name, build):
    # backward adds later gradients into the first one a tensor receives,
    # so no returned array may share memory with another or with a value
    rng = np.random.default_rng(30)
    with Tape() as tape:
        out = build(lambda *shape: t(rng.normal(size=shape), grad=True))
        entry = tape.entries[-1]
        assert entry.output is out
        grads = list(entry.rule(rng.normal(size=out.shape)))
    assert len(grads) == len(entry.inputs) and all(g is not None for g in grads)
    values = [out.data, *(x.data for x in entry.inputs)]
    for i, g in enumerate(grads):
        assert g.shape == entry.inputs[i].shape
        for other in grads[i + 1 :] + values:
            assert not np.shares_memory(g, other)


def test_three_paths_sum_in_walk_order():
    # 1 + 1e16 - 1e16 is 0 in one order and 1 in the other, so the bits
    # show the order of the sum
    c1, c2, c3 = np.array([0.1, 1.0]), np.array([0.2, 1e16]), np.array([0.3, -1e16])
    x = t([1.0, 2.0], grad=True)

    def path(c):
        out = autodiff._make_output(x.data.copy(), x)
        return record_op(out, (x,), lambda g: (c.copy(),))

    with Tape():
        outs = [path(c) for c in (c3, c2, c1)]  # the walk meets the last one first
        total = autodiff._make_output(np.zeros(()), *outs)
        backward(record_op(total, tuple(outs), lambda g: [np.ones(2) for _ in outs]))
    assert x.grad.tobytes() == ((c1 + c2) + c3).tobytes()
    assert x.grad.tobytes() != (c1 + (c2 + c3)).tobytes()


# --- grad_check -------------------------------------------------------------


def test_grad_check_linear_model_tight():
    w = t([[0.3]], grad=True)

    def f():
        return mse_loss(flatten(matmul(w, t([[2.0]]))), t([1.0]))

    assert grad_check(f, [w], step=1e-4) <= 1e-8


def test_grad_check_catches_corrupted_backward():
    w = t([[1.0]], grad=True)

    def bad_double(x):
        out = Tensor(x.data * 2.0)
        out.requires_grad = x.requires_grad
        return record_op(out, (x,), lambda g: (3.0 * g,))

    def f():
        return mse_loss(flatten(bad_double(w)), t([0.0]))

    assert grad_check(f, [w], step=1e-5) >= 1e-2


def test_grad_check_composite_ops():
    rng = np.random.default_rng(3)
    w = t(rng.normal(size=(3, 2)), grad=True)
    gamma = t(np.ones(2), grad=True)
    beta = t(np.zeros(2), grad=True)
    bias = t(rng.normal(size=2), grad=True)
    x = t(rng.normal(size=(4, 3)))
    running = initial_stats(2)

    def f():
        h = matmul(x, w)
        h = add_row_bias(h, bias)
        h = batchnorm_features(h, gamma, beta, running)
        pooled = pool_blocks([h, add(h, h)], 4, "mean")
        return mse_loss(flatten(pooled), t([0.1, 0.2, 0.3, 0.4]))

    assert grad_check(f, [w, gamma, beta, bias], step=1e-5) <= 1e-6


def test_grad_check_block_ops():
    rng = np.random.default_rng(11)
    edges = full_graph(3)
    values = t(rng.random(6), grad=True)
    w = t(rng.normal(size=(2, 2)), grad=True)
    z = t(rng.normal(size=(6, 2)))

    def f():
        h = matmul(edge_block_matmul(values, edges, z), w)
        pooled = pool_blocks([h], 3, "sum_and_mean")
        return mse_loss(flatten(pooled), t(np.zeros(8)))

    assert grad_check(f, [values, w], step=1e-5) <= 1e-6


def test_grad_check_block_matmul_input_gradient():
    rng = np.random.default_rng(12)
    edges = full_graph(3)
    values = t(rng.random(6), grad=True)
    z = t(rng.normal(size=(9, 2)), grad=True)  # batch of 3 blocks

    def f():
        pooled = pool_blocks([edge_block_matmul(values, edges, z)], 3, "sum_and_mean")
        return mse_loss(flatten(pooled), t(np.linspace(-1.0, 1.0, 12)))

    assert grad_check(f, [values, z], step=1e-5) <= 1e-6


def test_block_matmul_matches_einsum_reference(monkeypatch):
    monkeypatch.setattr(autodiff, "SPARSE_SHARE", 0.0)  # the dense kernel at any density
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, batch, d = (int(v) for v in rng.integers(1, 9, size=3))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        edges = EdgeIndex.from_flat(n, np.flatnonzero(mask))
        values = t(rng.normal(size=edges.rows.size), grad=True)
        z = t(rng.normal(size=(batch * n, d)), grad=True)
        g = rng.normal(size=(batch * n, d))
        with Tape() as tape:
            out = edge_block_matmul(values, edges, z)
            dv, dz = tape.entries[-1].rule(g)
        a = np.eye(n)
        a[edges.rows, edges.cols] = values.data
        blocks = z.data.reshape(batch, n, d)
        g3 = g.reshape(batch, n, d)
        references = (
            (out.data, np.einsum("ij,bjd->bid", a, blocks).reshape(batch * n, d)),
            (dv, np.einsum("bid,bjd->ij", g3, blocks)[edges.rows, edges.cols]),
            (dz, np.einsum("ji,bjd->bid", a, g3).reshape(batch * n, d)),
        )
        for got, want in references:
            atol = 1e-12 * np.abs(want).max(initial=0.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


# --- optimizer --------------------------------------------------------------


def test_sgd_zero_lr_keeps_parameter():
    p = t([[1.0, -2.0]], grad=True)
    p.grad = np.array([[5.0, 5.0]])
    sgd = Sgd(learning_rate=0.0, momentum=0.0, weight_decay=0.0, velocity={"p": np.zeros((1, 2))})
    sgd_nesterov_step([("p", p)], sgd)
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_sgd_hand_values():
    p = t([1.0], grad=True)
    p.grad = np.array([1.0])
    sgd = Sgd(learning_rate=0.1, momentum=0.9, weight_decay=0.0, velocity={"p": np.zeros(1)})
    sgd_nesterov_step([("p", p)], sgd)
    assert sgd.velocity["p"][0] == pytest.approx(-0.1)
    assert p.data[0] == pytest.approx(0.81)
    np.testing.assert_array_equal(p.grad, [0.0])


def test_sgd_pure_decay():
    p = t([2.0], grad=True)
    p.grad = np.array([0.0])
    sgd = Sgd(learning_rate=0.1, momentum=0.0, weight_decay=0.5, velocity={"p": np.zeros(1)})
    sgd_nesterov_step([("p", p)], sgd)
    assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def test_sgd_steps_each_parameter_with_its_own_velocity():
    a, b = t([1.0], grad=True), t([1.0, 1.0], grad=True)
    a.grad, b.grad = np.array([1.0]), np.array([2.0, 0.0])
    velocity = {"a": np.zeros(1), "b": np.array([0.5, 0.0])}
    sgd = Sgd(learning_rate=0.1, momentum=0.9, weight_decay=0.0, velocity=velocity)
    sgd_nesterov_step([("a", a), ("b", b)], sgd)
    np.testing.assert_allclose(sgd.velocity["a"], [-0.1])
    np.testing.assert_allclose(sgd.velocity["b"], [0.25, 0.0])
    np.testing.assert_allclose(a.data, [0.81])
    np.testing.assert_allclose(b.data, [1.025, 1.0])


def test_sgd_needs_a_velocity_of_the_parameter_shape():
    p = t([1.0, 2.0], grad=True)
    p.grad = np.zeros(2)
    for velocity in ({}, {"p": np.zeros(3)}):
        sgd = Sgd(learning_rate=0.1, momentum=0.9, weight_decay=0.0, velocity=velocity)
        with pytest.raises(DimensionError, match="'p'"):
            sgd_nesterov_step([("p", p)], sgd)


def test_optimizer_state_validation():
    with pytest.raises(ConfigError):
        Sgd(learning_rate=0.1, momentum=1.5, weight_decay=0.0, velocity={})
