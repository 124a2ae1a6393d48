import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onigraph
from onigraph import autodiff
from onigraph.autodiff import (
    EdgeIndex,
    OptimizerState,
    RunningStats,
    Tape,
    Tensor,
    add,
    add_row_bias,
    backward,
    batchnorm_features,
    block_reduce,
    concat_features,
    edge_block_matmul,
    flatten,
    grad_check,
    matmul,
    mse_loss,
    record_op,
    reshape,
    scale,
    sgd_nesterov_step,
    unary_activation,
    _sigmoid,
)
from onigraph.errors import ConfigError, DimensionError, NumericError


def t(values, grad=False):
    return Tensor(values, requires_grad=grad)


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


def test_activation_fixed_points():
    x = t([[0.0]])
    assert unary_activation(x, "tanh").data[0, 0] == 0.0
    assert unary_activation(x, "sigmoid").data[0, 0] == 0.5
    assert unary_activation(x, "elu").data[0, 0] == 0.0


def test_elu_positive_branch_is_identity():
    assert unary_activation(t([[2.0]]), "elu").data[0, 0] == 2.0


def test_activation_scalar_oracle_values():
    assert unary_activation(t([[-1.0]]), "elu").data[0, 0] == pytest.approx(
        math.exp(-1.0) - 1.0, abs=1e-12
    )
    assert unary_activation(t([[1.0]]), "tanh").data[0, 0] == pytest.approx(
        0.7615941559557649, abs=1e-12
    )


def test_unknown_activation_rejected():
    with pytest.raises(ConfigError):
        unary_activation(t([[0.0]]), "relu")


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
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        scale(t([1.0, 1e308]), 10.0)
    with pytest.raises(NumericError):
        add(t([math.nan]), t([1.0]))


def test_nonfinite_check_survives_optimized_mode():
    code = (
        "from onigraph.autodiff import Tensor, scale\n"
        "from onigraph.errors import NumericError\n"
        "try:\n"
        "    scale(Tensor([1e308]), 10.0)\n"
        "except NumericError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(onigraph.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


# --- batchnorm --------------------------------------------------------------


def test_batchnorm_constant_column_is_zero():
    z = t(np.full((4, 2), 3.25))
    out = batchnorm_features(z, t(np.ones(2)), t(np.zeros(2)))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_batchnorm_two_value_column():
    z = t([[1.0], [3.0]])
    out = batchnorm_features(z, t(np.ones(1)), t(np.zeros(1)), eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-9)


def test_batchnorm_zero_gamma_gives_beta():
    z = t(np.random.default_rng(1).normal(size=(5, 3)))
    beta = np.array([1.0, -2.0, 0.5])
    out = batchnorm_features(z, t(np.zeros(3)), t(beta))
    np.testing.assert_array_equal(out.data, np.broadcast_to(beta, (5, 3)))


def test_batchnorm_single_row_train_rejected():
    with pytest.raises(NumericError):
        batchnorm_features(t([[1.0, 2.0]]), t(np.ones(2)), t(np.zeros(2)))


def test_batchnorm_running_stats_update_and_eval():
    running = RunningStats.initial(1)
    z = t([[1.0], [3.0]])
    batchnorm_features(z, t(np.ones(1)), t(np.zeros(1)), mode="train", running=running)
    assert running.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert running.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)
    before = (running.mean.copy(), running.var.copy())
    out = batchnorm_features(
        z, t(np.ones(1)), t(np.zeros(1)), mode="eval", running=running
    )
    expected = (z.data - before[0]) / np.sqrt(before[1] + 1e-5)
    np.testing.assert_allclose(out.data, expected)
    np.testing.assert_array_equal(running.mean, before[0])
    np.testing.assert_array_equal(running.var, before[1])


# --- fused batchnorm + activation -------------------------------------------

ACTIVATION_KINDS = ("elu", "tanh", "sigmoid", "identity")

# the separate ops the fused one replaced: forward of the pre-activation x,
# and the gradient at x from the gradient g at the output y
REFERENCE_ACTIVATIONS = {
    "elu": (lambda x: np.where(x > 0.0, x, np.expm1(x)),
            lambda g, x, y: np.where(x > 0.0, g, g * (y + 1.0))),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_two_branch_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "identity": (lambda x: x, lambda g, x, y: g),
}


def _reference_norm_act(z, gamma, beta, eps, mode, running, kind, g):
    """Output, (dz, dgamma, dbeta) and the running statistics after the
    call, by the textbook batchnorm and activation formulas."""
    n = z.shape[0]
    mean, var = (z.mean(axis=0), z.var(axis=0)) if mode == "train" else (running.mean, running.var)
    new_mean, new_var = running.mean, running.var
    if mode == "train":
        m = running.momentum
        new_mean = (1.0 - m) * running.mean + m * mean
        new_var = (1.0 - m) * running.var + m * var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (z - mean) * inv
    x = xhat * gamma + beta
    fwd, bwd = REFERENCE_ACTIVATIONS[kind]
    y = fwd(x)
    gx = bwd(g, x, y)
    dxhat = gx * gamma
    if mode == "train":
        dz = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    else:
        dz = dxhat * inv
    return y, (dz, (gx * xhat).sum(axis=0), gx.sum(axis=0)), (new_mean, new_var)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_fused_norm_act_is_bit_identical_to_reference_formulas(kind, mode):
    rng = np.random.default_rng(41)
    batch, nodes, width = 3, 37, 5  # stacked (B * N, D) rows
    z = t(rng.normal(scale=2.0, size=(batch * nodes, width)) + 0.5, grad=True)
    gamma = t(rng.normal(size=width), grad=True)
    beta = t(rng.normal(size=width), grad=True)
    running = RunningStats(rng.normal(size=width), rng.random(width) + 0.5)
    g = rng.normal(size=z.shape)
    want_y, want_grads, want_running = _reference_norm_act(
        z.data, gamma.data, beta.data, 1e-5, mode, running.copy(), kind, g
    )
    with Tape() as tape:
        out = batchnorm_features(z, gamma, beta, 1e-5, mode, running, kind)
        grads = tape.entries[-1].rule(g)
    assert out.data.tobytes() == want_y.tobytes()
    for got, want in zip(grads, want_grads):
        assert got.tobytes() == want.tobytes()
    for got, want in zip((running.mean, running.var), want_running):
        assert got.tobytes() == want.tobytes()
    # nothing recorded: the single-buffer forward gives the same bits
    frozen = RunningStats(*want_running)
    want_eval = _reference_norm_act(z.data, gamma.data, beta.data, 1e-5, "eval", frozen, kind, g)[0]
    got_eval = batchnorm_features(z, gamma, beta, 1e-5, "eval", frozen, kind)
    assert got_eval.data.tobytes() == want_eval.tobytes()


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
        out = batchnorm_features(z, gamma, beta, mode=mode, running=running.copy(), activation=kind)
        return mse_loss(flatten(out), target)

    assert grad_check(f, [z, gamma, beta], step=1e-6) <= 1e-6


def test_fused_norm_act_eval_mutates_nothing():
    rng = np.random.default_rng(43)
    z = t(rng.normal(size=(12, 4)), grad=True)
    running = RunningStats(rng.normal(size=4), rng.random(4) + 0.5)
    before = (z.data.copy(), running.mean.copy(), running.var.copy())
    gamma, beta = t(np.ones(4), grad=True), t(np.zeros(4), grad=True)
    batchnorm_features(z, gamma, beta, mode="eval", running=running, activation="elu")
    with Tape():
        loss = mse_loss(
            flatten(batchnorm_features(z, gamma, beta, mode="eval", running=running,
                                       activation="elu")),
            t(np.zeros(48)),
        )
        backward(loss)
    for got, want in zip((z.data, running.mean, running.var), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["elu", "tanh", "sigmoid"])
def test_fused_norm_act_checks_finiteness_before_the_activation(kind):
    # xhat is about -1 on the second row, so the shifted value overflows to
    # -inf, which these activations would map to a finite value
    z = t([[1.0], [-1.0]])
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        batchnorm_features(z, t([1e308]), t([-1e308]), activation=kind)


def test_fused_norm_act_rejects_unknown_activation():
    with pytest.raises(ConfigError, match="relu"):
        batchnorm_features(t(np.ones((2, 1))), t([1.0]), t([0.0]), activation="relu")


def test_elu_of_negative_zero_is_positive_zero():
    # the one signed-zero difference from where(x > 0, x, expm1(x)), which
    # gives -0.0; a zero-initialized shift never produces -0.0
    out = unary_activation(t([[-0.0, 0.0]]), "elu").data
    np.testing.assert_array_equal(out, [[0.0, 0.0]])
    assert not np.signbit(out).any()


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_activations_take_every_tensor_rank(kind):
    fwd, bwd = REFERENCE_ACTIVATIONS[kind]
    for values in (-0.75, [0.5, -2.0], [[1.5, -0.25]]):
        x = t(values, grad=True)
        g = np.full(x.shape, 0.5)
        with Tape() as tape:
            out = unary_activation(x, kind)
            (dx,) = tape.entries[-1].rule(g)
        assert out.data.tobytes() == fwd(x.data).tobytes()
        assert np.asarray(dx).tobytes() == bwd(g, x.data, out.data).tobytes()


def test_elu_evaluates_expm1_on_the_negative_half_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = unary_activation(t([[800.0, -1.0]]), "elu").data
    assert out[0, 0] == 800.0
    assert out[0, 1] == math.expm1(-1.0)


# --- concat / reduce --------------------------------------------------------


def test_concat_single_part_unchanged():
    a = t([[1.0, 2.0]])
    np.testing.assert_array_equal(concat_features([a]).data, a.data)


def test_concat_shapes_and_order():
    a = t(np.ones((4, 2)))
    b = t(np.zeros((4, 3)))
    out = concat_features([a, b])
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)


def test_concat_enumerated_values():
    out = concat_features([t([[1.0], [2.0]]), t([[3.0], [4.0]])])
    np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_row_mismatch_rejected():
    with pytest.raises(DimensionError):
        concat_features([t(np.ones((2, 1))), t(np.ones((3, 1)))])


def test_block_reduce_single_block_values():
    np.testing.assert_array_equal(
        block_reduce(t([[2.0, 5.0], [2.0, 5.0]]), 2, "mean").data, [[2.0, 5.0]]
    )
    np.testing.assert_array_equal(block_reduce(t([[1.0], [3.0]]), 2, "sum").data, [[4.0]])
    np.testing.assert_array_equal(
        block_reduce(t([[1.0, 0.0], [3.0, 2.0]]), 2, "mean").data, [[2.0, 1.0]]
    )


def test_reduce_empty_rejected():
    with pytest.raises(DimensionError):
        block_reduce(t(np.ones((0, 2))), 0, "mean")


def test_block_ops_match_per_sample_ops():
    rng = np.random.default_rng(7)
    a = rng.random((3, 3))
    np.fill_diagonal(a, 1.0)
    edges = full_graph(3)
    z1, z2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    stacked = edge_block_matmul(t(a[edges.rows, edges.cols]), edges, t(np.vstack([z1, z2])))
    np.testing.assert_allclose(stacked.data[:3], a @ z1)
    np.testing.assert_allclose(stacked.data[3:], a @ z2)
    pooled = block_reduce(t(np.vstack([z1, z2])), 3, "mean")
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
    x = t([[2.0], [1.0]])
    with Tape() as tape:
        hidden = unary_activation(matmul(w, x), "tanh")
        loss = mse_loss(flatten(hidden), t([0.0]))
        backward(loss)
        assert tape.entries == []
    assert hidden.grad is None and loss.grad is None
    y = math.tanh(2.5)
    want = np.array([[2.0, 1.0]]) * (2.0 * y * (1.0 - y * y))
    np.testing.assert_allclose(w.grad, want, rtol=1e-14)


def test_backward_requires_scalar():
    v = t([1.0, 2.0], grad=True)
    with Tape():
        out = scale(v, 2.0)
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
            out = unary_activation(matmul(w, x), "tanh")
            loss = mse_loss(flatten(out), t(np.zeros(8)))
            backward(loss)
        return out.data.tobytes(), w.grad.tobytes()

    assert run() == run()


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
    running = RunningStats.initial(2)

    def f():
        h = matmul(x, w)
        h = add_row_bias(h, bias)
        h = batchnorm_features(h, gamma, beta, mode="train", running=running)
        h = unary_activation(h, "elu")
        pooled = block_reduce(concat_features([h, scale(h, -0.5)]), 4, "mean")
        return mse_loss(flatten(reshape(pooled, (1, 4))), t([0.1, 0.2, 0.3, 0.4]))

    assert grad_check(f, [w, gamma, beta, bias], step=1e-5) <= 1e-6


def test_grad_check_block_ops():
    rng = np.random.default_rng(11)
    edges = full_graph(3)
    values = t(rng.random(6), grad=True)
    w = t(rng.normal(size=(2, 2)), grad=True)
    z = t(rng.normal(size=(6, 2)))

    def f():
        h = matmul(edge_block_matmul(values, edges, z), w)
        pooled = block_reduce(h, 3, "sum")
        return mse_loss(flatten(pooled), t(np.zeros(4)))

    assert grad_check(f, [values, w], step=1e-5) <= 1e-6


def test_grad_check_block_matmul_input_gradient():
    rng = np.random.default_rng(12)
    edges = full_graph(3)
    values = t(rng.random(6), grad=True)
    z = t(rng.normal(size=(9, 2)), grad=True)  # batch of 3 blocks

    def f():
        pooled = block_reduce(edge_block_matmul(values, edges, z), 3, "sum")
        return mse_loss(flatten(pooled), t(np.linspace(-1.0, 1.0, 6)))

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
    state = OptimizerState(np.zeros((1, 2)), learning_rate=0.0, momentum=0.0)
    sgd_nesterov_step(p, state)
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_sgd_hand_values():
    p = t([1.0], grad=True)
    p.grad = np.array([1.0])
    state = OptimizerState(np.zeros(1), learning_rate=0.1, momentum=0.9)
    sgd_nesterov_step(p, state)
    assert state.velocity[0] == pytest.approx(-0.1)
    assert p.data[0] == pytest.approx(0.81)
    np.testing.assert_array_equal(p.grad, [0.0])


def test_sgd_pure_decay():
    p = t([2.0], grad=True)
    p.grad = np.array([0.0])
    state = OptimizerState(np.zeros(1), learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    sgd_nesterov_step(p, state)
    assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


def test_optimizer_state_validation():
    with pytest.raises(ConfigError):
        OptimizerState(np.zeros(1), learning_rate=0.1, momentum=1.5)
