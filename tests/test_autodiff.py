"""Model forward/backward correctness against finite differences and
hand-computed cross-entropy values."""

import math

import numpy as np
import pytest

from conftest import fd_gradient, max_rel_error
from gaplab.autodiff import (
    Conv3x3,
    Dense,
    Flatten,
    MaxPool2x2,
    ModelSpec,
    ParamVector,
    ReLU,
    accuracy,
    backward,
    forward,
    init_params,
    mlp,
    small_cnn,
    softmax_cross_entropy,
)
from gaplab.autodiff import _conv3x3_backward, _conv3x3_forward
from gaplab.errors import DivergenceError, ShapeError, SpecMismatchError
from gaplab.rng import Rng


def random_batch(spec, n, seed):
    rng = Rng(seed)
    shape = (n,) + spec.input_shape
    x = rng.normals(int(np.prod(shape))).reshape(shape)
    y = np.array([rng.next_below(spec.n_classes) for _ in range(n)])
    return x, y


# --- gradient checks per layer type ---------------------------------------

def check_grads(spec, seed, n=4):
    params = init_params(spec, seed)
    x, y = random_batch(spec, n, seed + 1000)
    _, grads, _ = backward(spec, params, x, y)
    fd = fd_gradient(spec, params, x, y)
    assert max_rel_error(grads.values, fd) < 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_dense_only(seed):
    check_grads(mlp(6, [], 4), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_dense_relu(seed):
    check_grads(mlp(5, [7], 4), seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_conv_pool_flatten(seed):
    check_grads(small_cnn((1, 8, 8), [2, 3], [], 4), seed, n=3)


def test_grad_deep_mixed():
    check_grads(small_cnn((2, 4, 4), [3], [5], 3), 7, n=4)
    check_grads(small_cnn((2, 4, 6), [3], [], 3), 8, n=3)  # non-square input


# --- conv kernels against the einsum reference ----------------------------

def einsum_conv3x3_forward(x, w, b):
    """Reference: one einsum per kernel offset over the NCHW input."""
    n, _, h, width = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((n, w.shape[0], h, width))
    for di in range(3):
        for dj in range(3):
            out += np.einsum(
                "oc,bchw->bohw", w[:, :, di, dj], xp[:, :, di:di + h, dj:dj + width]
            )
    return out + b[None, :, None, None]


def einsum_conv3x3_backward(x, w, dy):
    n, _, h, width = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di:di + h, dj:dj + width]
            dw[:, :, di, dj] = np.einsum("bohw,bchw->oc", dy, patch)
            dxp[:, :, di:di + h, dj:dj + width] += np.einsum(
                "oc,bohw->bchw", w[:, :, di, dj], dy
            )
    db = dy.sum(axis=(0, 2, 3))
    return dxp[:, :, 1:-1, 1:-1], dw, db


@pytest.mark.parametrize("n, c_in, c_out, h, w", [
    (1, 1, 1, 5, 5),
    (2, 2, 3, 3, 5),
    (3, 4, 2, 2, 6),
    (64, 3, 8, 8, 8),    # the cnn-files layers, at the training batch
    (64, 8, 16, 4, 4),
    (160, 3, 8, 8, 8),   # and at the size of its test set
    (160, 8, 16, 4, 4),
])
def test_conv3x3_kernels_match_einsum_reference(n, c_in, c_out, h, w):
    rng = Rng(n * 1000 + c_in * 100 + h * 10 + w)
    x = rng.normals(n * c_in * h * w).reshape(n, c_in, h, w)
    weights = rng.normals(c_out * c_in * 9).reshape(c_out, c_in, 3, 3)
    bias = rng.normals(c_out)
    dy = rng.normals(n * c_out * h * w).reshape(n, c_out, h, w)
    got = (_conv3x3_forward(x, weights, bias),) + _conv3x3_backward(x, weights, dy)
    want = (einsum_conv3x3_forward(x, weights, bias),) + einsum_conv3x3_backward(x, weights, dy)
    for name, g, e in zip(("out", "dx", "dw", "db"), got, want):
        assert g.shape == e.shape, name
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12, err_msg=name)
    again = (_conv3x3_forward(x, weights, bias),) + _conv3x3_backward(x, weights, dy)
    for g, a in zip(got, again):
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(a).tobytes()


# --- cross-entropy oracles -------------------------------------------------

def test_cross_entropy_uniform_logits():
    # all-zero logits: softmax uniform, loss = ln C for any labels
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 9, 5])
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert abs(loss - math.log(10)) < 1e-12
    expected = np.full((4, 10), 0.1)
    expected[np.arange(4), labels] -= 1.0
    np.testing.assert_allclose(dlogits, expected / 4, atol=1e-12)


def test_cross_entropy_hand_example():
    # single row [ln 3, 0]: softmax = [3/4, 1/4]; -ln(3/4) for label 0
    logits = np.array([[math.log(3.0), 0.0]])
    loss0, _ = softmax_cross_entropy(logits, np.array([0]))
    loss1, _ = softmax_cross_entropy(logits, np.array([1]))
    assert abs(loss0 - math.log(4.0 / 3.0)) < 1e-12
    assert abs(loss1 - math.log(4.0)) < 1e-12


def test_cross_entropy_shift_invariance():
    rng = Rng(2)
    logits = rng.normals(12).reshape(3, 4)
    labels = np.array([1, 0, 3])
    a, _ = softmax_cross_entropy(logits, labels)
    b, _ = softmax_cross_entropy(logits + 500.0, labels)
    assert abs(a - b) < 1e-9


def test_cross_entropy_overflow_safe():
    loss, _ = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert abs(loss) < 1e-9


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(Exception):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


# --- accuracy --------------------------------------------------------------

def test_accuracy_basic_and_tie_break():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    labels = np.array([0, 0, 0])
    # row 3 ties; argmax takes the lowest index, which matches label 0
    assert accuracy(logits, labels) == pytest.approx(2.0 / 3.0)


def test_accuracy_all_zero_logits_prefers_class_zero():
    logits = np.zeros((10, 10))
    labels = np.arange(10)
    assert accuracy(logits, labels) == pytest.approx(0.1)


# --- init ------------------------------------------------------------------

def test_init_bounds_and_zero_biases():
    spec = mlp(6, [8], 4)
    params = init_params(spec, 0)
    w1 = params.values[:48]
    b1 = params.values[48:56]
    w2 = params.values[56:88]
    b2 = params.values[88:92]
    assert np.abs(w1).max() <= math.sqrt(6.0 / 14)
    assert np.abs(w2).max() <= math.sqrt(6.0 / 12)
    assert not b1.any() and not b2.any()
    assert w1.std() > 0


def test_init_deterministic_per_seed():
    spec = mlp(4, [5], 3)
    a, b = init_params(spec, 9), init_params(spec, 9)
    np.testing.assert_array_equal(a.values, b.values)
    assert (init_params(spec, 10).values != a.values).any()


# --- spec plumbing ----------------------------------------------------------

def test_param_count_mlp():
    # 32-128-64-8: 32*128+128 + 128*64+64 + 64*8+8 = 4224+8256+520
    assert mlp(32, [128, 64], 8).param_count == 13000


def test_spec_digest_distinguishes_architectures():
    assert mlp(4, [5], 3).digest != mlp(4, [6], 3).digest
    assert mlp(4, [5], 3).digest == mlp(4, [5], 3).digest


def test_forward_shape_and_spec_guards():
    spec = mlp(4, [5], 3)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError):
        forward(spec, params, np.zeros((2, 7)))
    other = init_params(mlp(4, [6], 3), 0)
    with pytest.raises(SpecMismatchError):
        forward(spec, other, np.zeros((2, 4)))


def test_backward_rejects_nonfinite_input():
    spec = mlp(3, [], 2)
    params = init_params(spec, 0)
    bad = params.copy()
    bad.values[0] = np.nan
    with pytest.raises(DivergenceError):
        backward(spec, bad, np.ones((1, 3)), np.array([0]))


def test_maxpool_forward_hand_example():
    # one 4x4 channel: per 2x2 window maxima are 6, 8, 14, 16
    spec = ModelSpec((MaxPool2x2(), Flatten(), Dense(4, 2)), (1, 4, 4), 2)
    x = np.arange(1.0, 17.0).reshape(1, 1, 4, 4)
    w = np.zeros(spec.param_count)
    w[:4] = [1.0, 0.0, 0.0, 0.0]  # first dense row picks pooled[0]
    logits = forward(spec, ParamVector(w, spec.digest), x)
    assert logits[0, 0] == pytest.approx(6.0)


def test_flatten_preserves_order():
    spec = ModelSpec((Flatten(), Dense(4, 2)), (2, 2), 2)
    w = np.zeros(spec.param_count)
    # Dense weights are [n_out, n_in] row-major: first 4 = output-0 row
    w[:4] = [1.0, 2.0, 3.0, 4.0]
    x = np.array([[[1.0, 10.0], [100.0, 1000.0]]])
    logits = forward(spec, ParamVector(w, spec.digest), x)
    # row-major flatten: 1*1 + 10*2 + 100*3 + 1000*4
    assert logits[0, 0] == pytest.approx(4321.0)
