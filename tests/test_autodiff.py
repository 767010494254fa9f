"""Model forward/backward correctness against finite differences,
hand-computed cross-entropy values and reference kernels, including the
cache-free, in-place forward pass against a caching, out-of-place one,
and the spec digest's SHA-256 against hashlib's."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, max_rel_error
from gaplab.autodiff import (
    Conv3x3,
    Dense,
    Flatten,
    MaxPool2x2,
    ModelSpec,
    ParamVector,
    ReLU,
    Workspace,
    accuracy,
    backward,
    forward,
    init_params,
    mlp,
    small_cnn,
    softmax_cross_entropy,
)
from gaplab.autodiff import (
    _checked_forward,
    _conv3x3_backward,
    _conv3x3_forward,
    _maxpool_backward,
    _maxpool_forward,
    _pad_channels_last,
    _unflatten,
)
from gaplab.config import _sha256_hex
from gaplab.data import Dataset
from gaplab.experiment import _cpu_paths
from gaplab.errors import DivergenceError, LabelRangeError, ShapeError, SpecMismatchError
from gaplab.instrument import eval_test
from gaplab.rng import Rng
from gaplab.trainer import sgd_step


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


def nchw_conv3x3_kernels(x, w, b, dy):
    """The channels-last kernels on [N, C, H, W] arrays: out, dx, dw, db."""
    out = _conv3x3_forward(x.transpose(0, 2, 3, 1), w, b)
    dx, dw, db = _conv3x3_backward(x.transpose(0, 2, 3, 1), w, dy.transpose(0, 2, 3, 1))
    return out.transpose(0, 3, 1, 2), dx.transpose(0, 3, 1, 2), dw, db


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
    got = nchw_conv3x3_kernels(x, weights, bias, dy)
    want = (einsum_conv3x3_forward(x, weights, bias),) + einsum_conv3x3_backward(x, weights, dy)
    for name, g, e in zip(("out", "dx", "dw", "db"), got, want):
        assert g.shape == e.shape, name
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12, err_msg=name)
    again = nchw_conv3x3_kernels(x, weights, bias, dy)
    for g, a in zip(got, again):
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(a).tobytes()


# --- conv kernels against the strided products -----------------------------

def strided_conv3x3_forward(x, w, b):
    """Reference: the conv forward as nine products with the strided kernel
    slice, window @ w[:, :, di, dj].T, and an out-of-place bias add."""
    n, h, width, c = x.shape
    xp = _pad_channels_last(x)
    out = np.zeros((n * h * width, w.shape[0]), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            window = xp[:, di:di + h, dj:dj + width].reshape(-1, c)
            out += window @ w[:, :, di, dj].T
    return out.reshape(n, h, width, -1) + b


def strided_conv3x3_backward(x, w, dy, need_dx):
    """Reference: the conv backward with dx's products dy_mat @ w[:, :, di, dj]
    on the strided kernel slice."""
    n, h, width, c = x.shape
    xp = _pad_channels_last(x)
    dy_mat = dy.reshape(-1, w.shape[0])
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            window = xp[:, di:di + h, dj:dj + width].reshape(-1, c)
            dw[:, :, di, dj] = dy_mat.T @ window
            dxp[:, di:di + h, dj:dj + width] += (dy_mat @ w[:, :, di, dj]).reshape(n, h, width, c)
    db = np.ascontiguousarray(dy.transpose(0, 3, 1, 2)).sum(axis=(0, 2, 3))
    return dxp[:, 1:-1, 1:-1] if need_dx else None, dw, db


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6),
       c_in=st.integers(1, 9), c_out=st.integers(1, 17), need_dx=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=64, h=8, w=8, c_in=3, c_out=8, need_dx=False, seed=1)   # the cnn-files layers
@example(n=64, h=4, w=4, c_in=8, c_out=16, need_dx=True, seed=2)
def test_conv3x3_kernels_equal_the_strided_products_bit_for_bit(n, h, w, c_in, c_out,
                                                                need_dx, seed):
    # the kernels multiply by C-order copies of the kernel slices, which BLAS
    # takes directly; the bits must stay those of the strided slices
    rng = Rng(seed)
    x = rng.normals(n * h * w * c_in).reshape(n, h, w, c_in)
    weights = rng.normals(c_out * c_in * 9).reshape(c_out, c_in, 3, 3)
    bias = rng.normals(c_out)
    dy = rng.normals(n * h * w * c_out).reshape(n, h, w, c_out)
    got = (_conv3x3_forward(x, weights, bias),) + _conv3x3_backward(x, weights, dy, need_dx)
    want = ((strided_conv3x3_forward(x, weights, bias),)
            + strided_conv3x3_backward(x, weights, dy, need_dx))
    for name, g, e in zip(("out", "dx", "dw", "db"), got, want):
        if e is None:
            assert g is None, name
            continue
        assert g.shape == e.shape and bits(g) == bits(e), (
            f"conv {name} differs from the strided products on the CPU paths "
            f"experiment._cpu_paths() = {_cpu_paths()}")


# --- backward against the full chain ----------------------------------------

def full_chain_backward(spec, params, batch, labels):
    """Reference: the backward loop that also computes the input gradient
    of the first layer with parameters, and of every layer before it."""
    caches = []
    logits, layer_params = _checked_forward(spec, params, batch, caches)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    grads = np.zeros_like(params.values)
    dx = dlogits
    for layer, lp, gv, saved in zip(reversed(spec.layers), reversed(layer_params),
                                    reversed(_unflatten(spec, grads)),
                                    reversed(caches)):
        if isinstance(layer, Dense):
            w, _ = lp
            gw, gb = gv
            gw += dx.T @ saved
            gb += dx.sum(axis=0)
            dx = dx @ w
        elif isinstance(layer, ReLU):
            dx = dx * (saved > 0.0)
        elif isinstance(layer, Conv3x3):
            w, _ = lp
            gw, gb = gv
            dx, dw, db = _conv3x3_backward(saved, w, dx)
            gw += dw
            gb += db
        elif isinstance(layer, MaxPool2x2):
            dx = _maxpool_backward(*saved, dx)
        else:  # Flatten
            dx = dx.reshape(saved)
            dx = dx.transpose(0, 2, 3, 1) if dx.ndim == 4 else dx
    assert dx.size == np.size(batch)  # the chain reached the input
    return loss, grads, logits


@pytest.mark.parametrize("spec", [
    mlp(6, [8, 5], 4),
    mlp((2, 3, 4), [], 3),                   # Flatten -> Dense on [C, H, W]
    small_cnn((3, 8, 8), [4, 6], [8], 3),    # two conv blocks
], ids=["mlp", "flatten-dense", "smallcnn"])
def test_backward_equals_full_chain(spec):
    params = init_params(spec, 5)
    x, y = random_batch(spec, 16, 6)
    loss, grads, logits = backward(spec, params, x, y)
    want_loss, want_grads, want_logits = full_chain_backward(spec, params, x, y)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.values.tobytes() == want_grads.tobytes()
    assert logits.tobytes() == want_logits.tobytes()


# --- the lean forward pass against the caching reference -------------------

def caching_forward(spec, params, batch):
    """Reference: the layer chain with out-of-place bias and ReLU, keeping
    every layer's cache alive until the pass ends."""
    x = batch.transpose(0, 2, 3, 1) if batch.ndim == 4 else batch
    caches = []
    for layer, lp in zip(spec.layers, _unflatten(spec, params.values)):
        if isinstance(layer, Dense):
            w, b = lp
            caches.append(x)
            x = x @ w.T + b
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
            caches.append(x)
        elif isinstance(layer, Conv3x3):
            w, b = lp
            caches.append(x)
            x = strided_conv3x3_forward(x, w, b)
        elif isinstance(layer, MaxPool2x2):
            out = _maxpool_forward(x)
            caches.append((x, out))
            x = out
        else:
            x = x.transpose(0, 3, 1, 2) if x.ndim == 4 else x
            caches.append(x.shape)
            x = x.reshape(x.shape[0], -1)
    return x


def caching_eval_test(spec, params, test, eval_batch):
    loss_sum = 0.0
    correct = 0.0
    for start in range(0, test.n, eval_batch):
        x = test.features[start:start + eval_batch]
        y = test.labels[start:start + eval_batch]
        logits = caching_forward(spec, params, x)
        batch_loss, _ = softmax_cross_entropy(logits, y)
        loss_sum += batch_loss * len(y)
        correct += accuracy(logits, y) * len(y)
    return loss_sum / test.n, correct / test.n


LEAN_SPECS = [
    mlp(6, [8, 5], 4),
    mlp((2, 3, 4), [], 3),                   # Flatten -> Dense on [C, H, W]
    small_cnn((3, 8, 8), [4, 6], [8], 3),    # two conv blocks
    # widths kept through each Dense and Conv3x3: a bias added to the
    # layer's input instead of its output still broadcasts
    mlp(4, [4], 4),
    small_cnn((2, 4, 4), [2, 2], [2], 2),
]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=st.sampled_from(LEAN_SPECS), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 30.0]), eval_batch=st.integers(2, 9),
       full=st.integers(0, 3), data=st.data())
def test_forward_and_eval_test_equal_caching_reference(spec, seed, scale, eval_batch, full, data):
    rest = data.draw(st.integers(1, eval_batch - 1))  # the last batch is short
    n = full * eval_batch + rest
    rng = Rng(seed)
    params = ParamVector(scale * rng.normals(spec.param_count), spec.digest)
    x, y = random_batch(spec, n, seed ^ 1)
    test = Dataset(x, y, spec.n_classes)
    assert forward(spec, params, x).tobytes() == caching_forward(spec, params, x).tobytes()
    got = np.array(eval_test(spec, params, test, eval_batch))
    want = np.array(caching_eval_test(spec, params, test, eval_batch))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [
    ModelSpec((ReLU(), Dense(4, 3)), (4,), 3),                     # ReLU on the batch
    ModelSpec((Flatten(), ReLU(), Dense(24, 3)), (2, 3, 4), 3),    # ReLU on a view of it
    small_cnn((3, 8, 8), [4, 6], [8], 3),
], ids=["relu-first", "flatten-relu", "smallcnn"])
def test_passes_never_write_the_callers_arrays(spec):
    params = init_params(spec, 7)
    x, y = random_batch(spec, 10, 8)  # normals: half the entries are negative
    test = Dataset(x.copy(), y, spec.n_classes)
    want_x, want_features = x.tobytes(), test.features.tobytes()
    forward(spec, params, x)
    backward(spec, params, x, y)
    eval_test(spec, params, test, 4)
    eval_test(spec, params, test, 4, Workspace(spec, 4))
    assert x.tobytes() == want_x
    assert test.features.tobytes() == want_features


# --- max-pool kernels against the argmax reference ------------------------

def argmax_maxpool_forward(x):
    """Reference: argmax over each [N, H, W, C] window's four values, in
    window order; the first maximum wins."""
    n, h, w, c = x.shape
    win = (
        x.reshape(n, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, c, 4)
    )
    arg = win.argmax(axis=-1)
    return np.take_along_axis(win, arg[..., None], axis=-1)[..., 0], arg


def argmax_maxpool_backward(x_shape, arg, dy):
    n, h, w, c = x_shape
    dwin = np.zeros((n, h // 2, w // 2, c, 4))
    np.put_along_axis(dwin, arg[..., None], dy[..., None], axis=-1)
    return (
        dwin.reshape(n, h // 2, w // 2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, h, w, c)
    )


def signed_zeros(shape, seed):
    """A random mix of 0.0 and -0.0."""
    draws = Rng(seed).uniforms(math.prod(shape), 0.0, 1.0).reshape(shape)
    return np.where(draws < 0.5, 0.0, -0.0)


def pool_input(name):
    rng = Rng(31)
    normal = rng.normals(6 * 8 * 8 * 5).reshape(6, 8, 8, 5)
    relu = np.maximum(normal, 0.0)  # three in four windows hold zero ties
    coarse = np.floor(rng.uniforms(4 * 4 * 6 * 3, 0.0, 3.0)).reshape(4, 4, 6, 3)
    return {
        "post-relu": relu,
        "quadrant-ties": coarse,  # values 0, 1 and 2: many exact ties
        "signed-zeros": signed_zeros((3, 4, 4, 2), 32),
        "signed-zeros-and-negatives": signed_zeros((4, 4, 6, 3), 33) - (coarse == 2),
        "transposed-view": relu.transpose(0, 2, 1, 3),
        "nchw-view": normal.reshape(6, 5, 8, 8).transpose(0, 2, 3, 1),
        "sliced-view": coarse[:, :, 1:5],
    }[name]


@pytest.mark.parametrize("name", [
    "post-relu", "quadrant-ties", "signed-zeros", "signed-zeros-and-negatives",
    "transposed-view", "nchw-view", "sliced-view",
])
def test_maxpool_kernels_match_argmax_reference(name):
    x = pool_input(name)
    out = _maxpool_forward(x)
    want, arg = argmax_maxpool_forward(x)
    assert out.shape == want.shape
    assert np.ascontiguousarray(out).tobytes() == want.tobytes()
    for dy in (Rng(34).normals(out.size).reshape(out.shape),
               signed_zeros(out.shape, 35)):
        dx = _maxpool_backward(x, out, dy)
        assert dx.shape == x.shape and dx.flags.c_contiguous
        assert dx.tobytes() == argmax_maxpool_backward(x.shape, arg, dy).tobytes()


def test_maxpool_nan_ends_in_divergence_error():
    # a NaN in any quadrant of a window reaches the pooled activation
    spec = ModelSpec((MaxPool2x2(), Flatten(), Dense(4, 2)), (1, 4, 4), 2)
    params = init_params(spec, 0)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        x[0, 0, 2 + i, 2 + j] = np.nan
        pooled = _maxpool_forward(x.transpose(0, 2, 3, 1))
        assert np.isnan(pooled[0, 1, 1, 0]) and np.isfinite(pooled).sum() == 3
        with pytest.raises(DivergenceError):
            forward(spec, params, x)
        with pytest.raises(DivergenceError):
            backward(spec, params, x, np.array([0]))


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


def test_cross_entropy_rejects_flat_logits_and_too_few_labels():
    # `_check_logits`' shape guards, which logits from `forward` never reach
    with pytest.raises(ShapeError, match=r"^logits must be \[B, C\], got shape \(3,\)$"):
        softmax_cross_entropy(np.zeros(3), np.array([0, 1, 2]))
    with pytest.raises(ShapeError, match=r"^labels shape \(1,\) does not match batch 2$"):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


def test_cross_entropy_and_accuracy_reject_labels_out_of_range():
    # a negative label would index from the end, and one past C would fail
    # as an IndexError: the range check turns both into LabelRangeError
    logits = np.zeros((2, 3))
    for labels, got in (([0, -1], r"\[-1, 0\]"), ([0, 3], r"\[0, 3\]")):
        message = rf"^labels must lie in \[0, 3\), got range {got}$"
        for check in (softmax_cross_entropy, accuracy,
                      lambda x, y: softmax_cross_entropy(x, y, grad=False)):
            with pytest.raises(LabelRangeError, match=message):
                check(logits, np.array(labels))


def reference_cross_entropy(logits, labels):
    """Reference: the full log-softmax and its mean, as softmax_cross_entropy
    computed them before it took the loss without the log-softmax array."""
    n = len(labels)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-log_p[np.arange(n), labels].mean())
        dlogits = np.exp(log_p)
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
    return loss, dlogits


# pools of logit values: argmax ties, rows whose maximum is 0.0 tied with
# -0.0, and finite extremes whose difference overflows the shift to -inf
LOGIT_POOLS = {
    "ties": [-2.0, -1.0, 0.0, 1.0, 2.0],
    "signed-zeros": [0.0, -0.0, -1.0, -3.0],
    "extremes": [1.7e308, -1.7e308, -1e300, 2.0, 1.0, 0.0, -0.5],
}


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(b=st.integers(1, 300), c=st.integers(2, 12),
       kind=st.sampled_from(["normals"] + list(LOGIT_POOLS)),
       seed=st.integers(0, 2**32 - 1))
def test_loss_and_accuracy_without_gradient_are_bit_identical(b, c, kind, seed):
    rng = Rng(seed)
    if kind == "normals":
        logits = rng.normals(b * c).reshape(b, c) * 30.0
    else:
        pool = np.array(LOGIT_POOLS[kind])
        logits = pool[(rng.uniforms(b * c, 0.0, len(pool))).astype(np.int64)].reshape(b, c)
    labels = np.array([rng.next_below(c) for _ in range(b)])
    want_loss, want_dlogits = reference_cross_entropy(logits, labels)
    if not math.isfinite(want_loss):
        for grad in (True, False):
            with pytest.raises(DivergenceError, match=r"^non-finite cross-entropy loss$"):
                softmax_cross_entropy(logits, labels, grad=grad)
        return
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert bits(loss) == bits(want_loss)
    assert dlogits.tobytes() == want_dlogits.tobytes()
    loss_only, acc = softmax_cross_entropy(logits, labels, grad=False)
    assert bits(loss_only) == bits(loss)
    assert bits(acc) == bits(accuracy(logits, labels))


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


@pytest.mark.parametrize("spec, layers", [
    (mlp(6, [8, 5], 4), (Dense(6, 8), ReLU(), Dense(8, 5), ReLU(), Dense(5, 4))),
    (mlp((2, 3, 4), [], 3), (Flatten(), Dense(24, 3))),
    (small_cnn((2, 4, 4), [], [5], 3), (Flatten(), Dense(32, 5), ReLU(), Dense(5, 3))),
    (small_cnn((3, 8, 8), [4, 6], [8], 3),
     (Conv3x3(3, 4), ReLU(), MaxPool2x2(), Conv3x3(4, 6), ReLU(), MaxPool2x2(),
      Flatten(), Dense(24, 8), ReLU(), Dense(8, 3))),
    (small_cnn((2, 4, 6), [3], [], 3),
     (Conv3x3(2, 3), ReLU(), MaxPool2x2(), Flatten(), Dense(18, 3))),
], ids=["mlp", "mlp-flatten", "smallcnn-no-conv", "smallcnn", "smallcnn-non-square"])
def test_builders_layers(spec, layers):
    assert spec.layers == layers


CHW = r"^smallcnn needs channels x height x width input, got shape "


@pytest.mark.parametrize("args, message", [
    (((32,), [], [8], 3), CHW + r"\(32,\)$"),
    (((32,), [4], [], 3), CHW + r"\(32,\)$"),
    (((3, 8, 8, 2), [4], [], 3), CHW + r"\(3, 8, 8, 2\)$"),
    (((3, 6, 6), [4, 4], [], 3), r"^MaxPool2x2 needs even nonzero H and W, got 3x3$"),
], ids=["flat-no-conv", "flat-conv", "four-dims", "odd-pool-input"])
def test_small_cnn_refuses_input_it_cannot_take(args, message):
    with pytest.raises(ShapeError, match=message):
        small_cnn(*args)


def test_spec_digest_distinguishes_architectures():
    assert mlp(4, [5], 3).digest != mlp(4, [6], 3).digest
    assert mlp(4, [5], 3).digest == mlp(4, [5], 3).digest


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.binary(max_size=300))
def test_sha256_hex_matches_hashlib(data):
    # the spec digest and the config hash, without hashlib's OpenSSL
    assert _sha256_hex(data) == hashlib.sha256(data).hexdigest()


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


# a linear model with unit weights: its logits overflow on these features
LINEAR = mlp(3, [], 2)
UNIT = ParamVector(np.ones(LINEAR.param_count), LINEAR.digest)
HUGE = np.full((4, 3), 1.7e308)
# a hidden activation of 1e-10 keeps the logits finite, (1.7e298, -1.7e298),
# but the gradient through the output weights, (1, -1) @ w, overflows
HIDDEN = mlp(2, [2], 2)
OVERFLOWS = {
    "forward": lambda: forward(LINEAR, UNIT, HUGE),
    "backward": lambda: backward(
        HIDDEN, ParamVector([1e-10, 0, 0, 0, 0, 0, 1.7e308, 1.7e308, -1.7e308, -1.7e308,
                             0, 0], HIDDEN.digest),
        np.array([[1.0, 0.0]]), np.array([1])),
    "cross-entropy-overflow": lambda: softmax_cross_entropy(
        np.array([[-1.7e308, 1.7e308]]), np.array([0])),
    "cross-entropy-inf": lambda: softmax_cross_entropy(np.array([[np.inf, 0.0]]),
                                                       np.array([0])),
    "sgd_step": lambda: sgd_step(ParamVector(np.full(3, -1e308), "d"),
                                 ParamVector(np.full(3, 1e308), "d"),
                                 np.zeros(3), 1.0, 0.9),
    "eval_test": lambda: eval_test(LINEAR, UNIT, Dataset(HUGE, np.zeros(4, np.int64), 2)),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_overflow_raises_divergence_error_never_a_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            OVERFLOWS[name]()


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
