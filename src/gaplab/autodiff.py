"""Minimal tensor network with hand-written reverse-mode gradients.

Supports exactly the layer vocabulary needed here: Dense, ReLU,
shape-preserving 3x3 convolution (stride 1, zero padding 1), 2x2 max
pooling (stride 2) and Flatten, closed by a softmax cross-entropy loss.
All arrays are 64-bit floats in row-major order. Every operation is a
pure function of its inputs, so repeated calls are bit-identical and the
whole module is safe to use from multiple threads on shared inputs.

Parameters live in a single flat vector (`ParamVector`) in canonical
order: layers in sequence, within a layer the weights row-major followed
by the biases. The vector carries a digest of the model spec so that
vectors from different architectures cannot be mixed up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DivergenceError,
    LabelRangeError,
    ShapeError,
    SpecMismatchError,
)
from .rng import Rng

Tensor = np.ndarray


def as_tensor(data) -> Tensor:
    return np.asarray(data, dtype=np.float64)


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite values in {context}")


# ---------------------------------------------------------------------------
# Layer descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int

    def token(self) -> str:
        return f"dense({self.n_in},{self.n_out})"


@dataclass(frozen=True)
class ReLU:
    def token(self) -> str:
        return "relu"


@dataclass(frozen=True)
class Conv3x3:
    """3x3 convolution, stride 1, zero padding 1 (shape preserving)."""

    in_channels: int
    out_channels: int

    def token(self) -> str:
        return f"conv3x3({self.in_channels},{self.out_channels})"


@dataclass(frozen=True)
class MaxPool2x2:
    def token(self) -> str:
        return "maxpool2x2"


@dataclass(frozen=True)
class Flatten:
    def token(self) -> str:
        return "flatten"


Layer = Dense | ReLU | Conv3x3 | MaxPool2x2 | Flatten


def _weight_shape(layer: Layer) -> tuple[int, ...] | None:
    """Shape of a layer's weights, outputs first; each output also has one
    bias. None for layers without parameters."""
    if isinstance(layer, Dense):
        return (layer.n_out, layer.n_in)
    if isinstance(layer, Conv3x3):
        return (layer.out_channels, layer.in_channels, 3, 3)
    return None


def _layer_param_count(layer: Layer) -> int:
    shape = _weight_shape(layer)
    return 0 if shape is None else math.prod(shape) + shape[0]


def _layer_out_shape(layer: Layer, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by `layer` on a single (batchless) input, or raise."""
    if isinstance(layer, Dense):
        if shape != (layer.n_in,):
            raise ShapeError(f"Dense({layer.n_in},{layer.n_out}) cannot take input of shape {shape}")
        return (layer.n_out,)
    if isinstance(layer, ReLU):
        return shape
    if isinstance(layer, Conv3x3):
        if len(shape) != 3 or shape[0] != layer.in_channels:
            raise ShapeError(f"Conv3x3({layer.in_channels},{layer.out_channels}) cannot take input of shape {shape}")
        return (layer.out_channels, shape[1], shape[2])
    if isinstance(layer, MaxPool2x2):
        if len(shape) != 3:
            raise ShapeError(f"MaxPool2x2 needs [C,H,W] input, got shape {shape}")
        c, h, w = shape
        if h % 2 or w % 2 or h == 0 or w == 0:
            raise ShapeError(f"MaxPool2x2 needs even nonzero H and W, got {h}x{w}")
        return (c, h // 2, w // 2)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    raise ShapeError(f"unknown layer {layer!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Validated architecture: layer chain, input shape and class count."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ShapeError(f"need at least 2 classes, got {self.n_classes}")
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        shape = tuple(int(d) for d in self.input_shape)
        if any(d <= 0 for d in shape):
            raise ShapeError(f"input shape must be positive, got {shape}")
        for layer in self.layers:
            shape = _layer_out_shape(layer, shape)
        if shape != (self.n_classes,):
            raise ShapeError(
                f"model output shape {shape} does not match n_classes={self.n_classes}"
            )

    @cached_property
    def digest(self) -> str:
        desc = "gapl-model-v1;input={};classes={};{}".format(
            list(self.input_shape),
            self.n_classes,
            ",".join(layer.token() for layer in self.layers),
        )
        return hashlib.sha256(desc.encode("ascii")).hexdigest()

    @cached_property
    def param_count(self) -> int:
        return sum(_layer_param_count(layer) for layer in self.layers)


def _dense_head(n_in: int, hidden: list[int], n_classes: int) -> list[Layer]:
    """Dense-ReLU layers through the `hidden` widths, then the output layer."""
    layers: list[Layer] = []
    for width in hidden:
        layers.append(Dense(n_in, width))
        layers.append(ReLU())
        n_in = width
    layers.append(Dense(n_in, n_classes))
    return layers


def mlp(input_shape: int | tuple[int, ...], hidden: list[int], n_classes: int) -> ModelSpec:
    """Fully connected ReLU network input -> hidden... -> n_classes; input
    with more than one dimension is flattened first."""
    shape = (input_shape,) if np.ndim(input_shape) == 0 else tuple(input_shape)
    layers: list[Layer] = [Flatten()] if len(shape) > 1 else []
    layers += _dense_head(math.prod(shape), hidden, n_classes)
    return ModelSpec(tuple(layers), shape, n_classes)


def small_cnn(
    input_shape: tuple[int, int, int],
    channels: list[int],
    hidden: list[int],
    n_classes: int,
) -> ModelSpec:
    """Conv-ReLU-pool blocks, then a flattened dense head."""
    c, h, w = input_shape
    layers: list[Layer] = []
    prev_c = c
    for ch in channels:
        layers.append(Conv3x3(prev_c, ch))
        layers.append(ReLU())
        layers.append(MaxPool2x2())
        prev_c = ch
        h //= 2
        w //= 2
    layers.append(Flatten())
    layers += _dense_head(prev_c * h * w, hidden, n_classes)
    return ModelSpec(tuple(layers), tuple(input_shape), n_classes)


# ---------------------------------------------------------------------------
# Parameter vector
# ---------------------------------------------------------------------------

@dataclass
class ParamVector:
    """Flat float64 parameter vector bound to a ModelSpec by digest."""

    values: np.ndarray
    spec_digest: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeError("ParamVector values must be one-dimensional")

    def __len__(self) -> int:
        return len(self.values)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.spec_digest)


def check_same_spec(a: ParamVector, b: ParamVector) -> None:
    if a.spec_digest != b.spec_digest:
        raise SpecMismatchError(
            f"parameter vectors bound to different specs: {a.spec_digest[:12]} vs {b.spec_digest[:12]}"
        )


def _check_bound(spec: ModelSpec, params: ParamVector) -> None:
    if params.spec_digest != spec.digest:
        raise SpecMismatchError("parameter vector is not bound to this model spec")
    if len(params) != spec.param_count:
        raise ShapeError(
            f"parameter vector has {len(params)} values, spec needs {spec.param_count}"
        )


def _unflatten(spec: ModelSpec, values: np.ndarray):
    """Per-layer (weights, biases) views into the flat vector, canonical order."""
    out = []
    offset = 0
    for layer in spec.layers:
        shape = _weight_shape(layer)
        if shape is None:
            out.append(None)
            continue
        n_w = math.prod(shape)
        w = values[offset:offset + n_w].reshape(shape)
        b = values[offset + n_w:offset + n_w + shape[0]]
        offset += n_w + shape[0]
        out.append((w, b))
    return out


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Uniform(-b, b) weights with b = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = Rng(seed)
    values = np.zeros(spec.param_count, dtype=np.float64)
    offset = 0
    for layer in spec.layers:
        shape = _weight_shape(layer)
        if shape is None:
            continue
        n_w = math.prod(shape)
        # the fans count kernel positions: in*9 and out*9 for a Conv3x3
        fan_in = math.prod(shape[1:])
        fan_out = shape[0] * math.prod(shape[2:])
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        values[offset:offset + n_w] = rng.uniforms(n_w, -bound, bound)
        offset += _layer_param_count(layer)  # biases stay zero
    return ParamVector(values, spec.digest)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _check_batch(spec: ModelSpec, batch: Tensor) -> Tensor:
    batch = as_tensor(batch)
    if batch.ndim != len(spec.input_shape) + 1 or batch.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match [B]+{list(spec.input_shape)}"
        )
    return batch


def _pad_channels_last(x: np.ndarray) -> np.ndarray:
    """[N, C, H, W] as a zero-padded [N, H+2, W+2, C] array, so that a
    window of it reshapes to an (N*H*W, C) matrix."""
    n, c, h, width = x.shape
    xp = np.zeros((n, h + 2, width + 2, c), dtype=np.float64)
    xp[:, 1:-1, 1:-1] = x.transpose(0, 2, 3, 1)
    return xp


def _conv3x3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One matrix product per kernel offset: out += window @ w[:, :, di, dj].T."""
    n, c, h, width = x.shape
    xp = _pad_channels_last(x)
    out = np.zeros((n * h * width, w.shape[0]), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            window = xp[:, di:di + h, dj:dj + width].reshape(-1, c)
            out += window @ w[:, :, di, dj].T
    out = out.reshape(n, h, width, -1).transpose(0, 3, 1, 2)
    return out + b[None, :, None, None]


def _conv3x3_backward(x, w, dy):
    """Per kernel offset: dw[:, :, di, dj] = dy_mat.T @ window, and the
    window's share of dx is dy_mat @ w[:, :, di, dj]."""
    n, c, h, width = x.shape
    xp = _pad_channels_last(x)
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, w.shape[0])
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            window = xp[:, di:di + h, dj:dj + width].reshape(-1, c)
            dw[:, :, di, dj] = dy_mat.T @ window
            dxp[:, di:di + h, dj:dj + width] += (dy_mat @ w[:, :, di, dj]).reshape(n, h, width, c)
    db = dy.sum(axis=(0, 2, 3))
    return dxp[:, 1:-1, 1:-1].transpose(0, 3, 1, 2), dw, db


def _maxpool_forward(x: np.ndarray):
    n, c, h, w = x.shape
    win = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    arg = win.argmax(axis=-1)  # first max wins: deterministic tie-break
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, arg


def _maxpool_backward(x_shape, arg, dy):
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=np.float64)
    np.put_along_axis(dwin, arg[..., None], dy[..., None], axis=-1)
    return (
        dwin.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )


def _forward_cached(spec: ModelSpec, layer_params, batch: np.ndarray):
    """Run the layer chain, keeping what each backward pass needs."""
    x = batch
    caches = []
    for layer, lp in zip(spec.layers, layer_params):
        if isinstance(layer, Dense):
            w, b = lp
            caches.append(("dense", x))
            x = x @ w.T + b
        elif isinstance(layer, ReLU):
            caches.append(("relu", x))
            x = np.maximum(x, 0.0)
        elif isinstance(layer, Conv3x3):
            w, b = lp
            caches.append(("conv", x))
            x = _conv3x3_forward(x, w, b)
        elif isinstance(layer, MaxPool2x2):
            out, arg = _maxpool_forward(x)
            caches.append(("pool", (x.shape, arg)))
            x = out
        else:  # Flatten
            caches.append(("flatten", x.shape))
            x = x.reshape(x.shape[0], -1)
    return x, caches


def _checked_forward(spec: ModelSpec, params: ParamVector, batch: Tensor):
    """Logits, per-layer parameter views and backward caches of a batch."""
    _check_bound(spec, params)
    layer_params = _unflatten(spec, params.values)
    logits, caches = _forward_cached(spec, layer_params, _check_batch(spec, batch))
    _require_finite(logits, "forward logits")
    return logits, layer_params, caches


def forward(spec: ModelSpec, params: ParamVector, batch: Tensor) -> Tensor:
    """Logits [B, n_classes] for a batch shaped [B] + input_shape."""
    return _checked_forward(spec, params, batch)[0]


def backward(
    spec: ModelSpec, params: ParamVector, batch: Tensor, labels: np.ndarray
) -> tuple[float, ParamVector, Tensor]:
    """Mean cross-entropy loss, its gradient w.r.t. params, and the logits.

    The logits are returned so callers probing the pre-update batch state
    can reuse this forward pass instead of running another one.
    """
    logits, layer_params, caches = _checked_forward(spec, params, batch)
    loss, dlogits = softmax_cross_entropy(logits, labels)

    grads = np.zeros_like(params.values)
    grad_views = _unflatten(spec, grads)
    dx = dlogits
    for layer, lp, gv, cache in zip(
        reversed(spec.layers),
        reversed(layer_params),
        reversed(grad_views),
        reversed(caches),
    ):
        kind, saved = cache
        if kind == "dense":
            w, _ = lp
            gw, gb = gv
            gw += dx.T @ saved
            gb += dx.sum(axis=0)
            dx = dx @ w
        elif kind == "relu":
            dx = dx * (saved > 0.0)
        elif kind == "conv":
            w, _ = lp
            gw, gb = gv
            dx, dw, db = _conv3x3_backward(saved, w, dx)
            gw += dw
            gb += db
        elif kind == "pool":
            x_shape, arg = saved
            dx = _maxpool_backward(x_shape, arg, dx)
        else:  # flatten
            dx = dx.reshape(saved)
    _require_finite(grads, "parameter gradients")
    return loss, ParamVector(grads, spec.digest), logits


def _check_logits(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Logits [B, C] and B labels in [0, C)."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [B, C], got shape {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise LabelRangeError(
            f"labels must lie in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    return logits, labels


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray
) -> tuple[float, Tensor]:
    """Mean negative log softmax at the true label, plus its logit gradient.

    Stabilized by row-max subtraction, so the loss is invariant to adding
    a constant to all logits in a row.
    """
    logits, labels = _check_logits(logits, labels)
    n = len(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())
    dlogits = np.exp(log_p)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    _require_finite(dlogits, "cross-entropy gradient")
    if not math.isfinite(loss):
        raise DivergenceError("non-finite cross-entropy loss")
    return loss, dlogits


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Fraction of rows where argmax(logits) == label; ties go to the lowest index."""
    logits, labels = _check_logits(logits, labels)
    pred = logits.argmax(axis=1)
    return float((pred == labels).sum() / len(labels))
