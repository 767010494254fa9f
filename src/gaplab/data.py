"""Dataset generation, raw-file IO and the task-split protocol.

Tasks are index sets over one base training set. In the joint setting the
training pool for task k is the union of tasks 0..k, realized as an index
union so that the underlying task sets stay disjoint and checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, FormatError, LabelRangeError
from .rng import Rng


@dataclass
class Dataset:
    """Immutable feature/label pair; features are float64, labels int64."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise ArgumentError(
                f"{len(self.features)} feature rows vs {len(self.labels)} labels"
            )
        if len(self.labels) < 1:
            raise ArgumentError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise LabelRangeError(
                f"labels must lie in [0, {self.n_classes})"
            )

    @property
    def n(self) -> int:
        return len(self.labels)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_blob_args(
    n_classes: int,
    n_per_class: int,
    dim: int,
    spread: float,
    shape: tuple[int, ...] | None = None,
) -> None:
    """The argument rules of gen_blobs, also used to check a config early."""
    if n_classes < 2:
        raise ArgumentError(f"need at least 2 classes, got {n_classes}")
    if dim < 2:
        raise ArgumentError(f"need dim >= 2, got {dim}")
    if n_per_class < 2:
        raise ArgumentError(f"need at least 2 samples per class, got {n_per_class}")
    if spread < 0:
        raise ArgumentError(f"spread must be nonnegative, got {spread}")
    if shape is not None and math.prod(shape) != dim:
        raise ArgumentError(f"shape {shape} does not cover dim={dim}")


def gen_blobs(
    seed: int,
    n_classes: int,
    n_per_class: int,
    dim: int,
    spread: float,
    shape: tuple[int, ...] | None = None,
) -> tuple[Dataset, Dataset]:
    """Gaussian class blobs with an 80/20 per-class train/test split.

    Class means are uniform in the fixed box [-4, 4]^dim and samples add
    spread-scaled standard-normal noise, so `spread` dials class overlap
    from cleanly separable (<2) to heavily confusable (>6). Scaling the
    mean box together with the noise would cancel out of the geometry and
    leave no difficulty control at all. `shape` optionally reshapes the
    flat feature vector (e.g. to [C, H, W] for CNN input); its product
    must equal `dim`.
    """
    check_blob_args(n_classes, n_per_class, dim, spread, shape)
    rng = Rng(seed)
    means = np.stack(
        [rng.uniforms(dim, -4.0, 4.0) for _ in range(n_classes)]
    )
    n_train = _round_half_up(0.8 * n_per_class)
    train_feats, train_labels, test_feats, test_labels = [], [], [], []
    for c in range(n_classes):
        samples = means[c] + spread * rng.normals(n_per_class * dim).reshape(
            n_per_class, dim
        )
        train_feats.append(samples[:n_train])
        test_feats.append(samples[n_train:])
        train_labels.append(np.full(n_train, c, dtype=np.int64))
        test_labels.append(np.full(n_per_class - n_train, c, dtype=np.int64))

    def build(feats, labels):
        x = np.concatenate(feats)
        if shape is not None:
            x = x.reshape((len(x),) + tuple(shape))
        return Dataset(x, np.concatenate(labels), n_classes)

    return build(train_feats, train_labels), build(test_feats, test_labels)


# ---------------------------------------------------------------------------
# Raw byte format: labels = one u8 per record, features = prod(shape) u8s
# per record, records concatenated. Loading scales bytes to [0, 1].
# ---------------------------------------------------------------------------

RAW_MAX_CLASSES = 256  # a label is one byte


def _read_exactly(path: str | Path, size: int) -> bytes:
    raw = Path(path).read_bytes()
    if len(raw) != size:
        raise FormatError(
            f"{path}: expected {size} bytes, found {len(raw)} "
            f"(mismatch at byte offset {min(len(raw), size)})"
        )
    return raw


def load_raw(
    features_path: str | Path,
    labels_path: str | Path,
    shape: tuple[int, ...],
    count: int,
    n_classes: int,
) -> Dataset:
    """Load byte-format feature/label files; features become floats in [0, 1]."""
    shape = tuple(int(d) for d in shape)
    record = int(np.prod(shape))
    if record <= 0 or count <= 0:
        raise ArgumentError(f"invalid record shape {shape} or count {count}")

    feat_bytes = _read_exactly(features_path, count * record)
    label_bytes = _read_exactly(labels_path, count)
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    bad = np.nonzero(labels >= n_classes)[0]
    if bad.size:
        raise FormatError(
            f"{labels_path}: label {labels[bad[0]]} out of range at byte offset {bad[0]}"
        )
    features = (
        np.frombuffer(feat_bytes, dtype=np.uint8)
        .astype(np.float64)
        .reshape((count,) + shape)
        / 255.0
    )
    return Dataset(features, labels, n_classes)


def save_raw(dataset: Dataset, features_path: str | Path, labels_path: str | Path) -> None:
    """Write the byte format; features must already lie in [0, 1]."""
    if dataset.n_classes > RAW_MAX_CLASSES:
        raise ArgumentError(
            f"the raw format holds at most {RAW_MAX_CLASSES} classes, got {dataset.n_classes}"
        )
    feats = dataset.features
    if feats.min() < 0.0 or feats.max() > 1.0:
        raise ArgumentError(
            "features must lie in [0, 1] before byte serialization; "
            "normalize_unit() rescales a train/test pair"
        )
    q = np.floor(feats * 255.0 + 0.5).astype(np.uint8)
    Path(features_path).write_bytes(q.tobytes())
    Path(labels_path).write_bytes(dataset.labels.astype(np.uint8).tobytes())


def normalize_unit(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Affinely rescale both sets into [0, 1] using their combined range."""
    lo = min(train.features.min(), test.features.min())
    hi = max(train.features.max(), test.features.max())
    span = hi - lo
    if span <= 0:
        span = 1.0
    def scale(ds: Dataset) -> Dataset:
        return Dataset((ds.features - lo) / span, ds.labels, ds.n_classes)
    return scale(train), scale(test)


# ---------------------------------------------------------------------------
# Task splits
# ---------------------------------------------------------------------------

@dataclass
class TaskSequence:
    """Ordered tasks as disjoint index sets over a base training set."""

    base: Dataset
    task_indices: list[np.ndarray]
    joint: bool

    @property
    def n_tasks(self) -> int:
        return len(self.task_indices)

    def pool(self, k: int) -> np.ndarray:
        """Training pool for task k: the task itself, or the union up to k."""
        if not 0 <= k < self.n_tasks:
            raise ArgumentError(f"task index {k} out of range")
        if self.joint:
            return np.sort(np.concatenate(self.task_indices[: k + 1]))
        return np.sort(self.task_indices[k])


def _cumulative_cuts(total: int, fractions: tuple[float, ...]) -> list[int]:
    """Cut points from cumulative rounding; each task stays within 1 of exact."""
    cuts = [0]
    acc = 0.0
    for f in fractions:
        acc += f
        cuts.append(_round_half_up(total * acc / 100.0))
    cuts[-1] = total  # guard against float residue in the last cut
    return cuts


def check_fractions(fractions) -> tuple[float, ...]:
    """Task sizes as percentages of the training set: each in (0, 100],
    summing to 100. Returns them as floats."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) < 1:
        raise ArgumentError("need at least one task fraction")
    if any(f <= 0 or f > 100 for f in fractions):
        raise ArgumentError(f"fractions must be in (0, 100], got {fractions}")
    if abs(sum(fractions) - 100.0) > 1e-9:
        raise ArgumentError(f"fractions must sum to 100, got {sum(fractions)}")
    return fractions


def split_tasks(
    train: Dataset,
    fractions: list[float],
    joint: bool,
    seed: int,
    stratified: bool = True,
) -> TaskSequence:
    """Split a seeded permutation of the training indices into tasks.

    Stratified (default) keeps every task's per-class counts within one
    sample of exact proportionality; unstratified slices the permutation
    directly with round(fraction * N / 100) sizes, remainder to the last.
    """
    fractions = check_fractions(fractions)
    rng = Rng(seed)
    perm = rng.permutation(train.n)
    k = len(fractions)
    tasks: list[list[int]] = [[] for _ in range(k)]
    if stratified:
        for c in range(train.n_classes):
            class_idx = perm[train.labels[perm] == c]
            cuts = _cumulative_cuts(len(class_idx), fractions)
            for i in range(k):
                tasks[i].extend(class_idx[cuts[i]:cuts[i + 1]])
    else:
        sizes = [_round_half_up(train.n * f / 100.0) for f in fractions[:-1]]
        sizes.append(train.n - sum(sizes))
        offset = 0
        for i, size in enumerate(sizes):
            tasks[i].extend(perm[offset:offset + size])
            offset += size
    task_indices = [np.sort(np.array(t, dtype=np.int64)) for t in tasks]
    if any(len(t) == 0 for t in task_indices):
        raise ArgumentError("a task received no samples; fractions too small for N")
    return TaskSequence(train, task_indices, joint)


def batch_iter(pool: np.ndarray, batch_size: int, epochs: int, rng: Rng):
    """Index batches: per epoch a fresh Fisher-Yates shuffle of the pool,
    consecutive chunks of `batch_size`, final short batch kept."""
    if len(pool) == 0:
        raise ArgumentError("empty training pool")
    if batch_size < 1:
        raise ArgumentError(f"batch size must be >= 1, got {batch_size}")
    for _ in range(epochs):
        order = np.array(pool, dtype=np.int64)
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            yield order[start:start + batch_size]


def batches_per_epoch(pool_size: int, batch_size: int) -> int:
    return (pool_size + batch_size - 1) // batch_size
