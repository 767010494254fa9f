"""Dataset generation, raw-file IO and the task-split protocol.

Tasks are index sets over one base training set. In the joint setting the
training pool for task k is the union of tasks 0..k, realized as an index
union so that the underlying task sets stay disjoint and checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import overflow_checked
from .config import check_raw_classes
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


def blob_train_count(n_per_class: int) -> int:
    """gen_blobs' training samples of each class: 80%, rounded half up."""
    return _round_half_up(0.8 * n_per_class)


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
    if blob_train_count(n_per_class) >= n_per_class:
        raise ArgumentError(f"need at least 3 samples per class, one for test, got {n_per_class}")
    if not 0.0 <= spread < math.inf:
        raise ArgumentError(f"spread must be finite and nonnegative, got {spread}")
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
    n_train = blob_train_count(n_per_class)
    train_feats, train_labels, test_feats, test_labels = [], [], [], []
    for c in range(n_classes):
        with overflow_checked():
            samples = means[c] + spread * rng.normals(n_per_class * dim).reshape(
                n_per_class, dim
            )
        if not np.isfinite(samples).all():
            raise ArgumentError(f"spread {spread} makes the samples non-finite")
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

def _read_exactly(path: str | Path, size: int) -> bytes:
    raw = Path(path).read_bytes()
    if len(raw) != size:
        raise FormatError(
            f"{path}: expected {size} bytes, found {len(raw)} "
            f"(mismatch at byte offset {min(len(raw), size)})"
        )
    return raw


def check_raw_args(shape: tuple[int, ...], count: int) -> None:
    """The argument rules of load_raw, also used to check a config early."""
    if math.prod(shape) <= 0 or count <= 0:
        raise ArgumentError(f"invalid record shape {shape} or count {count}")


def read_labels(path: str | Path, count: int, n_classes: int) -> np.ndarray:
    """A raw labels file: `count` bytes, each a class below `n_classes`."""
    labels = np.frombuffer(_read_exactly(path, count), dtype=np.uint8).astype(np.int64)
    bad = np.nonzero(labels >= n_classes)[0]
    if bad.size:
        raise FormatError(
            f"{path}: label {labels[bad[0]]} out of range at byte offset {bad[0]}"
        )
    return labels


def load_raw(
    features_path: str | Path,
    labels_path: str | Path,
    shape: tuple[int, ...],
    count: int,
    n_classes: int,
) -> Dataset:
    """Load byte-format feature/label files; features become floats in [0, 1]."""
    shape = tuple(int(d) for d in shape)
    check_raw_args(shape, count)
    record = math.prod(shape)

    feat_bytes = _read_exactly(features_path, count * record)
    labels = read_labels(labels_path, count, n_classes)
    features = (
        np.frombuffer(feat_bytes, dtype=np.uint8)
        .astype(np.float64)
        .reshape((count,) + shape)
        / 255.0
    )
    return Dataset(features, labels, n_classes)


def save_raw(dataset: Dataset, features_path: str | Path, labels_path: str | Path) -> None:
    """Write the byte format; features must already lie in [0, 1]."""
    check_raw_classes(dataset.n_classes)
    feats = dataset.features
    if not (feats.min() >= 0.0 and feats.max() <= 1.0):  # NaN fails too
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


def _task_cuts(n: int, fractions: tuple[float, ...], stratified: bool) -> list[int]:
    """Cut points of `n` samples into tasks. Stratified: cumulative rounding,
    so each task stays within 1 of exact; otherwise each fraction is rounded
    on its own and the last task takes the rest."""
    if stratified:
        ends = [_round_half_up(n * acc / 100.0) for acc in accumulate(fractions[:-1])]
    else:
        ends = list(accumulate(_round_half_up(n * f / 100.0) for f in fractions[:-1]))
    return [0, *ends, n]


def task_sizes(class_counts, fractions: tuple[float, ...], stratified: bool) -> list[int]:
    """Each task's sample count from the training set's samples per class:
    each class is cut on its own when stratified, the whole set otherwise.
    A task left without samples is an ArgumentError."""
    groups = class_counts if stratified else [sum(class_counts)]
    sizes = sum(np.diff(_task_cuts(int(n), fractions, stratified)) for n in groups)
    if sizes.min() <= 0:
        raise ArgumentError("a task received no samples; fractions too small for N")
    return sizes.tolist()


def split_tasks(
    train: Dataset,
    fractions: list[float],
    joint: bool,
    seed: int,
    stratified: bool = True,
) -> TaskSequence:
    """Cut a seeded permutation of the training indices into tasks of
    `task_sizes`: each class's indices on their own when stratified (the
    default), so every task's class counts stay within 1 of exact."""
    fractions = check_fractions(fractions)
    perm = Rng(seed).permutation(train.n)
    groups = ([perm[train.labels[perm] == c] for c in range(train.n_classes)]
              if stratified else [perm])
    task_sizes([len(group) for group in groups], fractions, stratified)
    tasks: list[list[int]] = [[] for _ in fractions]
    for group in groups:
        cuts = _task_cuts(len(group), fractions, stratified)
        for task, start, stop in zip(tasks, cuts, cuts[1:]):
            task.extend(group[start:stop])
    return TaskSequence(train, [np.sort(np.array(t, dtype=np.int64)) for t in tasks], joint)


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
