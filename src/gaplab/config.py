"""Experiment configuration: JSON documents with strict key validation,
a canonical serialization for hashing, and the run manifest.

Unknown keys are rejected everywhere. A typo like "learning_rate" for
"lr" silently running with the default would invalidate a whole study.

Each section is a dataclass, and its fields are the one statement of the
section's keys, types and defaults: a key's value must have its field's
declared type (a JSON list for a tuple), an absent key keeps the field's
default, and `null` is accepted only where the declared type allows None.
Range rules belong to the code that uses the values. A section checks
both, types first, when it is built (`__post_init__`), whether it is
loaded, replaced or constructed directly, so a bad document is rejected
before any run directory is written, and a section built in code holds
the same values, and hashes the same, as the document that loads to it.

This module loads without numpy: the model builders and the range checks
of the numeric modules are imported where they are called.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path
from types import NoneType, UnionType
from typing import TYPE_CHECKING, Literal, get_args, get_origin, get_type_hints

from .artifacts import GapParams
from .errors import ArgumentError, ShapeError

if TYPE_CHECKING:
    from .autodiff import ModelSpec

# CPython's own SHA-256 module: hashlib would load OpenSSL's libcrypto, about
# 3.6 MB resident in every gaplab process (seed, evaluator, lmc slice), for
# two digests of short strings. hashlib is the fallback only for a CPython
# built without its own SHA-256 module.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

RAW_MAX_CLASSES = 256  # a label of the raw data format is one byte
MAX_FLOATS = sys.maxsize // 8  # float64 values in one array: numpy's limit is sys.maxsize bytes


def check_raw_classes(n_classes: int) -> None:
    if n_classes > RAW_MAX_CLASSES:
        raise ArgumentError(
            f"the raw format holds at most {RAW_MAX_CLASSES} classes, got {n_classes}")


def check_floats(count: int, what: str) -> None:
    """An array of `count` float64 values must fit the limit of numpy's arrays."""
    if count > MAX_FLOATS:
        raise ArgumentError(
            f"{what} need {count} float64 values, more than one array holds ({MAX_FLOATS})")


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of `data` in hex, as `hashlib.sha256(data).hexdigest()`
    gives it, without loading OpenSSL (see `_sha256` above)."""
    return _sha256(data).hexdigest()


def canonical_json(obj) -> str:
    """Sorted keys, minimal whitespace: one byte representation per value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return _sha256_hex(canonical_json(obj).encode("utf-8"))


def _is(value, kind) -> bool:
    """JSON typing: an int is also a float, a bool is never an int."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _describe(option) -> str:
    if get_origin(option) is Literal:
        return " or ".join(map(repr, get_args(option)))
    if get_origin(option) is tuple:
        return f"list of {_describe(get_args(option)[0])}"
    return "null" if option is NoneType else option.__name__


def _describe_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)) and value:
        return "list of " + "/".join(sorted({type(v).__name__ for v in value}))
    if isinstance(value, (str, list, tuple)):
        return repr(value)
    return type(value).__name__


def _as(kind, value, where: str):
    """`value`, of type `kind` by `_is`, as a `kind`: an int becomes a float."""
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ArgumentError(f"{where}: integer out of float range") from None


def _typed(value, where: str, hint):
    """`value` as the declared type `hint`: a scalar type, a Literal of
    choices, tuple[T, ...] (a list of T), or a union of these."""
    options = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    for option in options:
        if get_origin(option) is Literal:
            if value in get_args(option):
                return value
        elif get_origin(option) is tuple:
            item = get_args(option)[0]
            if isinstance(value, (list, tuple)) and all(_is(v, item) for v in value):
                return tuple(_as(item, v, where) for v in value)
        elif _is(value, option):
            return _as(option, value, where)
    expected = " or ".join(map(_describe, options))
    raise ArgumentError(f"{where}: expected {expected}, got {_describe_value(value)}")


_hints = cache(get_type_hints)  # a section's hints, once per class: replace builds one


def _typed_fields(section, where: str) -> None:
    """Give each field of `section` its declared type: `__post_init__`'s first step."""
    for key, hint in _hints(type(section)).items():
        object.__setattr__(section, key, _typed(getattr(section, key), f"{where}.{key}", hint))


def load(cls, d, where: str):
    """The dataclass `cls` built from the JSON object `d`.

    Every key must name a field, and every field without a default must
    be present; a field whose type is a dataclass is loaded the same way,
    its messages naming it by its key. Other values are passed as they
    are and absent keys are left out, so that the dataclass defaults
    apply; the built dataclass checks its own types and ranges.
    """
    if not isinstance(d, dict):
        raise ArgumentError(f"{where}: expected an object, got {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ArgumentError(f"{where}: unknown keys {unknown}")
    missing = sorted(name for name, f in known.items() if name not in d
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ArgumentError(f"{where}: missing required keys {missing}")
    hints = _hints(cls)
    return cls(**{key: load(hints[key], value, key) if is_dataclass(hints[key]) else value
                  for key, value in d.items()})


def _check(where: str, check, *args, **kwargs):
    """Call a range check of the code that uses the values, naming the
    config section in its error."""
    try:
        return check(*args, **kwargs)
    except ArgumentError as err:
        raise ArgumentError(f"{where}: {err}") from None


def _at_least(values, minimum, where: str, nonempty: bool = False) -> None:
    if nonempty and not values:
        raise ArgumentError(f"{where}: must not be empty")
    for v in values:
        if v < minimum:
            raise ArgumentError(f"{where}: entries must be >= {minimum}, got {v}")


@dataclass(frozen=True)
class DatasetConfig:
    """Either a synthetic blob generator or four raw data files."""

    kind: Literal["blobs", "files"] = "blobs"
    classes: int = 8
    per_class: int = 250
    dim: int = 32
    spread: float = 1.0
    shape: tuple[int, ...] | None = None
    train_features: str | None = None
    train_labels: str | None = None
    test_features: str | None = None
    test_labels: str | None = None
    train_count: int | None = None
    test_count: int | None = None

    def __post_init__(self):
        _typed_fields(self, "dataset")
        from .data import check_blob_args, check_raw_args
        if self.shape is not None:
            _at_least(self.shape, 1, "dataset.shape", nonempty=True)
        if self.kind == "blobs":
            _check("dataset", check_blob_args, self.classes, self.per_class, self.dim,
                   self.spread, self.shape)
            named = [name for name in ("train_features", "train_labels", "test_features",
                                       "test_labels", "train_count", "test_count")
                     if getattr(self, name) is not None]
            if named:
                raise ArgumentError(f"dataset: keys {named} need kind 'files'")
            return
        if self.classes < 2:
            raise ArgumentError(f"dataset.classes: need at least 2, got {self.classes}")
        if None in (self.train_features, self.train_labels, self.test_features,
                    self.test_labels):
            raise ArgumentError("dataset: kind 'files' requires all four file paths")
        if None in (self.shape, self.train_count, self.test_count):
            raise ArgumentError("dataset: kind 'files' requires shape, train_count, test_count")
        for name in ("train_count", "test_count"):
            _check(f"dataset.{name}", check_raw_args, self.shape, getattr(self, name))

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The shape of one sample: `shape`, or (dim,) for flat blobs."""
        return self.shape if self.shape is not None else (self.dim,)


@dataclass(frozen=True)
class ModelConfig:
    name: Literal["mlp", "smallcnn"] = "mlp"
    hidden: tuple[int, ...] = (128, 64)
    channels: tuple[int, ...] = (8, 16)

    def __post_init__(self):
        _typed_fields(self, "model")
        _at_least(self.hidden, 1, "model.hidden")
        _at_least(self.channels, 1, "model.channels")


def build_model_spec(cfg: ModelConfig, input_shape: tuple[int, ...],
                     n_classes: int) -> ModelSpec:
    """The model `cfg` names; one that cannot take the input, or whose
    parameters no array can hold, is an ArgumentError."""
    from .autodiff import mlp, small_cnn
    try:
        if cfg.name == "smallcnn":
            spec = small_cnn(input_shape, cfg.channels, cfg.hidden, n_classes)
        else:
            spec = mlp(input_shape, cfg.hidden, n_classes)
    except ShapeError as err:
        raise ArgumentError(str(err)) from None
    check_floats(spec.param_count, "its parameters")
    return spec


@dataclass(frozen=True)
class SplitConfig:
    fractions: tuple[float, ...] = (50.0, 50.0)
    joint: bool = True
    stratified: bool = True

    def __post_init__(self):
        _typed_fields(self, "split")
        from .data import check_fractions
        if len(self.fractions) < 2:
            raise ArgumentError(
                f"split.fractions: need at least 2 tasks, got {len(self.fractions)}")
        _check("split.fractions", check_fractions, self.fractions)


@dataclass(frozen=True)
class AnalysisConfig(GapParams):
    """compute_gap's settings (`GapParams`), then the LMC curve's."""

    lmc_step: float = 0.01
    theta2_epochs: int = 5

    def __post_init__(self):
        _typed_fields(self, "analysis")
        from .connectivity import check_step
        _check("analysis", super().__post_init__)
        _check("analysis.lmc_step", check_step, self.lmc_step)
        if self.theta2_epochs < 1:
            raise ArgumentError(
                f"analysis.theta2_epochs: must be >= 1, got {self.theta2_epochs}")


@dataclass(frozen=True)
class TrainConfig:
    """The config's `train` section: optimizer hyperparameters plus
    instrumentation cadence. The run's seed is not part of it; it is
    `trainer.run_sequence`'s argument.

    `epochs_per_task` may be a single int (every task) or one int per
    task. The first `dense_window` and the last `dense_tail` iterations
    of each task, and its final iteration, are evaluated and checkpointed;
    in between, every `eval_every`-th / `checkpoint_every`-th iteration
    is (`trainer.Schedule.plan`). Its messages name the section (`train: `).
    """

    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs_per_task: tuple[int, ...] | int = 100
    eval_every: int = 50
    checkpoint_every: int = 50
    dense_window: int = 400
    dense_tail: int = 50
    velocity_reset: bool = True
    eval_batch: int = 256

    def __post_init__(self):
        _typed_fields(self, "train")
        if not 0.0 < self.lr < math.inf:
            raise ArgumentError(f"train: lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError(f"train: momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ArgumentError(f"train: batch_size must be >= 1, got {self.batch_size}")
        if isinstance(self.epochs_per_task, int):
            object.__setattr__(self, "epochs_per_task", (self.epochs_per_task,))
        if not self.epochs_per_task:
            raise ArgumentError("train: epochs_per_task needs at least one entry")
        if any(e < 0 for e in self.epochs_per_task):
            raise ArgumentError("train: epochs_per_task entries must be >= 0")
        for name in ("eval_every", "checkpoint_every", "eval_batch"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"train: {name} must be >= 1, got {getattr(self, name)}")
        if self.dense_window < 0 or self.dense_tail < 0:
            raise ArgumentError("train: dense_window and dense_tail must be >= 0")

    def epochs_for(self, task_id: int) -> int:
        if task_id < len(self.epochs_per_task):
            return self.epochs_per_task[task_id]
        return self.epochs_per_task[-1]


def _plain(value):
    """A config value as JSON data: tuples become lists, and keys whose
    value is None are left out."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    seeds: tuple[int, ...] = (0,)
    checkpoints: bool = True
    # processes a run uses at once; None sizes them to the machine. It cannot change
    # a result, so to_dict (and with it config.json and the hash) omits it
    workers: int | None = None

    def __post_init__(self):
        _typed_fields(self, "config")
        from .rng import check_seed
        if not self.seeds:
            raise ArgumentError("config.seeds: must not be empty")
        for seed in self.seeds:
            check_seed(seed, "config.seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ArgumentError("config.seeds: duplicate seeds")
        if self.workers is not None and self.workers < 1:
            raise ArgumentError(f"config.workers: must be >= 1, got {self.workers}")
        n_tasks = len(self.split.fractions)
        epochs = self.train.epochs_per_task
        if len(epochs) > n_tasks:
            raise ArgumentError(
                f"train.epochs_per_task: {len(epochs)} entries for {n_tasks} tasks"
            )
        self.model_spec  # a model that cannot take the dataset's input is a config error

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return load(cls, d, "config")

    @cached_property
    def model_spec(self) -> ModelSpec:
        """The model for the dataset's declared input shape and classes."""
        try:
            return build_model_spec(self.model, self.dataset.input_shape,
                                    self.dataset.classes)
        except ArgumentError as err:
            raise ArgumentError(f"model: {err}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as err:  # also too many digits, or too deep
            raise ArgumentError(f"config: invalid JSON: {err}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ArgumentError(f"config: cannot read {path}: {err}") from None
        return cls.from_json(text)

    def to_dict(self) -> dict:
        """The document that from_dict reads back to this config, less
        `workers`, which cannot change a result."""
        d = _plain(asdict(self))
        d.pop("workers", None)
        return d

    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass
class RunManifest:
    config_hash: str
    artifacts: list[str] = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    created: str = ""
    # seed -> "ok" or the one-line error that seed ended with
    seeds: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        d = asdict(self)
        d["artifacts"] = sorted(self.artifacts)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"
