"""Experiment configuration: JSON documents with strict key validation,
a canonical serialization for hashing, and the run manifest.

Unknown keys are rejected everywhere. A typo like "learning_rate" for
"lr" silently running with the default would invalidate a whole study.

Each section is a dataclass, and its fields are the one statement of the
section's keys, types and defaults: a key's value must have its field's
declared type (a JSON list for a tuple), an absent key keeps the field's
default, and `null` is accepted only where the declared type allows None.
Range rules belong to the code that uses the values; each section calls
those checks when it is loaded, so a bad document is rejected before any
run directory is written.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import NoneType, UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .autodiff import ModelSpec, mlp, small_cnn
from .connectivity import check_step
from .data import check_blob_args, check_fractions, check_raw_args
from .errors import ArgumentError, ShapeError
from .instrument import check_gap_args, compute_gap
from .rng import check_seed
from .trainer import TrainConfig


def canonical_json(obj) -> str:
    """Sorted keys, minimal whitespace: one byte representation per value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


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
                return tuple(item(v) for v in value)
        elif _is(value, option):
            return float(value) if option is float else value
    expected = " or ".join(map(_describe, options))
    raise ArgumentError(f"{where}: expected {expected}, got {_describe_value(value)}")


def _parse(cls, d, where: str, sections=None) -> dict:
    """Keyword arguments for the dataclass `cls` from the object `d`.

    Every key must name a field, every field without a default must be
    present, and every value must have its field's declared type;
    `sections` maps keys to the parsers of nested objects.
    Absent keys are left out, so that the dataclass defaults apply.
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
    hints = get_type_hints(cls)
    sections = sections or {}
    return {key: sections[key](value) if key in sections
            else _typed(value, f"{where}.{key}", hints[key])
            for key, value in d.items()}


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

    @classmethod
    def from_dict(cls, d: dict, where: str = "dataset") -> "DatasetConfig":
        cfg = cls(**_parse(cls, d, where))
        if cfg.shape is not None:
            _at_least(cfg.shape, 1, f"{where}.shape", nonempty=True)
        if cfg.kind == "blobs":
            _check(where, check_blob_args, cfg.classes, cfg.per_class, cfg.dim,
                   cfg.spread, cfg.shape)
            return cfg
        if cfg.classes < 2:
            raise ArgumentError(f"{where}.classes: need at least 2, got {cfg.classes}")
        if None in (cfg.train_features, cfg.train_labels, cfg.test_features, cfg.test_labels):
            raise ArgumentError(f"{where}: kind 'files' requires all four file paths")
        if None in (cfg.shape, cfg.train_count, cfg.test_count):
            raise ArgumentError(f"{where}: kind 'files' requires shape, train_count, test_count")
        for name in ("train_count", "test_count"):
            _check(f"{where}.{name}", check_raw_args, cfg.shape, getattr(cfg, name))
        return cfg

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The shape of one sample: `shape`, or (dim,) for flat blobs."""
        return self.shape if self.shape is not None else (self.dim,)


@dataclass(frozen=True)
class ModelConfig:
    name: Literal["mlp", "smallcnn"] = "mlp"
    hidden: tuple[int, ...] = (128, 64)
    channels: tuple[int, ...] = (8, 16)

    @classmethod
    def from_dict(cls, d: dict, where: str = "model") -> "ModelConfig":
        cfg = cls(**_parse(cls, d, where))
        _at_least(cfg.hidden, 1, f"{where}.hidden")
        _at_least(cfg.channels, 1, f"{where}.channels")
        return cfg


def build_model_spec(cfg: ModelConfig, input_shape: tuple[int, ...],
                     n_classes: int) -> ModelSpec:
    if cfg.name == "smallcnn":
        if len(input_shape) != 3:
            raise ArgumentError(
                f"smallcnn needs channels x height x width input, got shape {input_shape}"
            )
        return small_cnn(input_shape, cfg.channels, cfg.hidden, n_classes)
    return mlp(input_shape, cfg.hidden, n_classes)


@dataclass(frozen=True)
class SplitConfig:
    fractions: tuple[float, ...] = (50.0, 50.0)
    joint: bool = True
    stratified: bool = True

    @classmethod
    def from_dict(cls, d: dict, where: str = "split") -> "SplitConfig":
        cfg = cls(**_parse(cls, d, where))
        if len(cfg.fractions) < 2:
            raise ArgumentError(f"{where}.fractions: need at least 2 tasks, got {len(cfg.fractions)}")
        _check(f"{where}.fractions", check_fractions, cfg.fractions)
        return cfg


# the gap analysis defaults are compute_gap's keyword defaults
_GAP_PARAMS = inspect.signature(compute_gap).parameters


@dataclass(frozen=True)
class AnalysisConfig:
    baseline_evals: int = _GAP_PARAMS["baseline_evals"].default
    recovery_window: int = _GAP_PARAMS["recovery_window"].default
    tolerance: float = _GAP_PARAMS["tolerance"].default
    window: int = _GAP_PARAMS["window"].default
    lmc_step: float = 0.01
    theta2_epochs: int = 5

    @classmethod
    def from_dict(cls, d: dict, where: str = "analysis") -> "AnalysisConfig":
        cfg = cls(**_parse(cls, d, where))
        _check(where, check_gap_args, cfg.baseline_evals, cfg.recovery_window,
               cfg.tolerance, cfg.window)
        _check(f"{where}.lmc_step", check_step, cfg.lmc_step)
        if cfg.theta2_epochs < 1:
            raise ArgumentError(f"{where}.theta2_epochs: must be >= 1, got {cfg.theta2_epochs}")
        return cfg


def train_config_from_dict(d: dict, where: str = "train") -> TrainConfig:
    return _check(where, TrainConfig, **_parse(TrainConfig, d, where))


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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cfg = cls(**_parse(cls, d, "config", sections={
            "dataset": DatasetConfig.from_dict,
            "model": ModelConfig.from_dict,
            "split": SplitConfig.from_dict,
            "train": train_config_from_dict,
            "analysis": AnalysisConfig.from_dict,
        }))
        if not cfg.seeds:
            raise ArgumentError("config.seeds: must not be empty")
        for seed in cfg.seeds:
            check_seed(seed, "config.seeds")
        if len(set(cfg.seeds)) != len(cfg.seeds):
            raise ArgumentError("config.seeds: duplicate seeds")
        if cfg.workers is not None and cfg.workers < 1:
            raise ArgumentError(f"config.workers: must be >= 1, got {cfg.workers}")
        n_tasks = len(cfg.split.fractions)
        epochs = cfg.train.epochs_per_task
        if len(epochs) > n_tasks:
            raise ArgumentError(
                f"train.epochs_per_task: {len(epochs)} entries for {n_tasks} tasks"
            )
        cfg.model_spec  # a model that cannot take the dataset's input is a config error
        return cfg

    @cached_property
    def model_spec(self) -> ModelSpec:
        """The model for the dataset's declared input shape and classes."""
        try:
            return build_model_spec(self.model, self.dataset.input_shape,
                                    self.dataset.classes)
        except (ArgumentError, ShapeError) as err:
            raise ArgumentError(f"model: {err}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ArgumentError(f"config: invalid JSON: {err}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as err:
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

    def add(self, path: str) -> None:
        self.artifacts.append(path)

    def to_json(self) -> str:
        d = asdict(self)
        d["artifacts"] = sorted(self.artifacts)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"
