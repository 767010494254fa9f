"""Experiment configuration: JSON documents with strict key validation,
a canonical serialization for hashing, and the run manifest.

Unknown keys are rejected everywhere. A typo like "learning_rate" for
"lr" silently running with the default would invalidate a whole study.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ArgumentError
from .trainer import TrainConfig


def canonical_json(obj) -> str:
    """Sorted keys, minimal whitespace: one byte representation per value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _require(mapping: dict, where: str, allowed: set[str], required: set[str] = frozenset()):
    if not isinstance(mapping, dict):
        raise ArgumentError(f"{where}: expected an object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ArgumentError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(mapping))
    if missing:
        raise ArgumentError(f"{where}: missing required keys {missing}")


def _typed(mapping: dict, where: str, key: str, kinds, default):
    value = mapping.get(key, default)
    if value is None:
        return None
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kinds is int and isinstance(value, bool):
        raise ArgumentError(f"{where}.{key}: expected int, got bool")
    if not isinstance(value, kinds):
        expected = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ArgumentError(f"{where}.{key}: expected {expected}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class DatasetConfig:
    """Either a synthetic blob generator or four raw data files."""

    kind: str = "blobs"
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
        _require(
            d, where,
            {"kind", "classes", "per_class", "dim", "spread", "shape",
             "train_features", "train_labels", "test_features", "test_labels",
             "train_count", "test_count"},
        )
        kind = _typed(d, where, "kind", str, "blobs")
        if kind not in ("blobs", "files"):
            raise ArgumentError(f"{where}.kind: expected 'blobs' or 'files', got {kind!r}")
        shape = d.get("shape")
        if shape is not None:
            if not (isinstance(shape, list) and shape and all(isinstance(v, int) and v > 0 for v in shape)):
                raise ArgumentError(f"{where}.shape: expected a list of positive ints")
            shape = tuple(shape)
        cfg = cls(
            kind=kind,
            classes=_typed(d, where, "classes", int, 8),
            per_class=_typed(d, where, "per_class", int, 250),
            dim=_typed(d, where, "dim", int, 32),
            spread=_typed(d, where, "spread", float, 1.0),
            shape=shape,
            train_features=_typed(d, where, "train_features", str, None),
            train_labels=_typed(d, where, "train_labels", str, None),
            test_features=_typed(d, where, "test_features", str, None),
            test_labels=_typed(d, where, "test_labels", str, None),
            train_count=_typed(d, where, "train_count", int, None),
            test_count=_typed(d, where, "test_count", int, None),
        )
        if cfg.classes < 2:
            raise ArgumentError(f"{where}.classes: need at least 2, got {cfg.classes}")
        if kind == "blobs":
            if cfg.per_class < 2:
                raise ArgumentError(f"{where}.per_class: need at least 2, got {cfg.per_class}")
            if cfg.dim < 2:
                raise ArgumentError(f"{where}.dim: need at least 2, got {cfg.dim}")
            if cfg.spread < 0:
                raise ArgumentError(f"{where}.spread: must be >= 0, got {cfg.spread}")
        else:
            file_keys = ("train_features", "train_labels", "test_features", "test_labels")
            if any(getattr(cfg, k) is None for k in file_keys):
                raise ArgumentError(f"{where}: kind 'files' requires all four file paths")
            if cfg.shape is None or cfg.train_count is None or cfg.test_count is None:
                raise ArgumentError(f"{where}: kind 'files' requires shape, train_count, test_count")
        return cfg


@dataclass(frozen=True)
class ModelConfig:
    name: str = "mlp"
    hidden: tuple[int, ...] = (128, 64)
    channels: tuple[int, ...] = (8, 16)

    @classmethod
    def from_dict(cls, d: dict, where: str = "model") -> "ModelConfig":
        _require(d, where, {"name", "hidden", "channels"})
        name = _typed(d, where, "name", str, "mlp")
        if name not in ("mlp", "smallcnn"):
            raise ArgumentError(f"{where}.name: expected 'mlp' or 'smallcnn', got {name!r}")

        def int_tuple(key, default):
            value = d.get(key, default)
            if not (isinstance(value, (list, tuple)) and all(
                    isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value)):
                raise ArgumentError(f"{where}.{key}: expected a list of positive ints")
            return tuple(value)

        return cls(name=name, hidden=int_tuple("hidden", [128, 64]),
                   channels=int_tuple("channels", [8, 16]))


@dataclass(frozen=True)
class SplitConfig:
    fractions: tuple[float, ...] = (50.0, 50.0)
    joint: bool = True
    stratified: bool = True

    @classmethod
    def from_dict(cls, d: dict, where: str = "split") -> "SplitConfig":
        _require(d, where, {"fractions", "joint", "stratified"})
        fractions = d.get("fractions", [50, 50])
        if not (isinstance(fractions, (list, tuple)) and len(fractions) >= 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in fractions)):
            raise ArgumentError(f"{where}.fractions: expected a list of at least 2 numbers")
        fractions = tuple(float(v) for v in fractions)
        if any(f <= 0 or f > 100 for f in fractions):
            raise ArgumentError(f"{where}.fractions: must be in (0, 100], got {fractions}")
        if abs(sum(fractions) - 100.0) > 1e-9:
            raise ArgumentError(f"{where}.fractions: must sum to 100, got {sum(fractions)}")
        return cls(
            fractions=fractions,
            joint=_typed(d, where, "joint", bool, True),
            stratified=_typed(d, where, "stratified", bool, True),
        )


@dataclass(frozen=True)
class AnalysisConfig:
    baseline_evals: int = 5
    recovery_window: int = 5
    tolerance: float = 0.0
    window: int = 2000
    lmc_step: float = 0.01
    theta2_epochs: int = 5

    @classmethod
    def from_dict(cls, d: dict, where: str = "analysis") -> "AnalysisConfig":
        _require(d, where, {"baseline_evals", "recovery_window", "tolerance",
                            "window", "lmc_step", "theta2_epochs"})
        cfg = cls(
            baseline_evals=_typed(d, where, "baseline_evals", int, 5),
            recovery_window=_typed(d, where, "recovery_window", int, 5),
            tolerance=_typed(d, where, "tolerance", float, 0.0),
            window=_typed(d, where, "window", int, 2000),
            lmc_step=_typed(d, where, "lmc_step", float, 0.01),
            theta2_epochs=_typed(d, where, "theta2_epochs", int, 5),
        )
        if cfg.baseline_evals < 1 or cfg.recovery_window < 1 or cfg.window < 1:
            raise ArgumentError(f"{where}: baseline_evals, recovery_window, window must be >= 1")
        if not 0.0 < cfg.lmc_step <= 0.5:
            raise ArgumentError(f"{where}.lmc_step: must be in (0, 0.5], got {cfg.lmc_step}")
        if cfg.tolerance < 0:
            raise ArgumentError(f"{where}.tolerance: must be >= 0, got {cfg.tolerance}")
        if cfg.theta2_epochs < 1:
            raise ArgumentError(f"{where}.theta2_epochs: must be >= 1, got {cfg.theta2_epochs}")
        return cfg


# per-run seeds come from the top-level seed list, so TrainConfig.seed is
# not settable from a config document
_TRAIN_KEYS = {"lr", "momentum", "batch_size", "epochs_per_task", "eval_every",
               "checkpoint_every", "dense_window", "dense_tail", "velocity_reset",
               "eval_batch"}


def train_config_from_dict(d: dict, where: str = "train") -> TrainConfig:
    _require(d, where, _TRAIN_KEYS)
    kwargs = {}
    for key in _TRAIN_KEYS - {"epochs_per_task", "velocity_reset", "lr", "momentum"}:
        if key in d:
            kwargs[key] = _typed(d, where, key, int, None)
    for key in ("lr", "momentum"):
        if key in d:
            kwargs[key] = _typed(d, where, key, float, None)
    if "velocity_reset" in d:
        kwargs["velocity_reset"] = _typed(d, where, "velocity_reset", bool, None)
    if "epochs_per_task" in d:
        epochs = d["epochs_per_task"]
        if isinstance(epochs, int) and not isinstance(epochs, bool):
            kwargs["epochs_per_task"] = epochs
        elif isinstance(epochs, list) and epochs and all(
                isinstance(v, int) and not isinstance(v, bool) for v in epochs):
            kwargs["epochs_per_task"] = tuple(epochs)
        else:
            raise ArgumentError(f"{where}.epochs_per_task: expected int or list of ints")
    try:
        return TrainConfig(**kwargs)
    except ArgumentError as err:
        raise ArgumentError(f"{where}: {err}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: ModelConfig
    split: SplitConfig
    train: TrainConfig
    analysis: AnalysisConfig
    out_dir: str
    seeds: tuple[int, ...]
    checkpoints: bool = True
    # seed processes; None sizes the pool to the machine. It cannot change
    # a result, so to_dict (and with it config.json and the hash) omits it
    workers: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require(
            d, "config",
            {"dataset", "model", "split", "train", "analysis", "out_dir",
             "seeds", "checkpoints", "workers"},
            required={"out_dir"},
        )
        seeds = d.get("seeds", [0])
        if not (isinstance(seeds, list) and seeds and all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in seeds)):
            raise ArgumentError("config.seeds: expected a nonempty list of ints >= 0")
        if len(set(seeds)) != len(seeds):
            raise ArgumentError("config.seeds: duplicate seeds")
        workers = _typed(d, "config", "workers", int, None)
        if workers is not None and workers < 1:
            raise ArgumentError(f"config.workers: must be >= 1, got {workers}")
        cfg = cls(
            dataset=DatasetConfig.from_dict(d.get("dataset", {})),
            model=ModelConfig.from_dict(d.get("model", {})),
            split=SplitConfig.from_dict(d.get("split", {})),
            train=train_config_from_dict(d.get("train", {})),
            analysis=AnalysisConfig.from_dict(d.get("analysis", {})),
            out_dir=_typed(d, "config", "out_dir", str, None),
            seeds=tuple(seeds),
            checkpoints=_typed(d, "config", "checkpoints", bool, True),
            workers=workers,
        )
        n_tasks = len(cfg.split.fractions)
        epochs = cfg.train.epochs_per_task
        if len(epochs) > n_tasks:
            raise ArgumentError(
                f"train.epochs_per_task: {len(epochs)} entries for {n_tasks} tasks"
            )
        return cfg

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
        d = {
            "dataset": {k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in asdict(self.dataset).items() if v is not None},
            "model": {"name": self.model.name,
                      "hidden": list(self.model.hidden),
                      "channels": list(self.model.channels)},
            "split": {"fractions": list(self.split.fractions),
                      "joint": self.split.joint,
                      "stratified": self.split.stratified},
            "train": {
                "lr": self.train.lr,
                "momentum": self.train.momentum,
                "batch_size": self.train.batch_size,
                "epochs_per_task": list(self.train.epochs_per_task),
                "eval_every": self.train.eval_every,
                "checkpoint_every": self.train.checkpoint_every,
                "dense_window": self.train.dense_window,
                "dense_tail": self.train.dense_tail,
                "velocity_reset": self.train.velocity_reset,
                "eval_batch": self.train.eval_batch,
            },
            "analysis": asdict(self.analysis),
            "out_dir": self.out_dir,
            "seeds": list(self.seeds),
            "checkpoints": self.checkpoints,
        }
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
        if path not in self.artifacts:
            self.artifacts.append(path)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_hash": self.config_hash,
                "artifacts": sorted(self.artifacts),
                "versions": self.versions,
                "created": self.created,
                "seeds": self.seeds,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
