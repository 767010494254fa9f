"""Config parsing: strict keys, typed fields, canonical hashing."""

import json
from dataclasses import fields

import pytest

from gaplab.config import (
    AnalysisConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    RunManifest,
    SplitConfig,
    canonical_json,
    config_hash,
    train_config_from_dict,
)
from gaplab.errors import ArgumentError
from gaplab.trainer import TrainConfig

MINIMAL = {"out_dir": "/tmp/exp"}


def test_canonical_json_sorted_and_tight():
    obj = {"b": 1, "a": [1.5, True, None], "c": {"z": 0, "y": "s"}}
    assert canonical_json(obj) == '{"a":[1.5,true,null],"b":1,"c":{"y":"s","z":0}}'


def test_config_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_minimal_config_gets_defaults():
    cfg = ExperimentConfig.from_dict(MINIMAL)
    assert cfg.dataset.kind == "blobs"
    assert cfg.dataset.classes == 8 and cfg.dataset.per_class == 250
    assert cfg.model.name == "mlp" and cfg.model.hidden == (128, 64)
    assert cfg.split.fractions == (50.0, 50.0) and cfg.split.joint
    assert cfg.train.lr == 0.01 and cfg.train.momentum == 0.9
    assert cfg.train.batch_size == 64
    assert cfg.analysis.baseline_evals == 5 and cfg.analysis.lmc_step == 0.01
    assert cfg.seeds == (0,) and cfg.checkpoints and cfg.workers is None


def test_unknown_keys_rejected_everywhere():
    cases = [
        {"out_dir": "/tmp/x", "typo": 1},
        {"out_dir": "/tmp/x", "dataset": {"sprad": 2.0}},
        {"out_dir": "/tmp/x", "model": {"nam": "mlp"}},
        {"out_dir": "/tmp/x", "split": {"fraction": [50, 50]}},
        {"out_dir": "/tmp/x", "train": {"learning_rate": 0.1}},
        {"out_dir": "/tmp/x", "analysis": {"windw": 100}},
    ]
    for raw in cases:
        with pytest.raises(ArgumentError, match="unknown keys"):
            ExperimentConfig.from_dict(raw)


def test_train_document_has_exactly_train_config_fields():
    # the run's seed comes from `seeds`; the train section holds no other key
    train = ExperimentConfig.from_dict(MINIMAL).to_dict()["train"]
    assert sorted(train) == sorted(f.name for f in fields(TrainConfig))


def test_out_dir_required():
    with pytest.raises(ArgumentError):
        ExperimentConfig.from_dict({})


def test_bool_is_not_an_int():
    with pytest.raises(ArgumentError, match="expected int, got bool"):
        ExperimentConfig.from_dict({"out_dir": "/t", "dataset": {"classes": True}})


def test_seed_list_validation():
    for seeds in ([], [0, 0], [-1], ["a"], [True]):
        with pytest.raises(ArgumentError):
            ExperimentConfig.from_dict({"out_dir": "/t", "seeds": seeds})


def test_files_kind_requires_paths_and_counts():
    with pytest.raises(ArgumentError, match="requires all four file paths"):
        DatasetConfig.from_dict({"kind": "files"})
    with pytest.raises(ArgumentError, match="requires shape"):
        DatasetConfig.from_dict({
            "kind": "files",
            "train_features": "a", "train_labels": "b",
            "test_features": "c", "test_labels": "d",
        })


def test_epochs_cannot_exceed_tasks():
    with pytest.raises(ArgumentError, match="entries for 2 tasks"):
        ExperimentConfig.from_dict({
            "out_dir": "/t",
            "split": {"fractions": [50, 50]},
            "train": {"epochs_per_task": [5, 5, 5]},
        })


def test_train_scalar_epochs_broadcast():
    cfg = train_config_from_dict({"epochs_per_task": 7})
    assert cfg.epochs_per_task == (7,)


def test_roundtrip_dict_json_file(tmp_path):
    raw = {
        "out_dir": "/tmp/exp",
        "dataset": {"spread": 8.0},
        "train": {"lr": 0.05, "epochs_per_task": [100, 20]},
        "seeds": [0, 1, 2],
    }
    cfg = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert ExperimentConfig.from_file(p) == cfg


def test_hash_stable_across_equivalent_sources():
    a = ExperimentConfig.from_dict({"out_dir": "/t", "dataset": {"spread": 2.0}})
    b = ExperimentConfig.from_json('{"dataset": {"spread": 2.0}, "out_dir": "/t"}')
    assert a.hash() == b.hash()
    c = ExperimentConfig.from_dict({"out_dir": "/t", "dataset": {"spread": 3.0}})
    assert a.hash() != c.hash()


def test_invalid_json_is_argument_error():
    with pytest.raises(ArgumentError, match="invalid JSON"):
        ExperimentConfig.from_json("{nope")


def test_missing_file_is_argument_error(tmp_path):
    with pytest.raises(ArgumentError, match="cannot read"):
        ExperimentConfig.from_file(tmp_path / "absent.json")


def test_split_validation():
    with pytest.raises(ArgumentError):
        SplitConfig.from_dict({"fractions": [60, 60]})
    with pytest.raises(ArgumentError):
        SplitConfig.from_dict({"fractions": []})


def test_analysis_validation():
    with pytest.raises(ArgumentError):
        AnalysisConfig.from_dict({"lmc_step": 0.0})
    with pytest.raises(ArgumentError):
        AnalysisConfig.from_dict({"baseline_evals": 0})


def test_model_validation():
    with pytest.raises(ArgumentError):
        ModelConfig.from_dict({"name": "resnet"})
    cfg = ModelConfig.from_dict({"name": "smallcnn", "channels": [4, 8]})
    assert cfg.channels == (4, 8)


def test_manifest_serialization_sorted():
    m = RunManifest(config_hash="abc", artifacts=["b", "a"],
                    versions={"gaplab": "0.1.0"}, created="2026-01-01T00:00:00Z")
    d = json.loads(m.to_json())
    assert d["config_hash"] == "abc"
    assert d["artifacts"] == ["a", "b"]  # serialized sorted
    assert list(d) == sorted(d.keys())
