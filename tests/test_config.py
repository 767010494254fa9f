"""Config parsing: strict keys, typed fields, canonical hashing."""

import json
import math
import re
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.config import (
    AnalysisConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    RunManifest,
    SplitConfig,
    canonical_json,
    config_hash,
    load,
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
        load(DatasetConfig, {"kind": "files"}, "dataset")
    with pytest.raises(ArgumentError, match="requires shape"):
        load(DatasetConfig, {
            "kind": "files",
            "train_features": "a", "train_labels": "b",
            "test_features": "c", "test_labels": "d",
        }, "dataset")


def test_epochs_cannot_exceed_tasks():
    with pytest.raises(ArgumentError, match="entries for 2 tasks"):
        ExperimentConfig.from_dict({
            "out_dir": "/t",
            "split": {"fractions": [50, 50]},
            "train": {"epochs_per_task": [5, 5, 5]},
        })


def test_train_scalar_epochs_broadcast():
    cfg = load(TrainConfig, {"epochs_per_task": 7}, "train")
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
        load(SplitConfig, {"fractions": [60, 60]}, "split")
    with pytest.raises(ArgumentError):
        load(SplitConfig, {"fractions": []}, "split")


def test_analysis_validation():
    with pytest.raises(ArgumentError):
        load(AnalysisConfig, {"lmc_step": 0.0}, "analysis")
    with pytest.raises(ArgumentError):
        load(AnalysisConfig, {"baseline_evals": 0}, "analysis")


def test_model_validation():
    with pytest.raises(ArgumentError):
        load(ModelConfig, {"name": "resnet"}, "model")
    cfg = load(ModelConfig, {"name": "smallcnn", "channels": [4, 8]}, "model")
    assert cfg.channels == (4, 8)


def test_sections_check_themselves_however_they_are_built():
    cfg = ExperimentConfig.from_dict(MINIMAL)
    with pytest.raises(ArgumentError, match=r"^config.seeds: must not be empty$"):
        replace(cfg, seeds=())
    with pytest.raises(ArgumentError, match=r"^config.workers: must be >= 1, got 0$"):
        replace(cfg, workers=0)
    with pytest.raises(ArgumentError, match=r"^train.epochs_per_task: 3 entries for 2 tasks$"):
        replace(cfg, train=TrainConfig(epochs_per_task=(1, 1, 1)))
    with pytest.raises(ArgumentError, match=r"^model: smallcnn needs"):
        replace(cfg, model=ModelConfig(name="smallcnn"))
    cases = [
        (lambda: DatasetConfig(per_class=0), "dataset: "),
        (lambda: DatasetConfig(train_count=5), "dataset: keys ['train_count'] need kind 'files'"),
        (lambda: DatasetConfig(kind="files"), "dataset: kind 'files' requires all four"),
        (lambda: ModelConfig(hidden=(0,)), "model.hidden: entries must be >= 1, got 0"),
        (lambda: SplitConfig(fractions=(100.0,)), "split.fractions: need at least 2 tasks"),
        (lambda: AnalysisConfig(theta2_epochs=0), "analysis.theta2_epochs: must be >= 1"),
        (lambda: AnalysisConfig(lmc_step=0.0), "analysis.lmc_step: "),
        (lambda: TrainConfig(lr=0.0), "train: lr must be positive and finite, got 0.0"),
        (lambda: replace(cfg.train, batch_size=0), "train: batch_size must be >= 1, got 0"),
    ]
    for build, message in cases:
        with pytest.raises(ArgumentError) as err:
            build()
        assert str(err.value).startswith(message), message


def test_a_built_config_cannot_be_changed_in_place():
    # a changed `lr` would change the run and the hash under the same config
    cfg = ExperimentConfig.from_dict(MINIMAL)
    digest = cfg.hash()
    for section, key in [(cfg, "seeds"), (cfg.train, "lr"), (cfg.dataset, "spread"),
                         (cfg.model, "hidden"), (cfg.split, "joint"),
                         (cfg.analysis, "window")]:
        with pytest.raises(FrozenInstanceError):
            setattr(section, key, getattr(section, key))
    assert cfg.hash() == digest


def test_manifest_serialization_sorted():
    m = RunManifest(config_hash="abc", artifacts=["b", "a"],
                    versions={"gaplab": "0.1.0"}, created="2026-01-01T00:00:00Z")
    d = json.loads(m.to_json())
    assert d["config_hash"] == "abc"
    assert d["artifacts"] == ["a", "b"]  # serialized sorted
    assert list(d) == sorted(d.keys())


# --- a section built in code is typed as a loaded one ---------------------------------

def test_a_section_built_in_code_is_typed_as_a_loaded_one():
    cfg = ExperimentConfig.from_dict(MINIMAL)
    # once built, and ran an mlp under a config naming "resnet"
    with pytest.raises(ArgumentError,
                       match=r"^model.name: expected 'mlp' or 'smallcnn', got 'resnet'$"):
        replace(cfg, model=ModelConfig(name="resnet"))
    # once trained every seed, then failed to write config.json
    with pytest.raises(ArgumentError, match=r"^config.out_dir: expected str, got PosixPath$"):
        replace(cfg, out_dir=Path("/tmp/exp"))
    with pytest.raises(ArgumentError, match=r"^config.train: expected TrainConfig, got dict$"):
        ExperimentConfig(out_dir="x", train={"lr": 1})
    with pytest.raises(ArgumentError, match=r"^train.lr: integer out of float range$"):
        TrainConfig(lr=10**400)
    # once hashed as another study than the document that loads to it
    built = ExperimentConfig(out_dir="x", train=TrainConfig(lr=1))
    assert type(built.train.lr) is float
    assert built.hash() == ExperimentConfig.from_dict({"out_dir": "x",
                                                      "train": {"lr": 1}}).hash()


SECTIONS = {"dataset": DatasetConfig, "model": ModelConfig, "split": SplitConfig,
            "train": TrainConfig, "analysis": AnalysisConfig}


def numbers(lo, hi):
    """Ints and floats in [lo, hi]: a float field takes an int too."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


def counts(lo, hi, size=(0, 3)):
    return st.lists(st.integers(lo, hi), min_size=size[0], max_size=size[1]).map(tuple)


@st.composite
def experiments(draw):
    """Valid values of every section, as code passes them (tuples for lists),
    and the top-level keys of an ExperimentConfig."""
    dim = draw(st.integers(2, 16))
    dataset = dict(classes=draw(st.integers(2, 8)), per_class=draw(st.integers(3, 50)),
                   dim=dim, spread=draw(numbers(0, 10)),
                   shape=draw(st.sampled_from([None, (dim,), (1, dim)])))
    if draw(st.booleans()):
        dataset.update(kind="files", shape=draw(counts(1, 4, size=(1, 3))),
                       train_features="a.bin", train_labels="b.bin",
                       test_features="c.bin", test_labels="d.bin",
                       train_count=draw(st.integers(1, 99)), test_count=draw(st.integers(1, 99)))
    first = draw(st.integers(1, 99))
    fractions = draw(st.sampled_from([(first, 100 - first), (25.0, 25, 50.0)]))
    epochs = draw(st.one_of(st.integers(0, 5), counts(0, 5, size=(1, len(fractions)))))
    return {
        "dataset": dataset,
        "model": dict(name="mlp", hidden=draw(counts(1, 16)), channels=draw(counts(1, 8))),
        "split": dict(fractions=fractions, joint=draw(st.booleans()),
                      stratified=draw(st.booleans())),
        "train": dict(lr=draw(numbers(1e-6, 10)), momentum=draw(numbers(0, 0.99)),
                      batch_size=draw(st.integers(1, 128)), epochs_per_task=epochs,
                      eval_every=draw(st.integers(1, 99)),
                      checkpoint_every=draw(st.integers(1, 99)),
                      dense_window=draw(st.integers(0, 400)),
                      dense_tail=draw(st.integers(0, 50)),
                      velocity_reset=draw(st.booleans()), eval_batch=draw(st.integers(1, 512))),
        "analysis": dict(baseline_evals=draw(st.integers(1, 9)),
                         recovery_window=draw(st.integers(1, 9)),
                         tolerance=draw(numbers(0, 1)), window=draw(st.integers(1, 3000)),
                         lmc_step=draw(st.floats(1e-3, 0.5)),
                         theta2_epochs=draw(st.integers(1, 9))),
        "config": dict(out_dir="/tmp/exp", checkpoints=draw(st.booleans()),
                       seeds=tuple(draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                                 max_size=3, unique=True))),
                       workers=draw(st.one_of(st.none(), st.integers(1, 8)))),
    }


def as_json(values: dict):
    return json.loads(json.dumps(values))  # tuples become lists


@settings(max_examples=60, derandomize=True, deadline=None)
@given(experiments())
def test_a_config_built_in_code_equals_and_hashes_as_the_loaded_one(values):
    sections = {key: cls(**values[key]) for key, cls in SECTIONS.items()}
    for key, cls in SECTIONS.items():
        assert load(cls, as_json(values[key]), key) == sections[key]
    built = ExperimentConfig(**values["config"], **sections)
    loaded = ExperimentConfig.from_dict(as_json({**values["config"], **{
        key: values[key] for key in SECTIONS}}))
    assert built == loaded
    assert built.hash() == loaded.hash()


# one value of each JSON kind; none of them is a Literal's choice or a list of numbers
WRONG = {"int": 7, "float": 1.5, "str": "x", "bool": True, "null": None, "list": ["x"],
         "object": {}}


def accepted(hint) -> set[str]:
    """The kinds of WRONG that a field declared `hint` holds."""
    options = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    kinds = {int: {"int"}, float: {"int", "float"}, str: {"str"}, bool: {"bool"},
             NoneType: {"null"}}
    return set().union(*(kinds.get(option, set()) for option in options))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(experiments(), st.data())
def test_a_value_of_the_wrong_type_is_named_built_or_loaded(values, data):
    where = data.draw(st.sampled_from([*SECTIONS, "config"]))
    cls = SECTIONS.get(where, ExperimentConfig)
    hints = {key: hint for key, hint in get_type_hints(cls).items() if not is_dataclass(hint)}
    key = data.draw(st.sampled_from(sorted(hints)))
    kind = data.draw(st.sampled_from(sorted(set(WRONG) - accepted(hints[key]))))
    bad = dict(values[where], **{key: WRONG[kind]})
    with pytest.raises(ArgumentError) as built:
        cls(**bad)
    with pytest.raises(ArgumentError) as loaded:
        load(cls, as_json(bad), where)
    assert str(built.value).startswith(f"{where}.{key}: expected ")
    assert str(loaded.value) == str(built.value)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_lists_every_key_with_its_default():
    # one row per key: | `section.key` | `JSON default` or required | ... |
    rows = dict(re.findall(r"^\| `([\w.]+)` \| (`[^`]*`|required) \|", README.read_text(),
                           re.MULTILINE))
    expected = {}
    for section, cls in [("", ExperimentConfig), ("dataset.", DatasetConfig),
                         ("model.", ModelConfig), ("split.", SplitConfig),
                         ("train.", TrainConfig), ("analysis.", AnalysisConfig)]:
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is not MISSING:
                continue  # a section: its keys have rows of their own
            default = "required" if f.default is MISSING else f"`{json.dumps(f.default)}`"
            expected[section + f.name] = default
    assert rows == expected
