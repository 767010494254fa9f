"""Outside input that once ended in a traceback, a silent wrong result or
a run directory written before the error: null config values, too many
classes for the raw format, a seed process that dies, and range rules
that the config and the command line must share."""

import json
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from gaplab import experiment
from gaplab.cli import main
from gaplab.config import ExperimentConfig
from gaplab.instrument import write_trace_csv

from conftest import eval_trace

CONFIG = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4,
                "spread": 1.0},
    "model": {"name": "mlp", "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 6],
              "dense_window": 400, "dense_tail": 5},
    "analysis": {"window": 100},
    "seeds": [0],
}


def write_config(tmp_path, **overrides):
    raw = dict(CONFIG, out_dir=str(tmp_path / "exp"))
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("override", [
    {"train": {"lr": None}},
    {"analysis": {"window": None}},
    {"dataset": {"classes": None}},
    {"out_dir": None},
    {"checkpoints": None},
    {"seeds": None},
    {"model": {"hidden": None}},
    {"split": {"joint": None}},
])
def test_null_where_the_default_is_not_null_exits_2(tmp_path, capsys, override):
    assert main(["train", "--config", str(write_config(tmp_path, **override))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "got null" in err
    assert not (tmp_path / "exp").exists()


def test_null_is_the_default_for_optional_keys():
    nulls = {"out_dir": "/t", "workers": None,
             "dataset": {"shape": None, "train_features": None, "train_count": None}}
    cfg = ExperimentConfig.from_dict(nulls)
    assert cfg == ExperimentConfig.from_dict({"out_dir": "/t"})
    assert "null" not in json.dumps(cfg.to_dict())


def test_gen_data_rejects_more_classes_than_a_label_byte_holds(tmp_path, capsys):
    out = tmp_path / "data"
    args = ["gen-data", "--per-class", "5", "--dim", "2", "--out", str(out)]
    assert main(args + ["--classes", "300"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "256" in err
    assert not (out / "train_labels.bin").exists()
    assert main(args + ["--classes", "256"]) == 0
    labels = np.frombuffer((out / "train_labels.bin").read_bytes(), dtype=np.uint8)
    assert len(np.unique(labels)) == 256


def test_dead_seed_process_exits_4_and_keeps_the_manifest(tmp_path, capsys,
                                                         monkeypatch, two_cpus):
    died = BrokenProcessPool("A process in the process pool was terminated abruptly")
    monkeypatch.setattr(experiment, "_run_seeds_in_pool",
                        lambda cfg, out, n_procs: [died] * len(cfg.seeds))
    path = write_config(tmp_path, seeds=[0, 1], workers=2)
    assert main(["train", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed process died" in err
    manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
    assert sorted(manifest["seeds"]) == ["0", "1"]
    for status in manifest["seeds"].values():
        assert status.startswith("GapLabError: a seed process died")


def test_negative_tolerance_exits_2_in_gap_and_in_config(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, eval_trace([0.9] * 5, [0.5] * 8))
    assert main(["gap", "--trace", str(trace_path), "--tolerance", "-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaplab: error: tolerance must be >= 0, got -0.5\n"
    path = write_config(tmp_path, analysis={"tolerance": -0.5})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == \
        "gaplab: error: analysis: tolerance must be >= 0, got -0.5\n"
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("key", ["train_count", "test_count"])
def test_files_dataset_with_count_0_writes_nothing(tmp_path, capsys, key):
    dataset = {"kind": "files", "classes": 3, "shape": [4],
               "train_features": "a.bin", "train_labels": "b.bin",
               "test_features": "c.bin", "test_labels": "d.bin",
               "train_count": 8, "test_count": 8, key: 0}
    assert main(["train", "--config", str(write_config(tmp_path, dataset=dataset))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"dataset.{key}: " in err and "count 0" in err
    assert not (tmp_path / "exp").exists()


def test_eval_batch_0_exits_2_before_any_seed_directory(tmp_path, capsys):
    path = write_config(tmp_path, train=dict(CONFIG["train"], eval_batch=0))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "gaplab: error: train: eval_batch must be >= 1, got 0\n"
    assert not (tmp_path / "exp" / "seed0").exists()
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("dataset", [
    CONFIG["dataset"],                                      # flat blobs
    dict(CONFIG["dataset"], dim=108, shape=[3, 6, 6]),      # second pool meets 3x3
], ids=["flat-input", "odd-pool-input"])
def test_smallcnn_that_cannot_take_its_input_exits_2_before_any_file(
        tmp_path, capsys, two_cpus, dataset):
    path = write_config(tmp_path, dataset=dataset, model={"name": "smallcnn"},
                        seeds=[0, 1])
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gaplab: error: model: ") and err.count("\n") == 1
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7], ids=["negative", "2**64", "aliases-7"])
@pytest.mark.parametrize("where", ["config", "train", "lmc", "gen-data"])
def test_seed_outside_64_bits_exits_2_before_any_file(tmp_path, capsys, where, seed):
    # Rng and derive_seed reduce seeds mod 2**64, so 2**64 + 7 would run
    # seed 7 under another name
    out = tmp_path / "exp"
    if where == "config":
        args = ["train", "--config", str(write_config(tmp_path, seeds=[seed]))]
        named = "config.seeds"
    else:
        args = {"train": ["train", "--config", str(write_config(tmp_path))],
                "lmc": ["lmc", "--config", str(write_config(tmp_path)),
                        "--ckpt-a", "a.ckpt", "--ckpt-b", "b.ckpt", "--out", str(out)],
                "gen-data": ["gen-data", "--out", str(out)]}[where] + ["--seed", str(seed)]
        named = "--seed"
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"gaplab: error: {named}: must be in [0, 2**64), got {seed}\n"
    assert captured.out == ""
    assert not out.exists()


def test_largest_64_bit_seed_is_a_seed():
    cfg = ExperimentConfig.from_dict({"out_dir": "/t", "seeds": [0, 2**64 - 1]})
    assert cfg.seeds == (0, 2**64 - 1)
