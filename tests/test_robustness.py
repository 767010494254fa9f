"""Outside input that once ended in a traceback, a silent wrong result or
a run directory written before the error: null config values, too many
classes for the raw format, a seed process that dies, non-finite numbers,
range rules that the config and the command line must share, a split that
empties a task, a bad train labels file, a model too large to allocate, a
non-finite number in a trace, two checkpoints of one iteration and a curve
file that breaks a curve rule."""

import json
import os
import signal
import warnings

import numpy as np
import pytest

from gaplab import procs
from gaplab.autodiff import init_params
from gaplab.artifacts import write_trace_csv
from gaplab.cli import main
from gaplab.config import ExperimentConfig
from gaplab.data import blob_train_count
from gaplab.trainer import CheckpointStore

from conftest import eval_trace, run_files

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


OVERFLOWING_SPREAD = "gaplab: error: spread 1e+308 makes the samples non-finite\n"


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
    assert not out.exists()
    assert main(args + ["--classes", "256"]) == 0
    labels = np.frombuffer((out / "train_labels.bin").read_bytes(), dtype=np.uint8)
    assert len(np.unique(labels)) == 256


def test_killed_seed_process_fails_its_seed_only(tmp_path, capsys, monkeypatch, two_cpus):
    # the second seed's child is killed as soon as it has started
    started, real = [], procs.Child.__init__

    def kills_the_second(self, *args):
        real(self, *args)
        started.append(self.pid)
        if len(started) == 2:
            os.kill(self.pid, signal.SIGKILL)

    (tmp_path / "single").mkdir()
    single = write_config(tmp_path / "single", seeds=[0, 1, 2], workers=1)
    assert main(["train", "--config", str(single)]) == 0
    monkeypatch.setattr(procs.Child, "__init__", kills_the_second)
    path = write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["train", "--config", str(path)]) == 4
    died = "a seed process died (killed by signal 9)"
    assert capsys.readouterr().err == f"gaplab: error: {died}\n"
    manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
    assert manifest["seeds"] == {"0": "ok", "1": f"GapLabError: {died}", "2": "ok"}
    assert len(started) == 3
    for pid in started:  # reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def seeds_0_and_2(out):
        return {name: data for name, data in run_files(out).items()
                if name.startswith(("seed0/", "seed2/"))}

    assert "seed2/trace.csv" in seeds_0_and_2(tmp_path / "exp")
    assert seeds_0_and_2(tmp_path / "exp") == seeds_0_and_2(tmp_path / "single" / "exp")


def test_gen_data_spread_that_overflows_exits_2_before_any_file(tmp_path, capsys):
    out = tmp_path / "data"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gen-data", "--spread", "1e308", "--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr() == ("", OVERFLOWING_SPREAD)
    assert not out.exists()


def test_train_with_a_spread_that_overflows_exits_2(tmp_path, capsys):
    # one seed, trained in this process, where a warning would be caught
    path = write_config(tmp_path, dataset=dict(CONFIG["dataset"], spread=1e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(path)]) == 2
    assert caught == []
    assert capsys.readouterr() == ("", OVERFLOWING_SPREAD)


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


@pytest.mark.parametrize("override, message", [
    ({"workers": 0}, "config.workers: must be >= 1, got 0"),
    ({"analysis": {"theta2_epochs": 0}}, "analysis.theta2_epochs: must be >= 1, got 0"),
    ({"dataset": {"kind": "files", "classes": 1, "shape": [4],
                  "train_features": "a.bin", "train_labels": "b.bin",
                  "test_features": "c.bin", "test_labels": "d.bin",
                  "train_count": 8, "test_count": 8}},
     "dataset.classes: need at least 2, got 1"),
    ({"train": 5}, "train: expected an object, got int"),
    ({"model": {"hidden": [0]}}, "model.hidden: entries must be >= 1, got 0"),
    ({"dataset": dict(CONFIG["dataset"], shape=[])}, "dataset.shape: must not be empty"),
    ({"train": {"epochs_per_task": []}}, "train: epochs_per_task needs at least one entry"),
    ({"train": {"dense_window": -1}}, "train: dense_window and dense_tail must be >= 0"),
    ({"train": {"dense_tail": -1}}, "train: dense_window and dense_tail must be >= 0"),
    # a files config that forgot `"kind": "files"` once trained on blobs
    ({"dataset": dict(CONFIG["dataset"], shape=[4], train_features="a.bin",
                      train_labels="b.bin", test_features=None, train_count=8)},
     "dataset: keys ['train_features', 'train_labels', 'train_count'] need kind 'files'"),
    # a JSON integer too large for a float once ended in an OverflowError
    ({"train": {"lr": 10**400}}, "train.lr: integer out of float range"),
    ({"dataset": dict(CONFIG["dataset"], spread=10**400)},
     "dataset.spread: integer out of float range"),
    ({"analysis": {"tolerance": 10**400}}, "analysis.tolerance: integer out of float range"),
    # 2 per class once wrote config.json, manifest.json and an empty seed0/
    ({"dataset": dict(CONFIG["dataset"], per_class=2)},
     "dataset: need at least 3 samples per class, one for test, got 2"),
], ids=["workers-0", "theta2-epochs-0", "files-one-class", "train-not-an-object",
        "hidden-0", "empty-shape", "no-epochs", "dense-window-negative",
        "dense-tail-negative", "file-keys-on-blobs", "lr-past-float",
        "spread-past-float", "tolerance-past-float", "per-class-2"])
def test_config_value_out_of_range_exits_2_before_any_file(tmp_path, capsys, override,
                                                          message):
    assert main(["train", "--config", str(write_config(tmp_path, **override))]) == 2
    assert capsys.readouterr() == ("", f"gaplab: error: {message}\n")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("raw, message", [
    (b'"seeds": [' + b"1" * 5000 + b"]",
     "config: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    (b'"model": {"name": "ml\xff"}',
     "config: cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    # json.loads once ended in a RecursionError here
    (b'"seeds": ' + b"[" * 100_000 + b"]" * 100_000,
     "config: invalid JSON: maximum recursion depth exceeded"),
], ids=["int-past-digit-limit", "not-utf-8", "nested-past-recursion-limit"])
def test_config_file_that_json_cannot_read_exits_2_before_any_file(tmp_path, capsys, raw,
                                                                   message):
    # raw bytes: json.dumps refuses an integer past the digit limit too
    path = tmp_path / "config.json"
    out_dir = json.dumps(str(tmp_path / "exp")).encode()
    path.write_bytes(b'{"out_dir": ' + out_dir + b", " + raw + b"}")
    assert main(["train", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"gaplab: error: {message.format(path=path)}")
    assert not (tmp_path / "exp").exists()


def test_eval_batch_0_exits_2_before_any_seed_directory(tmp_path, capsys):
    path = write_config(tmp_path, train=dict(CONFIG["train"], eval_batch=0))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "gaplab: error: train: eval_batch must be >= 1, got 0\n"
    assert not (tmp_path / "exp" / "seed0").exists()
    assert not (tmp_path / "exp").exists()


def test_train_seed_exits_2_before_any_file(tmp_path, capsys):
    # a run's seed comes from the top-level `seeds` list only
    path = write_config(tmp_path, train={"seed": 1})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "gaplab: error: train: unknown keys ['seed']\n"
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


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("where", ["config-lr", "config-spread", "gen-data"])
def test_nonfinite_lr_or_spread_exits_2_before_any_file(tmp_path, capsys, where, value):
    # json.loads reads NaN and Infinity, and NaN passes a `<= 0` or `< 0` test:
    # NaN once ran to a divergence (exit 4), and gen-data wrote zero bytes
    out = tmp_path / "exp"
    if where == "gen-data":
        spread = {"NaN": "nan", "Infinity": "inf"}[value]
        args = ["gen-data", "--spread", spread, "--out", str(out)]
    else:
        section, key = {"config-lr": ("train", "lr"),
                        "config-spread": ("dataset", "spread")}[where]
        raw = dict(CONFIG[section], **{key: float(value)})
        args = ["train", "--config", str(write_config(tmp_path, **{section: raw}))]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gaplab: error: ") and captured.err.count("\n") == 1
    assert "finite" in captured.err
    assert not out.exists()


def test_non_finite_trace_number_exits_4(tmp_path, capsys):
    # nan once parsed: gap printed gap_depth = nan and exit 3, "never recovers"
    path = tmp_path / "trace.csv"
    path.write_text(
        "iter,task,batch_loss_pre,batch_acc_pre,batch_loss_post,batch_acc_post,"
        "test_loss,test_acc,ckpt\n"
        + "".join(f"{it},{it // 3},1,0.5,1,0.5,1,{acc},\n"
                  for it, acc in [(1, 0.9), (2, "nan"), (3, 0.5), (4, 0.95), (5, 0.95)]))
    assert main(["gap", "--trace", str(path), "--baseline-evals", "1",
                 "--recovery-window", "1", "--out", str(tmp_path / "gap.txt")]) == 4
    assert capsys.readouterr() == ("", f"gaplab: error: {path}: line 3: "
                                       "non-finite number 'nan'\n")
    assert not (tmp_path / "gap.txt").exists()


def test_two_checkpoints_of_one_iteration_exit_4_before_any_file(tmp_path, capsys):
    # the last of the sorted names once won: path.csv mixed in another file's
    # parameters for that iteration, and lmc exited 0
    config = write_config(tmp_path)
    spec = ExperimentConfig.from_dict(json.loads(config.read_text())).model_spec
    ckpts = tmp_path / "ckpts"
    store = CheckpointStore(ckpts)
    for it in (0, 5):
        store.save(0, it, init_params(spec, it))
    (ckpts / "task0_iter5.ckpt").write_bytes((ckpts / "task0_iter0000000.ckpt").read_bytes())
    out = tmp_path / "figs"
    assert main(["lmc", "--config", str(config), "--ckpt-a", str(ckpts / "task0_iter0000000.ckpt"),
                 "--ckpt-b", str(ckpts / "task0_iter0000005.ckpt"), "--sgd-path", str(ckpts),
                 "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"gaplab: error: {ckpts / 'task0_iter0000005.ckpt'} and "
                                       f"{ckpts / 'task0_iter5.ckpt'}: "
                                       "two checkpoints of iteration 5\n")
    assert not out.exists()


@pytest.mark.parametrize("lmc_rows, path_rows, bad, message", [
    (["0,1,0.5", "0.5,1,0.5"], None, "lmc.csv", "lambda grid must run from 0 to 1"),
    (["0,1,0.5", "1,1,0.5"], ["5,1,0.5", "3,1,0.5"], "path.csv",
     "curve positions must be strictly ascending"),
], ids=["lmc-grid-short-of-1", "path-iterations-descend"])
def test_curve_file_that_breaks_a_curve_rule_exits_4_before_any_file(
        tmp_path, capsys, lmc_rows, path_rows, bad, message):
    # every field parses, so the curve's own rule once gave exit 2 naming no file
    run = tmp_path / "seed0"
    run.mkdir()
    write_trace_csv(run / "trace.csv", eval_trace([0.9, 0.9], [0.5, 0.9]))
    (run / "lmc.csv").write_text("lambda,loss,accuracy\n" + "".join(f"{r}\n" for r in lmc_rows))
    if path_rows:
        (run / "path.csv").write_text("iter,loss,accuracy\n" + "".join(f"{r}\n" for r in path_rows))
    out = tmp_path / "figs"
    assert main(["report", "--run", str(run), "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", f"gaplab: error: {run / bad}: {message}\n")
    assert not out.exists()


def test_largest_64_bit_seed_is_a_seed():
    cfg = ExperimentConfig.from_dict({"out_dir": "/t", "seeds": [0, 2**64 - 1]})
    assert cfg.seeds == (0, 2**64 - 1)


EMPTY_TASK = "gaplab: error: a task received no samples; fractions too small for N\n"


def files_dataset(tmp_path, classes=3, per_class=5, dim=4):
    """The `dataset` section of a gen-data dataset of `classes` x `per_class`."""
    data = tmp_path / "data"
    assert main(["gen-data", "--classes", str(classes), "--per-class", str(per_class),
                 "--dim", str(dim), "--out", str(data)]) == 0
    n_train = blob_train_count(per_class) * classes
    return {"kind": "files", "classes": classes, "shape": [dim],
            "train_features": str(data / "train_features.bin"),
            "train_labels": str(data / "train_labels.bin"),
            "test_features": str(data / "test_features.bin"),
            "test_labels": str(data / "test_labels.bin"),
            "train_count": n_train, "test_count": classes * per_class - n_train}


@pytest.mark.parametrize("per_class", [40, 50, "files"])
def test_split_that_empties_a_task_exits_2_before_any_file(tmp_path, capsys, per_class):
    # 32 or 40 (blobs) or 4 (files) training samples per class: 1% of a class
    # rounds to none (though 1% of all 50 samples of a class would round to
    # one). This once wrote config.json, manifest.json and seed0/
    if per_class == "files":
        dataset = files_dataset(tmp_path)
        capsys.readouterr()
    else:
        dataset = dict(CONFIG["dataset"], per_class=per_class)
    path = write_config(tmp_path, dataset=dataset, split={"fractions": [1, 99]})
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", EMPTY_TASK)
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("labels, message", [
    (None, "[Errno 2] No such file or directory: '{path}'"),
    (bytes(11), "{path}: expected 12 bytes, found 11 (mismatch at byte offset 11)"),
    (bytes(11) + b"\x07", "{path}: label 7 out of range at byte offset 11"),
], ids=["missing", "short", "out-of-range"])
def test_bad_train_labels_file_exits_4_before_any_file(tmp_path, capsys, two_cpus,
                                                       labels, message):
    dataset = files_dataset(tmp_path)
    capsys.readouterr()
    path = tmp_path / "data" / "train_labels.bin"
    path.unlink()
    if labels is not None:
        path.write_bytes(labels)
    config = write_config(tmp_path, dataset=dataset, seeds=[0, 1])
    assert main(["train", "--config", str(config)]) == 4
    assert capsys.readouterr() == ("", f"gaplab: error: {message.format(path=path)}\n")
    assert not (tmp_path / "exp").exists()


# 2**55 parameters, 2**58 bytes: past any address space, so the allocation
# is refused at once, whatever the system's overcommit policy
TOO_LARGE = {"name": "mlp", "hidden": [2**52]}


@pytest.mark.parametrize("seeds, workers", [([0], 1), ([0, 1], None)],
                         ids=["one-seed", "two-forked-seeds"])
def test_model_too_large_to_allocate_exits_4(tmp_path, capsys, two_cpus, seeds, workers):
    # a MemoryError once ended in a traceback, exit 1
    path = write_config(tmp_path, model=TOO_LARGE, seeds=seeds, workers=workers)
    assert main(["train", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("gaplab: error: Unable to allocate ")
    manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
    assert list(manifest["seeds"]) == [str(s) for s in seeds]
    assert all("MemoryError: Unable to allocate " in status
               for status in manifest["seeds"].values())
