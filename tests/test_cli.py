"""Command line surface: artifacts, determinism, and exit codes."""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import pytest

import gaplab
from gaplab import connectivity, procs
from gaplab.artifacts import (GapParams, TraceRecord, TrainTrace, read_trace_csv,
                              write_trace_csv)
from gaplab.cli import build_parser, main

from conftest import eval_trace, run_files, running_children

CONFIG = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4,
                "spread": 1.0},
    "model": {"name": "mlp", "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 6],
              "dense_window": 400, "dense_tail": 5},
    "analysis": {"window": 100},
    "seeds": [0],
    "checkpoints": True,
}


def write_config(tmp_path, **overrides):
    raw = dict(CONFIG, out_dir=str(tmp_path / "exp"))
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# --- gen-data ------------------------------------------------------------------

def test_gen_data_writes_four_files(tmp_path):
    out = tmp_path / "data"
    code = main(["gen-data", "--classes", "3", "--per-class", "20",
                 "--dim", "4", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["test_features.bin", "test_labels.bin",
                     "train_features.bin", "train_labels.bin"]


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--classes", "3", "--per-class", "20", "--dim", "4",
            "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("train_features.bin", "train_labels.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_data_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])
    assert exc.value.code == 2


def test_gen_data_bad_values_exit_2(tmp_path):
    assert main(["gen-data", "--classes", "1", "--out", str(tmp_path)]) == 2


def test_gen_data_past_any_array_exits_2_before_any_file(tmp_path, capsys):
    # once a numpy ValueError traceback, exit 1
    out = tmp_path / "data"
    assert main(["gen-data", "--per-class", str(10**20), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("gaplab: error: the samples need ")
    assert not out.exists()


def test_train_on_a_files_dataset_from_gen_data(tmp_path, capsys):
    # the `files` path: gen-data --shape writes a raw CNN dataset, which a
    # smallcnn config trains on, checkpoints and analysis included
    data = tmp_path / "data"
    assert main(["gen-data", "--classes", "3", "--per-class", "20", "--dim", "48",
                 "--shape", "3,4,4", "--out", str(data)]) == 0
    dataset = {"kind": "files", "classes": 3, "shape": [3, 4, 4],
               "train_count": 48, "test_count": 12}
    for part in ("train", "test"):
        for what in ("features", "labels"):
            dataset[f"{part}_{what}"] = str(data / f"{part}_{what}.bin")
    runs = []
    for sub in ("a", "b"):
        cfg = write_config(tmp_path, dataset=dataset, out_dir=str(tmp_path / sub),
                           model={"name": "smallcnn", "channels": [2, 3], "hidden": [4]},
                           split={"fractions": [50, 50], "joint": False})
        assert main(["train", "--config", str(cfg)]) == 0
        runs.append(run_files(tmp_path / sub))
    assert runs[0] == runs[1]
    assert {"seed0/trace.csv", "seed0/lmc.csv", "seed0/path.csv"} <= set(runs[0])
    # 24-sample task pools of the 48 train records, two batches an epoch
    assert read_trace_csv(tmp_path / "a" / "seed0" / "trace.csv").boundaries == [8, 20]
    assert any(name.endswith(".ckpt") for name in runs[0])
    capsys.readouterr()
    for shape in ("3,x", "0,4,4"):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--shape", shape, "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert f"--shape: bad shape '{shape}'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


# --- train ----------------------------------------------------------------------

def test_train_runs_and_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "exp"
    assert (out / "seed0" / "trace.csv").is_file()
    assert (out / "gap.txt").is_file()
    assert (out / "manifest.json").is_file()


def test_train_out_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, seeds=[0, 1])
    alt = tmp_path / "alt"
    assert main(["train", "--config", str(cfg), "--out", str(alt),
                 "--seed", "1"]) == 0
    assert (alt / "seed1" / "trace.csv").is_file()
    assert not (alt / "seed0").exists()


def test_train_missing_config_exit_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_train_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out_dir": "/tmp/x", "sprad": 1}))
    assert main(["train", "--config", str(path)]) == 2


@pytest.mark.parametrize("overrides, code", [
    ({"split": {"fractions": [99.5, 0.5]}}, 2),      # seed-time ArgumentError
    ({"train": dict(CONFIG["train"], lr=1e4)}, 4),   # seed 0 diverges
], ids=["argument-error", "divergence"])
def test_train_seed_error_exit_codes_in_pool(tmp_path, two_cpus, capsys,
                                             overrides, code):
    cfg = write_config(tmp_path, seeds=[0, 2], workers=2, **overrides)
    assert main(["train", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert err.startswith("gaplab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["plain", "warnings-as-errors"])
@pytest.mark.parametrize("workers, forks", [(1, False), (None, True)],
                         ids=["workers-1", "evaluator"])
def test_diverging_train_as_module_prints_one_line(tmp_path, flags, workers, forks):
    # pytest captures the warnings of an in-process run; a fresh interpreter
    # prints what users see. On two CPUs one seed forks an evaluator.
    cfg = write_config(tmp_path, workers=workers, train=dict(CONFIG["train"], lr=1e4))
    script = ("import runpy\n"
              "from gaplab import procs\n"
              "procs.usable_cpus = lambda: 2\n"
              "real = procs.Child.__init__\n"
              "def marked(self, *args):\n"
              "    real(self, *args)\n"
              "    open('forked', 'w').close()\n"
              "procs.Child.__init__ = marked\n"
              "runpy.run_module('gaplab.cli', run_name='__main__')\n")
    src = str(Path(gaplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, *flags, "-c", script, "train", "--config", str(cfg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == "gaplab: error: iteration 36: non-finite values in forward logits\n"
    assert (tmp_path / "forked").exists() == forks


def test_train_as_module_runs_seed_processes(tmp_path):
    # started the way users start it, so a forked seed process must be able
    # to run the package and must not re-run the command
    for sub in ("pool", "serial"):
        (tmp_path / sub).mkdir()
    cfg = write_config(tmp_path / "pool", seeds=[0, 1], workers=2)
    src = str(Path(gaplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-m", "gaplab.cli", "train", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("run complete: ")

    ref = write_config(tmp_path / "serial", seeds=[0, 1], workers=1)
    assert main(["train", "--config", str(ref)]) == 0
    pool_files = run_files(tmp_path / "pool" / "exp")
    assert "seed1/trace.csv" in pool_files
    assert pool_files == run_files(tmp_path / "serial" / "exp")


def test_forked_seeds_leave_multiprocessing_unimported(tmp_path):
    # a fresh interpreter, as users start it: seeds forked from a parent
    # that has not loaded multiprocessing start lean
    cfg = write_config(tmp_path, seeds=[0, 1], workers=2)
    script = ("import runpy, sys\n"
              "from gaplab import procs\n"
              "procs.usable_cpus = lambda: 2\n"
              "real = procs.Child.__init__\n"
              "def marked(self, *args):\n"
              "    real(self, *args)\n"
              "    print('child')\n"
              "procs.Child.__init__ = marked\n"
              "try:\n"
              "    runpy.run_module('gaplab.cli', run_name='__main__')\n"
              "finally:\n"
              "    print([m for m in ('multiprocessing', 'concurrent.futures')\n"
              "           if m in sys.modules])\n")
    src = str(Path(gaplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script, "train", "--config", str(cfg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["child", "child"] and lines[2].startswith("run complete: ")
    assert lines[-1] == "[]"


# --- gap ------------------------------------------------------------------------

def test_gap_reads_trace_and_writes_doc(tmp_path, capsys):
    trace = eval_trace([0.9] * 5, [0.6, 0.7, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, trace)
    out_path = tmp_path / "gap.txt"
    code = main(["gap", "--trace", str(trace_path), "--boundary", "100",
                 "--out", str(out_path)])
    assert code == 0
    doc = out_path.read_text()
    assert "gap_depth = 0.3" in doc
    assert "recovered = true" in doc
    assert capsys.readouterr().out == doc


@pytest.mark.parametrize("post, code", [([0.6] + [0.9] * 7, 0), ([0.5] * 8, 3)])
def test_gap_out_creates_its_directory(tmp_path, capsys, post, code):
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, eval_trace([0.9] * 5, post))
    out_path = tmp_path / "new" / "dir" / "gap.txt"
    assert main(["gap", "--trace", str(trace_path), "--boundary", "100",
                 "--out", str(out_path)]) == code
    assert out_path.read_text() == capsys.readouterr().out


def test_gap_unrecovered_signals_exit_3(tmp_path):
    trace = eval_trace([0.9] * 5, [0.5] * 8)
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, trace)
    assert main(["gap", "--trace", str(trace_path), "--boundary", "100"]) == 3


def test_gap_multiple_traces_median_section(tmp_path, capsys):
    paths = []
    for k, dip in enumerate((0.6, 0.65, 0.7)):
        trace = eval_trace([0.9] * 5, [dip, 0.9, 0.9, 0.9, 0.9, 0.9])
        p = tmp_path / f"t{k}.csv"
        write_trace_csv(p, trace)
        paths += ["--trace", str(p)]
    assert main(["gap", *paths, "--boundary", "100"]) == 0
    out = capsys.readouterr().out
    assert "[seed 0]" in out and "[seed 2]" in out
    assert "[median]" in out
    assert "recovered_count = 3/3" in out


def test_gap_insufficient_trace_exit_3(tmp_path):
    trace = eval_trace([0.9] * 2, [0.5] * 3)
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, trace)
    assert main(["gap", "--trace", str(trace_path), "--boundary", "100"]) == 3


def test_gap_single_task_trace_without_boundary_exit_2(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, TrainTrace([
        TraceRecord(i, 0, 1.0, 0.5, 1.0, 0.5, test_loss=1.0, test_acc=0.5)
        for i in range(1, 6)]))
    assert main(["gap", "--trace", str(trace_path)]) == 2
    assert capsys.readouterr() == ("", f"gaplab: error: {trace_path}: trace has a "
                                       "single task; pass --boundary explicitly\n")


def test_gap_flags_are_the_gap_params():
    # the flags' names and defaults are compute_gap's settings, in field order
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    settings = [a for a in subparsers.choices["gap"]._actions
                if a.dest not in ("help", "trace", "boundary", "out")]
    assert [a.dest for a in settings] == [f.name for f in fields(GapParams)]
    assert tuple(a.default for a in settings) == astuple(GapParams())
    assert [a.type for a in settings] == [int, int, float, int]


def test_gap_corrupt_trace_exit_4(tmp_path):
    bad = tmp_path / "trace.csv"
    bad.write_text("iter,task\n1,0\n")
    assert main(["gap", "--trace", str(bad), "--boundary", "5"]) == 4


@pytest.mark.parametrize("command", ["gap", "report"])
def test_trace_that_is_not_text_exit_4(tmp_path, capsys, command):
    bad = tmp_path / "trace.csv"
    bad.write_bytes(b"iter,task\n\xff\xfe\n")
    args = {"gap": ["gap", "--trace", str(bad)], "report": ["report", "--run", str(tmp_path)]}
    assert main(args[command]) == 4
    assert capsys.readouterr() == ("", f"gaplab: error: {bad}: not UTF-8 text\n")


# --- lmc and report ---------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp)
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp, cfg


def test_lmc_between_checkpoints(trained, tmp_path):
    run_tmp, cfg = trained
    ckpts = sorted((run_tmp / "exp" / "seed0" / "checkpoints").glob("*.ckpt"))
    code = main(["lmc", "--config", str(cfg),
                 "--ckpt-a", str(ckpts[0]), "--ckpt-b", str(ckpts[-1]),
                 "--step", "0.25", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "lmc.csv").is_file()
    svg = (tmp_path / "lmc.svg").read_text()
    assert svg.startswith("<svg")


def test_lmc_with_sgd_path_overlay(trained, tmp_path):
    run_tmp, cfg = trained
    ckpt_dir = run_tmp / "exp" / "seed0" / "checkpoints"
    ckpts = sorted(ckpt_dir.glob("*.ckpt"))
    code = main(["lmc", "--config", str(cfg),
                 "--ckpt-a", str(ckpts[0]), "--ckpt-b", str(ckpts[-1]),
                 "--step", "0.5", "--sgd-path", str(ckpt_dir),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "path.csv").is_file()


def test_lmc_sgd_path_bad_checkpoint_name_exit_4(trained, tmp_path, capsys):
    run_tmp, cfg = trained
    ckpts = sorted((run_tmp / "exp" / "seed0" / "checkpoints").glob("*.ckpt"))
    odd = tmp_path / "odd"
    odd.mkdir()
    (odd / "taskX_iter1.ckpt").write_bytes(ckpts[0].read_bytes())
    code = main(["lmc", "--config", str(cfg),
                 "--ckpt-a", str(ckpts[0]), "--ckpt-b", str(ckpts[-1]),
                 "--sgd-path", str(odd), "--out", str(tmp_path / "figs")])
    assert code == 4
    assert "taskX_iter1.ckpt" in capsys.readouterr().err
    assert not (tmp_path / "figs" / "lmc.csv").exists()


def test_lmc_sgd_path_missing_directory_exit_2(trained, tmp_path, capsys):
    run_tmp, cfg = trained
    ckpts = sorted((run_tmp / "exp" / "seed0" / "checkpoints").glob("*.ckpt"))
    missing = tmp_path / "nonexist" / "deep" / "dir"
    code = main(["lmc", "--config", str(cfg),
                 "--ckpt-a", str(ckpts[0]), "--ckpt-b", str(ckpts[-1]),
                 "--sgd-path", str(missing), "--out", str(tmp_path / "figs")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(missing) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "nonexist").exists()
    assert not (tmp_path / "figs" / "lmc.csv").exists()


def test_lmc_sgd_path_empty_directory_exit_2(trained, tmp_path):
    run_tmp, cfg = trained
    ckpts = sorted((run_tmp / "exp" / "seed0" / "checkpoints").glob("*.ckpt"))
    (tmp_path / "empty").mkdir()
    code = main(["lmc", "--config", str(cfg),
                 "--ckpt-a", str(ckpts[0]), "--ckpt-b", str(ckpts[-1]),
                 "--sgd-path", str(tmp_path / "empty"), "--out", str(tmp_path / "figs")])
    assert code == 2
    assert not (tmp_path / "figs" / "lmc.csv").exists()


# --- lmc over several evaluation processes -----------------------------------------

forks_on_linux = pytest.mark.skipif(sys.platform != "linux",
                                    reason="lmc evaluates in forked processes on Linux only")


def run_lmc(cfg, ckpt_dir, out, capsys, step="0.25", sgd_path=None):
    """Exit code, stdout (with `out` written as OUT), stderr and the files
    written of one `gaplab lmc --sgd-path` run from the first checkpoint of
    `ckpt_dir` to its last."""
    ckpts = sorted(ckpt_dir.glob("*.ckpt"))
    code = main(["lmc", "--config", str(cfg), "--ckpt-a", str(ckpts[0]),
                 "--ckpt-b", str(ckpts[-1]), "--step", step,
                 "--sgd-path", str(sgd_path or ckpt_dir), "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, stdout.replace(str(out), "OUT"), stderr, files


def mark_eval_processes(monkeypatch, marks):
    """Patch `connectivity.eval_test` so that each evaluation leaves a file
    named after the process that ran it; forked children inherit the patch."""
    marks.mkdir(parents=True)
    real = connectivity.eval_test

    def marked(*args):
        (marks / str(os.getpid())).touch()
        return real(*args)

    monkeypatch.setattr(connectivity, "eval_test", marked)


@forks_on_linux
@pytest.mark.parametrize("step, grid", [("0.25", 5), ("0.5", 3)])
def test_lmc_bytes_do_not_depend_on_evaluation_processes(trained, tmp_path, monkeypatch,
                                                         capsys, step, grid):
    # 49 path checkpoints and a 5-point grid do not split evenly over 2 or
    # 3 processes; the 3-point grid of step 0.5 has fewer points than 4
    run_tmp, cfg = trained
    ckpt_dir = run_tmp / "exp" / "seed0" / "checkpoints"
    assert len(list(ckpt_dir.glob("*.ckpt"))) == 49
    runs = {}
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
        marks = tmp_path / "marks" / str(cpus)
        mark_eval_processes(monkeypatch, marks)
        runs[cpus] = run_lmc(cfg, ckpt_dir, tmp_path / str(cpus), capsys, step)
        assert not running_children()
        # one forked child per slice of the grid and of the path, and this
        # process only where nothing forks
        assert len(list(marks.iterdir())) == (min(cpus, grid) + cpus if cpus > 1 else 1)
    code, stdout, stderr, files = runs[1]
    assert code == 0 and stderr == "" and stdout.startswith("wrote OUT/lmc.csv")
    assert sorted(files) == ["lmc.csv", "lmc.svg", "path.csv"]
    for cpus in (2, 3, 4):
        assert runs[cpus] == runs[1], cpus


@forks_on_linux
def test_lmc_truncated_checkpoint_in_a_worker_slice_exit_4(trained, tmp_path, monkeypatch,
                                                          capsys):
    run_tmp, cfg = trained
    ckpt_dir = run_tmp / "exp" / "seed0" / "checkpoints"
    bad = tmp_path / "bad"
    shutil.copytree(ckpt_dir, bad)
    # over 3 processes the 49 checkpoints split 16/16/17: one bad file in each
    # child's slice, and the lower one must be reported, as in one process
    ckpts = sorted(bad.glob("*.ckpt"))
    for ckpt in (ckpts[20], ckpts[40]):
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
    runs = {}
    for cpus in (1, 3):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
        runs[cpus] = run_lmc(cfg, ckpt_dir, tmp_path / "figs", capsys, sgd_path=bad)
        assert not running_children()
    code, stdout, stderr, files = runs[1]
    assert code == 4 and stdout == "" and files == {}
    assert len(stderr.splitlines()) == 1 and ckpts[20].name in stderr
    assert runs[3] == runs[1]


@forks_on_linux
def test_lmc_killed_worker_exit_4(trained, tmp_path, monkeypatch, capsys):
    run_tmp, cfg = trained
    parent = os.getpid()
    real = connectivity.eval_test

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(connectivity, "eval_test", dies_in_a_child)
    code, stdout, stderr, files = run_lmc(cfg, run_tmp / "exp" / "seed0" / "checkpoints",
                                          tmp_path / "figs", capsys)
    assert not running_children()
    assert code == 4 and stdout == "" and files == {}
    assert stderr == "gaplab: error: an evaluation process died (killed by signal 9)\n"


@forks_on_linux
def test_lmc_evaluates_in_at_most_workers_processes(trained, tmp_path, monkeypatch, capsys):
    run_tmp, cfg = trained
    ckpt_dir = run_tmp / "exp" / "seed0" / "checkpoints"
    capped = tmp_path / "workers1.json"
    capped.write_text(json.dumps(dict(json.loads(cfg.read_text()), workers=1)))
    children, real = [], procs.Child.__init__

    def counted(self, *args):
        children.append(self)
        real(self, *args)

    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(procs.Child, "__init__", counted)
    uncapped = run_lmc(cfg, ckpt_dir, tmp_path / "figs", capsys)
    assert children  # two CPUs and no cap: the slices are forked
    children.clear()
    assert run_lmc(capped, ckpt_dir, tmp_path / "figs", capsys) == uncapped
    assert children == []


@forks_on_linux
def test_lmc_as_module_prints_one_wrote_line(trained, tmp_path):
    # `python -m gaplab.cli` on two CPUs: a forked child that returned into
    # `main` would print a second line
    run_tmp, cfg = trained
    ckpt_dir = run_tmp / "exp" / "seed0" / "checkpoints"
    ckpts = sorted(ckpt_dir.glob("*.ckpt"))
    argv = ["lmc", "--config", str(cfg), "--ckpt-a", str(ckpts[0]),
            "--ckpt-b", str(ckpts[-1]), "--sgd-path", str(ckpt_dir)]
    script = ("import os, runpy\n"
              "from gaplab import connectivity, procs\n"
              "procs.usable_cpus = lambda: 2\n"
              "real = connectivity.eval_test\n"
              "def marked(*args):\n"
              "    open(os.path.join('marks', str(os.getpid())), 'w').close()\n"
              "    return real(*args)\n"
              "connectivity.eval_test = marked\n"
              "runpy.run_module('gaplab.cli', run_name='__main__')\n")
    (tmp_path / "forked" / "marks").mkdir(parents=True)
    src = str(Path(gaplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script, *argv, "--out", "."],
                          cwd=tmp_path / "forked", env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["wrote ./lmc.csv (101 points) and ./lmc.svg"]
    # two children each for the grid and the path, and none of it here
    assert len(list((tmp_path / "forked" / "marks").iterdir())) == 4
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    for name in ("lmc.csv", "path.csv", "lmc.svg"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_report_renders_figures(trained):
    run_tmp, _ = trained
    run_dir = run_tmp / "exp" / "seed0"
    assert main(["report", "--run", str(run_dir)]) == 0
    for name in ("accuracy.svg", "probe.svg", "lmc.svg"):
        assert (run_dir / name).is_file(), name


def test_report_missing_trace_exit_2(tmp_path):
    assert main(["report", "--run", str(tmp_path)]) == 2


def test_report_trace_without_evaluations_exit_3(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace_path, TrainTrace([
        TraceRecord(i, 0, 1.0, 0.5, 1.0, 0.5) for i in range(1, 6)]))
    out = tmp_path / "figures"
    assert main(["report", "--run", str(tmp_path), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"gaplab: {trace_path}: trace has no "
                                       "evaluation records\n")
    assert not out.exists()


def test_report_without_lmc_exit_2_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, checkpoints=False)
    assert main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "exp" / "seed0"
    assert not (run_dir / "lmc.csv").exists()
    out = tmp_path / "figures"
    assert main(["report", "--run", str(run_dir), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_report_when_theta2_is_past_the_second_task_names_both_conditions(tmp_path, capsys):
    # checkpoints on, but theta2 (5 epochs into task 2) lies past its 2 epochs:
    # the advice once named only the checkpoints
    cfg = write_config(tmp_path, train=dict(CONFIG["train"], epochs_per_task=[4, 2]))
    assert main(["train", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "exp" / "seed0"
    assert (run_dir / "checkpoints").is_dir() and not (run_dir / "lmc.csv").exists()
    capsys.readouterr()
    assert main(["report", "--run", str(run_dir)]) == 2
    assert capsys.readouterr() == ("", (
        f"gaplab: error: {run_dir}: no lmc.csv; re-run train with checkpoints enabled "
        "and a second task of at least analysis.theta2_epochs epochs\n"))


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- process footprint --------------------------------------------------------------

FOOTPRINT_SCRIPT = """\
import sys
from pathlib import Path
from gaplab import procs
procs.usable_cpus = lambda: 1  # every command's code runs in this process
from gaplab.cli import main
cfg, run = sys.argv[1], Path(sys.argv[2])
ckpts, trace = run / "checkpoints", str(run / "trace.csv")
assert main(["gen-data", "--classes", "3", "--per-class", "20", "--dim", "4",
             "--out", "data"]) == 0
assert main(["train", "--config", cfg]) == 0
assert main(["lmc", "--config", cfg, "--ckpt-a", str(min(ckpts.glob("*.ckpt"))),
             "--ckpt-b", str(max(ckpts.glob("*.ckpt"))), "--sgd-path", str(ckpts),
             "--out", "lmc"]) == 0
assert main(["gap", "--trace", trace, "--trace", trace]) == 0
assert main(["report", "--run", str(run)]) == 0
print(sorted(m for m in ("_hashlib", "hashlib", "_decimal", "statistics") if m in sys.modules))
"""


def test_commands_load_neither_openssl_nor_decimal(tmp_path):
    # hashlib's OpenSSL and statistics' decimal would cost every gaplab
    # process about 4 MB resident; a fresh interpreter runs each command here
    cfg = write_config(tmp_path, workers=1)
    src = str(Path(gaplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(cfg),
                           str(tmp_path / "exp" / "seed0")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lmc" / "path.csv").is_file()
    assert done.stdout.splitlines()[-1] == "[]"
