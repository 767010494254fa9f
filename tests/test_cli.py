"""Command line surface: artifacts, determinism, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab
from gaplab.cli import main
from gaplab.instrument import write_trace_csv

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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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


def test_train_as_module_runs_seed_processes(tmp_path):
    # started the way users start it, so a spawned seed process must be
    # able to import the package and must not re-run the command
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


def test_gap_corrupt_trace_exit_4(tmp_path):
    bad = tmp_path / "trace.csv"
    bad.write_text("iter,task\n1,0\n")
    assert main(["gap", "--trace", str(bad), "--boundary", "5"]) == 4


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


def test_report_renders_figures(trained):
    run_tmp, _ = trained
    run_dir = run_tmp / "exp" / "seed0"
    assert main(["report", "--run", str(run_dir)]) == 0
    for name in ("accuracy.svg", "probe.svg", "lmc.svg"):
        assert (run_dir / name).is_file(), name


def test_report_missing_trace_exit_2(tmp_path):
    assert main(["report", "--run", str(tmp_path)]) == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
