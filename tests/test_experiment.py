"""End-to-end experiment runner: artifact layout and parallel equivalence."""

import json
import os

import pytest

from gaplab import experiment
from gaplab.config import ExperimentConfig
from gaplab.errors import ArgumentError, DivergenceError
from gaplab.experiment import build_dataset, build_model_spec, run_experiment

from conftest import run_files

# pools of 48/96 samples at batch 16: 3 then 6 iterations per epoch; with
# 6 task-B epochs the theta2 checkpoint (5 epochs in) exists
SMALL = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4,
                "spread": 1.0},
    "model": {"name": "mlp", "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 6],
              "dense_window": 400, "dense_tail": 5},
    "analysis": {"window": 100},
    "seeds": [0, 1],
    "checkpoints": True,
}


# at this learning rate seeds 0 and 3 diverge and seed 2 trains to the end
DIVERGING_LR = 1e4


def config(tmp_path, **overrides):
    raw = dict(SMALL, out_dir=str(tmp_path / "exp"))
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_run_experiment_artifact_layout(tmp_path):
    cfg = config(tmp_path)
    out = run_experiment(cfg)
    for name in ("config.json", "manifest.json", "gap.txt"):
        assert (out / name).is_file(), name
    for seed in (0, 1):
        run_dir = out / f"seed{seed}"
        assert (run_dir / "trace.csv").is_file()
        assert (run_dir / "gap.txt").is_file()
        assert (run_dir / "lmc.csv").is_file()
        assert (run_dir / "path.csv").is_file()
        assert any((run_dir / "checkpoints").glob("task*_iter*.ckpt"))


def test_manifest_lists_artifacts_and_hash(tmp_path):
    cfg = config(tmp_path)
    out = run_experiment(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.hash()
    listed = set(manifest["artifacts"])
    assert "config.json" in listed
    assert "seed0/trace.csv" in listed and "seed1/trace.csv" in listed
    assert "gap.txt" in listed
    # written config is canonical and reparses to the same hash
    text = (out / "config.json").read_text()
    assert ExperimentConfig.from_json(text).hash() == cfg.hash()


def test_workers_do_not_change_results(tmp_path, monkeypatch):
    a = run_experiment(config(tmp_path / "single", workers=1))
    auto = run_experiment(config(tmp_path / "auto"))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    environ = dict(os.environ)
    b = run_experiment(config(tmp_path / "multi", workers=2))
    assert dict(os.environ) == environ
    for seed in (0, 1):
        ta = (a / f"seed{seed}" / "trace.csv").read_bytes()
        tb = (b / f"seed{seed}" / "trace.csv").read_bytes()
        assert ta == tb
    assert (a / "gap.txt").read_bytes() == (b / "gap.txt").read_bytes()
    files = run_files(a)
    for name in ("gap.txt", "seed0/lmc.csv", "seed1/path.csv", "seed1/gap.txt"):
        assert name in files
    assert sum(name.endswith(".ckpt") for name in files) > 2
    assert run_files(b) == files
    assert run_files(auto) == files


def test_blas_thread_overlay_keeps_user_settings(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    with experiment._one_blas_thread_env():
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["MKL_NUM_THREADS"] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "3"
    assert dict(os.environ) == environ


def test_pool_size(monkeypatch):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 4)
    cases = [([0], None, 1), ([0, 1, 2], None, 3), (list(range(6)), None, 4),
             (list(range(6)), 2, 2), ([0, 1], 8, 2), ([0, 1, 2], 1, 1)]
    for seeds, workers, size in cases:
        cfg = ExperimentConfig.from_dict(
            dict(SMALL, out_dir="/tmp/x", seeds=seeds, workers=workers))
        assert experiment._pool_size(cfg) == size, (seeds, workers)


def test_workers_stay_out_of_config_and_hash(tmp_path):
    one = config(tmp_path, workers=1)
    assert one.hash() == config(tmp_path, workers=2).hash() == config(tmp_path).hash()
    assert "workers" not in one.to_dict()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_failing_seed_does_not_stop_the_others(tmp_path, two_cpus, workers):
    cfg = config(tmp_path, workers=workers, seeds=[0, 2, 3], checkpoints=False,
                 train=dict(SMALL["train"], lr=DIVERGING_LR))
    with pytest.raises(DivergenceError) as raised:
        run_experiment(cfg)
    out = tmp_path / "exp"
    manifest = json.loads((out / "manifest.json").read_text())
    status = manifest["seeds"]
    assert sorted(status) == ["0", "2", "3"]
    # the first failing seed's error is the one raised
    assert status["0"] == f"DivergenceError: {raised.value}"
    assert status["2"] == "ok"
    assert status["3"].startswith("DivergenceError: ")
    assert "seed2/trace.csv" in manifest["artifacts"]
    assert (out / "seed2" / "gap.txt").is_file()
    assert "[seed 2]" in (out / "gap.txt").read_text()
    present = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    assert manifest["artifacts"] == present


def test_no_checkpoints_flag_skips_lmc(tmp_path):
    out = run_experiment(config(tmp_path, checkpoints=False))
    run_dir = out / "seed0"
    assert (run_dir / "trace.csv").is_file()
    assert not (run_dir / "checkpoints").exists()
    assert not (run_dir / "lmc.csv").exists()


def test_build_dataset_blobs_and_model_spec():
    cfg = ExperimentConfig.from_dict(dict(SMALL, out_dir="/tmp/x"))
    train, test = build_dataset(cfg.dataset, seed=0)
    assert train.n == 96 and test.n == 24
    spec = build_model_spec(cfg.model, train.features.shape[1:], train.n_classes)
    assert spec.input_shape == (4,) and spec.n_classes == 3


def test_build_model_spec_rejects_cnn_on_flat_data():
    cfg = ExperimentConfig.from_dict(
        dict(SMALL, out_dir="/tmp/x", model={"name": "smallcnn"}))
    with pytest.raises(ArgumentError):
        build_model_spec(cfg.model, (4,), 3)
