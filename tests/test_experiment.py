"""End-to-end experiment runner: artifact layout and parallel equivalence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab
from gaplab import experiment
from gaplab.config import ExperimentConfig, ModelConfig, build_model_spec
from gaplab.errors import ArgumentError, DivergenceError
from gaplab.experiment import build_dataset, run_experiment

from conftest import run_files, running_children

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


# a conv model on [C, H, W] blobs: in-process seeds run BLAS with the threads
# this process started with (conftest imports numpy before gaplab), seed
# processes with the one thread that importing gaplab asks for
SMALL_CNN = {
    "dataset": dict(SMALL["dataset"], dim=48, shape=[3, 4, 4]),
    "model": {"name": "smallcnn", "channels": [4], "hidden": [8]},
}


def test_workers_do_not_change_results(tmp_path, monkeypatch):
    for model, overrides in (("mlp", {}), ("smallcnn", SMALL_CNN)):
        with monkeypatch.context() as patch:
            a = run_experiment(config(tmp_path / model / "single", workers=1, **overrides))
            auto = run_experiment(config(tmp_path / model / "auto", **overrides))
            patch.setattr(experiment, "_usable_cpus", lambda: 2)
            environ = dict(os.environ)
            b = run_experiment(config(tmp_path / model / "multi", workers=2, **overrides))
        assert dict(os.environ) == environ
        for seed in (0, 1):
            ta = (a / f"seed{seed}" / "trace.csv").read_bytes()
            tb = (b / f"seed{seed}" / "trace.csv").read_bytes()
            assert ta == tb, model
        assert (a / "gap.txt").read_bytes() == (b / "gap.txt").read_bytes()
        files = run_files(a)
        for name in ("gap.txt", "seed0/lmc.csv", "seed1/path.csv", "seed1/gap.txt"):
            assert name in files, model
        assert sum(name.endswith(".ckpt") for name in files) > 2
        assert run_files(b) == files, model
        assert run_files(auto) == files, model


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports gaplab in a fresh interpreter and prints, as JSON: the thread
# variables at the moment numpy's import began, after the import, and the
# thread count of the OpenBLAS that numpy loaded (null if not found).
THREAD_PROBE = """
import ctypes, json, os, sys
VARS = %r
at_numpy_import = {}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy_import:
            at_numpy_import.update({k: os.environ.get(k) for k in VARS})

sys.meta_path.insert(0, Watch())
import gaplab
threads = None
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
for lib in libs:
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        threads = get()
print(json.dumps({"at_numpy_import": at_numpy_import, "threads": threads,
                  "env": {k: os.environ.get(k) for k in VARS}}))
""" % (BLAS_THREAD_VARS,)


def clean_env(**blas_vars):
    """This environment less the BLAS thread variables (which importing
    gaplab here has set), plus `blas_vars`, with the package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_vars, PYTHONPATH=str(Path(gaplab.__file__).resolve().parents[1]))
    return env


def test_import_sets_one_blas_thread_unless_the_user_set_it():
    def probe(**blas_vars):
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=clean_env(**blas_vars),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    found = probe()
    if found["threads"] is None:
        pytest.skip("numpy's OpenBLAS does not export scipy_openblas_get_num_threads64_")
    ones = dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert found == {"at_numpy_import": ones, "threads": 1, "env": ones}

    found = probe(OMP_NUM_THREADS="3")
    assert found["env"] == dict(ones, OMP_NUM_THREADS="3")
    assert found["at_numpy_import"] == found["env"]
    assert found["threads"] == 1

    found = probe(OPENBLAS_NUM_THREADS="2")
    assert found["env"] == dict(ones, OPENBLAS_NUM_THREADS="2")
    # OpenBLAS caps the count at the CPUs this process may use
    assert found["threads"] == min(2, len(os.sched_getaffinity(0)))


def test_blas_threads_do_not_change_a_cli_run(tmp_path):
    # one seed trains in the CLI's own process, with one BLAS thread unless
    # the user asks for more; both must write the same bytes
    runs = {}
    for name, blas_vars in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        raw = dict(SMALL, **SMALL_CNN, seeds=[0], checkpoints=True,
                   out_dir=str(tmp_path / name / "exp"))
        path = tmp_path / name / "config.json"
        path.parent.mkdir()
        path.write_text(json.dumps(raw))
        done = subprocess.run([sys.executable, "-m", "gaplab.cli", "train", "--config", str(path)],
                              env=clean_env(**blas_vars), capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        runs[name] = run_files(tmp_path / name / "exp")
    assert sum(name.endswith(".ckpt") for name in runs["default"]) > 2
    assert runs["two"] == runs["default"]


def test_pool_size(monkeypatch):
    def pool_size(cpus, seeds, workers):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        return experiment._pool_size(ExperimentConfig.from_dict(
            dict(SMALL, out_dir="/tmp/x", seeds=seeds, workers=workers)))

    cases = [([0], None, 1), ([0, 1, 2], None, 3), (list(range(6)), None, 6),
             (list(range(6)), 2, 2), ([0, 1], 8, 2), ([0, 1, 2], 1, 1)]
    for seeds, workers, size in cases:
        assert pool_size(4, seeds, workers) == size, (seeds, workers)
    # the seeds spread evenly over floor(seeds / cpus) rounds
    even = [(2, n, size) for n, size in zip(range(1, 8), (1, 2, 3, 2, 3, 2, 3))]
    for cpus, n, size in even + [(1, 3, 1), (4, 9, 5)]:
        assert pool_size(cpus, list(range(n)), None) == size, (cpus, n)
        for workers in range(1, size + 2):
            assert pool_size(cpus, list(range(n)), workers) == min(size, workers), \
                (cpus, n, workers)


def test_three_seeds_on_two_cpus_run_in_one_round(tmp_path, two_cpus):
    cfg = config(tmp_path / "pool", seeds=[0, 1, 2])
    assert experiment._pool_size(cfg) == 3
    pool = run_experiment(cfg)
    assert not running_children()  # the pool reaped its three processes
    single = run_experiment(config(tmp_path / "single", seeds=[0, 1, 2], workers=1))
    files = run_files(single)
    assert sum(name.endswith(".ckpt") for name in files) > 3
    assert run_files(pool) == files
    manifest = json.loads((pool / "manifest.json").read_text())
    assert manifest["seeds"] == {"0": "ok", "1": "ok", "2": "ok"}


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
    cfg = ModelConfig.from_dict({"name": "smallcnn"})
    with pytest.raises(ArgumentError):
        build_model_spec(cfg, (4,), 3)
