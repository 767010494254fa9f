"""Values that must not move across commits: the config hash of the
README quick-start, the model-spec digests that every checkpoint header
carries, where theta2 lands when it falls off the checkpoint cadence, the
path and LMC curve bytes, and the artifact bytes of a small smallcnn run."""

import csv
import hashlib
from pathlib import Path

import pytest

from gaplab import connectivity, trainer
from gaplab.config import AnalysisConfig, ExperimentConfig, ModelConfig, build_model_spec, load
from gaplab.connectivity import lambda_grid
from gaplab.experiment import run_experiment
from gaplab.trainer import CheckpointStore

QUICKSTART = {
    "dataset": {"kind": "blobs", "classes": 8, "per_class": 250,
                "dim": 32, "spread": 8.0},
    "model": {"name": "mlp", "hidden": [128, 64]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"lr": 0.01, "epochs_per_task": [100, 20]},
    "analysis": {},
    "out_dir": "runs/demo",
    "seeds": [0, 1, 2],
    "checkpoints": True,
}


def test_quickstart_config_hash():
    assert ExperimentConfig.from_dict(QUICKSTART).hash() == (
        "1c737ab596f84296ad3fbfabeb799a3af3c088fa6c6a5fc2ef6581599955c46c")


@pytest.mark.parametrize("model, input_shape, digest", [
    ({"name": "mlp"}, (32,),
     "15f6d92c392ec7e71875fbaf083635d237ad923914db21b2563d47809b774c81"),
    ({"name": "mlp"}, (2, 4, 4),
     "accc7b49fd12e10e2a5b88195732bcc8119b383236872d0f6e799141a50ffb52"),
    ({"name": "smallcnn", "hidden": [64]}, (3, 8, 8),
     "e76c30cab34c0c7008ae55243bfb9b9378a0fbfb76e257b728cb8cb79f625099"),
])
def test_model_spec_digest(model, input_shape, digest):
    spec = build_model_spec(load(ModelConfig, model, "model"), input_shape, 8)
    assert spec.digest == digest


# pools of 48 and 96 samples at batch 16: task 1 ends at iteration 12, and
# theta2 lies 5 six-batch epochs into task 2, at iteration 42. That is 30
# iterations into the task, which the every-7 cadence does not checkpoint.
OFF_CADENCE = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4,
                "spread": 1.0},
    "model": {"name": "mlp", "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 9], "dense_window": 0,
              "dense_tail": 0, "checkpoint_every": 7},
    "analysis": {"window": 100},
    "seeds": [0],
}


def run_seed0(tmp_path, raw=OFF_CADENCE, **train):
    raw = dict(raw, out_dir=str(tmp_path / "exp"), train=dict(raw["train"], **train))
    return run_experiment(ExperimentConfig.from_dict(raw)) / "seed0"


def test_theta2_checkpoint_off_the_cadence(tmp_path):
    run_dir = run_seed0(tmp_path)
    iterations = CheckpointStore.open(run_dir / "checkpoints").iterations()
    assert 42 in iterations
    assert 41 not in iterations and 43 not in iterations
    with open(run_dir / "path.csv", newline="") as fh:
        path_iterations = [int(row[0]) for row in list(csv.reader(fh))[1:]]
    assert path_iterations[0] == 12
    assert path_iterations[-1] == 42
    assert (run_dir / "lmc.csv").is_file()


# OFF_CADENCE on the default cadence: its dense window evaluates every
# iteration, so every path.csv row can come from the trace
DEFAULT_CADENCE = dict(OFF_CADENCE, train={"batch_size": 16, "epochs_per_task": [4, 9]})


# taken before train took path rows from its trace: OFF_CADENCE's path mixes
# trace rows with rows evaluated from checkpoints, DEFAULT_CADENCE's path is
# all trace rows. Both runs train the same parameters, so lmc.csv is shared.
LMC_SHA256 = "8b0d6929092166230b7b8bb03aaf7d9c43fef524f8ca52a10873faf7898876da"


@pytest.mark.parametrize("raw, path_sha256", [
    (OFF_CADENCE, "c9376b7bf91ef67f5e15531adcf5477f11075fad09901542668cbb3956a4601c"),
    (DEFAULT_CADENCE, "922bebbc9b94b07e3ca0c76e862405b1760e8030745322f83e8cdfdfc8688b12"),
], ids=["off-cadence", "default-cadence"])
def test_path_and_lmc_bytes(tmp_path, raw, path_sha256):
    run_dir = run_seed0(tmp_path, raw)
    assert hashlib.sha256((run_dir / "path.csv").read_bytes()).hexdigest() == path_sha256
    assert hashlib.sha256((run_dir / "lmc.csv").read_bytes()).hexdigest() == LMC_SHA256


def test_train_reads_back_only_theta1_and_theta2(tmp_path, monkeypatch):
    loads, evals = [], []

    def spy(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer, "load_checkpoint", spy(loads, trainer.load_checkpoint))
    monkeypatch.setattr(connectivity, "eval_test", spy(evals, connectivity.eval_test))
    run_dir = run_seed0(tmp_path, DEFAULT_CADENCE)
    assert [Path(args[0]).name for args in loads] == [
        "task0_iter0000012.ckpt", "task1_iter0000042.ckpt"]
    # the LMC grid and nothing else: every path row came from the trace
    assert len(evals) == len(lambda_grid(AnalysisConfig.lmc_step))
    assert len((run_dir / "path.csv").read_text().splitlines()) == 1 + 42 - 12 + 1


def test_no_lmc_when_theta2_lies_past_task_two(tmp_path):
    # four task-2 epochs end at iteration 36, before theta2 at 42
    run_dir = run_seed0(tmp_path, epochs_per_task=[4, 4])
    assert (run_dir / "trace.csv").is_file()
    assert not (run_dir / "lmc.csv").exists()
    assert not (run_dir / "path.csv").exists()


# a two-block smallcnn, one seed, every checkpoint kept: each pool sees
# post-ReLU zero ties, and the second conv's dx flows back through the first
# block. The digests were taken before the conv/pool kernels went
# channels-last and argmax-free, and pin that those kernels move no bit. They
# depend on the order in which BLAS sums, so a numpy upgrade may move them.
SMALL_CNN = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 192,
                "spread": 1.0, "shape": [3, 8, 8]},
    "model": {"name": "smallcnn", "channels": [4, 8], "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 6]},
    "analysis": {"window": 100},
    "seeds": [0],
    "checkpoints": True,
}


def test_smallcnn_run_bytes(tmp_path):
    out = run_experiment(ExperimentConfig.from_dict(
        dict(SMALL_CNN, out_dir=str(tmp_path / "exp"))))
    run_dir = out / "seed0"
    last = max((run_dir / "checkpoints").glob("*.ckpt"))
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in
               (("trace.csv", run_dir / "trace.csv"), ("gap.txt", run_dir / "gap.txt"),
                (last.name, last))}
    assert digests == {
        "trace.csv": "fd8e3e944dd46b12907c43bd351e1f93c78c7e402c9ee05829d830b4cac01c7d",
        "gap.txt": "6efa7534ebdbd89f8e568585ceab6b003eb0750c7a5cf1d6b42bf00eefebc4ea",
        "task1_iter0000048.ckpt":
            "0acf50668e777a2ebcdea375eae3af49382e488224be09a6b717e587c8bb3565",
    }
