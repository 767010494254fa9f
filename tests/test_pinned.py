"""Values that must not move across commits: the config hash of the
README quick-start, the model-spec digests that every checkpoint header
carries, and where theta2 lands when it falls off the checkpoint cadence."""

import csv

import pytest

from gaplab.config import ExperimentConfig, ModelConfig
from gaplab.experiment import build_model_spec, run_experiment
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
    spec = build_model_spec(ModelConfig.from_dict(model), input_shape, 8)
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


def run_seed0(tmp_path, **train):
    raw = dict(OFF_CADENCE, out_dir=str(tmp_path / "exp"),
               train=dict(OFF_CADENCE["train"], **train))
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


def test_no_lmc_when_theta2_lies_past_task_two(tmp_path):
    # four task-2 epochs end at iteration 36, before theta2 at 42
    run_dir = run_seed0(tmp_path, epochs_per_task=[4, 4])
    assert (run_dir / "trace.csv").is_file()
    assert not (run_dir / "lmc.csv").exists()
    assert not (run_dir / "path.csv").exists()
