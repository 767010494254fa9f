"""End-to-end experiment runner: artifact layout and parallel equivalence."""

import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import termios
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaplab
from gaplab import experiment, instrument, procs, trainer
from gaplab.autodiff import init_params
from gaplab.cli import main
from gaplab.config import ExperimentConfig, ModelConfig, build_model_spec, load
from gaplab.data import Dataset
from gaplab.errors import ArgumentError, DivergenceError, GapLabError
from gaplab.experiment import build_dataset, run_experiment
from gaplab.instrument import TraceRecorder
from gaplab.rng import derive_seed

from conftest import run_files, running_children
from test_pinned import SMALL_CNN as TWO_BLOCK_CNN

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


def test_manifest_records_the_cpu_paths(tmp_path):
    # the BLAS kernel and numpy's exp/log loops move a checkpoint's last bits
    out = run_experiment(config(tmp_path))
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    for key in ("openblas_core", "openblas_config", "numpy_exp_float64", "numpy_log_float64"):
        assert key in versions
        assert versions[key] is None or isinstance(versions[key], str)


def test_rerun_into_an_existing_out_dir_starts_each_seed_afresh(tmp_path):
    # a seed directory is recreated: no file of an earlier run survives,
    # not even a checkpoint the new schedule would never write
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL, seeds=[0], out_dir=str(tmp_path / "exp"))))
    out = tmp_path / "exp"

    def files():
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    assert main(["train", "--config", str(path)]) == 0
    first = files()
    ckpts = out / "seed0" / "checkpoints"
    (out / "seed0" / "stale.txt").write_text("left by an earlier run\n")
    (ckpts / "task9_iter9999999.ckpt").write_bytes(min(ckpts.glob("*.ckpt")).read_bytes())
    assert main(["train", "--config", str(path)]) == 0
    assert files() == first
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(first)


def test_rerun_without_gap_metrics_leaves_no_aggregate_gap(tmp_path):
    # 1000 baseline evaluations are more than the trace holds, so the second
    # run yields no gap metrics, and the first run's aggregate must go
    out = run_experiment(config(tmp_path, seeds=[0]))
    assert (out / "gap.txt").is_file()
    again = run_experiment(config(tmp_path, seeds=[0],
                                  analysis={"window": 100, "baseline_evals": 1000}))
    assert again == out and not (out / "gap.txt").exists()
    assert not (out / "seed0" / "gap.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == {"0": "ok"}
    assert "gap.txt" not in manifest["artifacts"]


# a conv model on [C, H, W] blobs, in-process and in seed processes
SMALL_CNN = {
    "dataset": dict(SMALL["dataset"], dim=48, shape=[3, 4, 4]),
    "model": {"name": "smallcnn", "channels": [4], "hidden": [8]},
}


def test_workers_do_not_change_results(tmp_path, monkeypatch):
    for model, overrides in (("mlp", {}), ("smallcnn", SMALL_CNN)):
        with monkeypatch.context() as patch:
            a = run_experiment(config(tmp_path / model / "single", workers=1, **overrides))
            auto = run_experiment(config(tmp_path / model / "auto", **overrides))
            patch.setattr(procs, "usable_cpus", lambda: 2)
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

# Imports gaplab, then one numeric submodule (importing gaplab alone loads no
# numpy), in a fresh interpreter and prints, as JSON: whether gaplab alone
# loaded numpy, the thread variables at the moment numpy's import began, after
# the import, and the thread count of the OpenBLAS that numpy loaded (null if
# not found).
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
numpy_with_gaplab = "numpy" in sys.modules
import gaplab.rng
threads = None
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
for lib in libs:
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        threads = get()
print(json.dumps({"numpy_with_gaplab": numpy_with_gaplab,
                  "at_numpy_import": at_numpy_import, "threads": threads,
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
    assert found.pop("numpy_with_gaplab") is False
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


# A program that loads numpy before gaplab, so that a forked seed would
# inherit BLAS on numpy's default threads: every seed leaves marks/seed<k>
# with the PID that ran it, and the program prints its own.
NUMPY_FIRST = """
import os, sys
from pathlib import Path

import numpy
from gaplab import experiment, procs
from gaplab.config import ExperimentConfig

MARKS = Path(__file__).parent / "marks"
real = experiment.run_single_seed

def marked(cfg, seed, run_dir):
    (MARKS / f"seed{seed}").write_text(str(os.getpid()))
    return real(cfg, seed, run_dir)

experiment.run_single_seed = marked
procs.usable_cpus = lambda: 2
experiment.run_experiment(ExperimentConfig.from_json(Path(sys.argv[1]).read_text()))
print(os.getpid())
"""


def test_seeds_of_a_program_that_loads_numpy_first_run_in_its_process(tmp_path):
    script = tmp_path / "numpy_first.py"
    script.write_text(NUMPY_FIRST)
    (tmp_path / "marks").mkdir()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SMALL, out_dir=str(tmp_path / "exp"))))
    done = subprocess.run([sys.executable, str(script), str(cfg)], env=clean_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    pids = {p.name: int(p.read_text()) for p in (tmp_path / "marks").iterdir()}
    assert pids == {"seed0": int(done.stdout), "seed1": int(done.stdout)}
    single = run_experiment(config(tmp_path / "single", workers=1))
    assert run_files(tmp_path / "exp") == run_files(single)


def test_pool_size(monkeypatch):
    def pool_size(cpus, seeds, workers):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
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


def mark_seed_processes(monkeypatch, marks):
    """Patch `run_single_seed` in this process so that each seed leaves a
    file naming the process that ran it; a forked seed process inherits the
    patch."""
    marks.mkdir()
    real = experiment.run_single_seed

    def marked(cfg, seed, run_dir):
        (marks / f"seed{seed}").write_text(str(os.getpid()))
        return real(cfg, seed, run_dir)

    monkeypatch.setattr(experiment, "run_single_seed", marked)


@pytest.mark.skipif(sys.platform != "linux", reason="seed processes are forked on Linux only")
def test_seed_processes_are_forked_when_only_one_thread_runs(tmp_path, two_cpus, monkeypatch):
    single = run_experiment(config(tmp_path / "single", workers=1))
    mark_seed_processes(monkeypatch, tmp_path / "marks")
    assert threading.active_count() == 1
    pool = run_experiment(config(tmp_path / "pool"))
    assert not running_children()
    pids = {p.name: int(p.read_text()) for p in (tmp_path / "marks").iterdir()}
    assert sorted(pids) == ["seed0", "seed1"]
    assert os.getpid() not in pids.values()
    assert run_files(pool) == run_files(single)


def test_seeds_run_in_this_process_while_another_thread_runs(tmp_path, two_cpus,
                                                              monkeypatch):
    single = run_experiment(config(tmp_path / "single", workers=1))
    mark_seed_processes(monkeypatch, tmp_path / "marks")
    stop = threading.Event()
    idle = threading.Thread(target=stop.wait)
    idle.start()
    try:
        pool = run_experiment(config(tmp_path / "pool"))
    finally:
        stop.set()
        idle.join(timeout=10)
    assert not idle.is_alive()
    pids = {p.name: int(p.read_text()) for p in (tmp_path / "marks").iterdir()}
    assert pids == {"seed0": os.getpid(), "seed1": os.getpid()}
    assert run_files(pool) == run_files(single)


def test_next_seed_starts_when_any_seed_child_ends(tmp_path, monkeypatch, two_cpus):
    # three seeds through two children: seed 0 goes on only once seed 2 has
    # started, which it can only after seed 1's child, not seed 0's, ended
    single = run_experiment(config(tmp_path / "single", seeds=[0, 1, 2], workers=1))
    marks = tmp_path / "marks"
    marks.mkdir()
    real_seed = experiment.run_single_seed

    def seed_0_waits_for_seed_2(cfg, seed, run_dir):
        (marks / f"seed{seed}").touch()
        deadline = time.monotonic() + 60
        while seed == 0 and not (marks / "seed2").exists():
            assert time.monotonic() < deadline, "seed 2 did not start"
            time.sleep(0.01)
        return real_seed(cfg, seed, run_dir)

    alive, counts = set(), []  # the children alive after each start
    real_init, real_join = procs.Child.__init__, procs.Child.join

    def counted(self, *args):
        real_init(self, *args)
        alive.add(self.pid)
        counts.append(len(alive))

    def joined(self):
        try:
            return real_join(self)
        finally:
            alive.discard(self.pid)

    monkeypatch.setattr(experiment, "run_single_seed", seed_0_waits_for_seed_2)
    monkeypatch.setattr(procs.Child, "__init__", counted)
    monkeypatch.setattr(procs.Child, "join", joined)
    out = run_experiment(config(tmp_path / "two", seeds=[0, 1, 2], workers=2))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == {"0": "ok", "1": "ok", "2": "ok"}
    assert counts == [1, 2, 2] and not alive
    assert run_files(out) == run_files(single)


def test_interrupt_kills_and_reaps_every_seed_child(tmp_path, monkeypatch, two_cpus):
    started, running = [], []
    real = procs.Child.__init__

    def recorded(self, *args):
        real(self, *args)
        started.append(self.pid)

    def interrupted(children, timeout=None):
        running.append(running_children())
        raise KeyboardInterrupt

    monkeypatch.setattr(procs.Child, "__init__", recorded)
    monkeypatch.setattr(procs, "ended", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config(tmp_path, seeds=[0, 1]))
    assert running == [sorted(started)] and len(started) == 2
    assert_reaped(started)


def test_usable_cpus_without_cpu_affinity(monkeypatch):
    # platforms without os.sched_getaffinity count every CPU, or one
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert procs.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert procs.usable_cpus() == 1


def test_outcomes_run_here_where_forking_is_unsafe(monkeypatch):
    monkeypatch.setattr(procs, "can_fork", lambda: False)
    assert procs.outcomes([os.getpid, os.getpid], 2, "a test process") == [os.getpid()] * 2


def boom():
    raise ArgumentError("boom")


@pytest.mark.parametrize("n_procs", [1, 2])
def test_a_raising_work_has_its_exception_as_outcome_here_and_in_a_child(n_procs):
    # the same type and message whether the works run here or each in a
    # forked child, and the work after the raising one still runs
    if n_procs > 1 and not procs.can_fork():
        pytest.skip("works run in forked children on Linux only")
    first, err, last = procs.outcomes([os.getpid, boom, os.getpid], n_procs,
                                      "a test process")
    assert type(err) is ArgumentError and str(err) == "boom"
    here = n_procs == 1
    assert (first == os.getpid()) == here and (last == os.getpid()) == here


def test_workers_stay_out_of_config_and_hash(tmp_path):
    one = config(tmp_path, workers=1)
    assert one.hash() == config(tmp_path, workers=2).hash() == config(tmp_path).hash()
    assert "workers" not in one.to_dict()


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


def test_a_seed_trains_from_its_own_initial_parameters(tmp_path):
    # the run's seed, not a default, reaches run_sequence
    cfg = config(tmp_path, seeds=[1])
    store = trainer.CheckpointStore.open(run_experiment(cfg) / "seed1" / "checkpoints")
    start = init_params(cfg.model_spec, derive_seed(1, trainer.INIT_STREAM))
    assert store.load_iteration(0).values.tobytes() == start.values.tobytes()


def test_build_model_spec_rejects_cnn_on_flat_data():
    cfg = load(ModelConfig, {"name": "smallcnn"}, "model")
    with pytest.raises(ArgumentError):
        build_model_spec(cfg, (4,), 3)


# --- the evaluator process -------------------------------------------------------

forks_on_linux = pytest.mark.skipif(sys.platform != "linux",
                                    reason="seeds fork an evaluator on Linux only")


@forks_on_linux
def test_spare_cpu(monkeypatch):
    def spare(cpus, seeds, workers=None):
        monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
        return experiment._spare_cpu(ExperimentConfig.from_dict(
            dict(SMALL, out_dir="/tmp/x", seeds=list(range(seeds)), workers=workers)))

    # a whole idle CPU for each seed process that runs at once
    assert spare(2, 1) and spare(4, 2) and spare(8, 3)
    assert not (spare(1, 1) or spare(2, 2) or spare(2, 3) or spare(2, 4) or spare(4, 3)
                or spare(4, 5) or spare(3, 2))
    # workers caps the seed processes and their evaluators together
    assert spare(2, 1, workers=2) and spare(4, 2, workers=4)
    assert not (spare(2, 1, workers=1) or spare(4, 2, workers=3) or spare(4, 3, workers=2))
    # where forking is unsafe, no evaluator
    monkeypatch.setattr(procs, "can_fork", lambda: False)
    assert not (spare(2, 1) or spare(8, 3) or spare(4, 2, workers=4))


def train(tmp_path, raw, capsys):
    """`gaplab train` of `raw` into tmp_path/exp, which is then removed, so
    that every run has the same out_dir and config hash: the exit code,
    stdout and stderr, each seed's status, and the run's files."""
    out = tmp_path / "exp"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, out_dir=str(out))))
    code = main(["train", "--config", str(path)])
    stdout, stderr = capsys.readouterr()
    status = json.loads((out / "manifest.json").read_text())["seeds"]
    files = run_files(out)
    shutil.rmtree(out)
    return code, stdout, stderr, status, files


def mark_evaluations(monkeypatch, marks):
    """Patch `instrument.eval_test`, which the trace's evaluations call, so
    that each one leaves a file named after the process that ran it and
    holding its parent's PID; a forked evaluator inherits the patch."""
    marks.mkdir(parents=True)
    real = instrument.eval_test

    def marked(*args):
        (marks / str(os.getpid())).write_text(str(os.getppid()))
        return real(*args)

    monkeypatch.setattr(instrument, "eval_test", marked)


def evaluating_processes(marks) -> dict[int, int]:
    """PID -> parent PID of each process that left a mark."""
    return {int(p.name): int(p.read_text()) for p in marks.iterdir()}


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def alternate(recorder):
    """A stand-in for `TraceRecorder._unread` that hands every other
    evaluation to the evaluator and keeps the rest in this process."""
    return len(recorder.trace.records) % 2


@forks_on_linux
@pytest.mark.parametrize("raw", [dict(SMALL, seeds=[0]), TWO_BLOCK_CNN],
                         ids=["mlp", "two-block-smallcnn"])
def test_seed_bytes_do_not_depend_on_the_evaluator(tmp_path, monkeypatch, capsys, raw):
    runs = {}
    for cpus, unread in ((1, None), (2, None), (4, None), (2, alternate)):
        marks = tmp_path / "marks" / f"{cpus}-{unread is None}"
        with monkeypatch.context() as patch:
            patch.setattr(procs, "usable_cpus", lambda: cpus)
            if unread is not None:
                patch.setattr(TraceRecorder, "_unread", unread)
            mark_evaluations(patch, marks)
            runs[cpus, unread] = train(tmp_path, raw, capsys)
        evaluators = evaluating_processes(marks)
        this = evaluators.pop(os.getpid(), None)
        if cpus == 1:  # no CPU to spare: this process evaluated
            assert this is not None and not evaluators
        else:  # one evaluator, forked from this process, evaluated too
            assert list(evaluators.values()) == [os.getpid()]
            assert_reaped(evaluators)
        if unread is alternate:
            assert this is not None
    code, stdout, stderr, status, files = runs[1, None]
    assert code == 0 and stderr == "" and stdout.startswith("run complete: ")
    assert status == {"0": "ok"}
    assert {"seed0/trace.csv", "seed0/lmc.csv", "seed0/path.csv"} <= set(files)
    assert sum(name.endswith(".ckpt") for name in files) > 40
    for key, run in runs.items():
        assert run == runs[1, None], key


@forks_on_linux
@pytest.mark.parametrize("overrides", [{"seeds": [0], "workers": 1}, {"seeds": [0, 1, 2]}],
                         ids=["workers-1", "three-seeds"])
def test_no_evaluator_without_a_spare_cpu(tmp_path, monkeypatch, two_cpus, overrides):
    marks = tmp_path / "marks"
    mark_evaluations(monkeypatch, marks)
    run_experiment(config(tmp_path, **overrides))
    # every seed evaluated in the process that trained it: this one, or a
    # seed process forked from it
    evaluators = evaluating_processes(marks)
    assert len(evaluators) == len(overrides["seeds"])
    if overrides.get("workers") == 1:
        assert list(evaluators) == [os.getpid()]
    else:
        assert set(evaluators.values()) == {os.getpid()}



@forks_on_linux
def test_no_evaluator_where_a_pipe_cannot_hold_a_vector(tmp_path, monkeypatch, two_cpus):
    # past the system's pipe size limit a hand-off could wait for the
    # evaluator: the seed evaluates everything itself and leaks no pipe
    real = fcntl.fcntl

    def limited(fd, cmd, arg=0):
        if cmd == fcntl.F_SETPIPE_SZ:
            raise PermissionError("pipe size past the limit")
        return real(fd, cmd, arg)

    monkeypatch.setattr(fcntl, "fcntl", limited)
    marks = tmp_path / "marks"
    mark_evaluations(monkeypatch, marks)
    fds = len(os.listdir("/proc/self/fd"))
    single = run_experiment(config(tmp_path / "single", seeds=[0], workers=1))
    assert len(os.listdir("/proc/self/fd")) == fds
    assert run_files(run_experiment(config(tmp_path / "limited", seeds=[0]))) == run_files(single)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert list(evaluating_processes(marks)) == [os.getpid()]


@forks_on_linux
def test_refused_fork_leaks_no_pipe(tmp_path, monkeypatch, capsys):
    # a fork refused (too many processes, say) still ends the seed with exit
    # 4 and one line, and leaves no end of either pipe open
    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        procs.Child(lambda: None)
    assert len(os.listdir("/proc/self/fd")) == fds
    code, stdout, stderr, status, files = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert code == 4 and stdout == ""
    assert stderr == "gaplab: error: [Errno 11] Resource temporarily unavailable\n"
    assert status == {"0": "BlockingIOError: [Errno 11] Resource temporarily unavailable"}


def test_refused_seed_fork_fails_its_seed_and_writes_the_manifest(tmp_path, monkeypatch,
                                                                   capsys, two_cpus):
    # each seed whose process cannot be forked gets that error as its status,
    # and the run still writes config.json and manifest.json
    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    fds = len(os.listdir("/proc/self/fd"))
    code, stdout, stderr, status, files = train(
        tmp_path, dict(SMALL, seeds=[0, 1], workers=2), capsys)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert code == 4 and stdout == ""
    assert stderr == "gaplab: error: [Errno 11] Resource temporarily unavailable\n"
    refusal = "BlockingIOError: [Errno 11] Resource temporarily unavailable"
    assert status == {"0": refusal, "1": refusal}
    assert files == {}


def test_evaluator_reads_one_vector_at_a_time():
    # a vector stays in the pipe until the evaluator has used the one before,
    # so that the seed sees it unread and evaluates in place meanwhile
    read_end, write_end = os.pipe()
    for i in range(3):
        os.write(write_end, np.full(4, float(i)).tobytes())
    unread = []

    def evaluate(values):
        if not unread:  # while the first vector is evaluated
            unread.append(fcntl.ioctl(write_end, termios.FIONREAD, bytes(4)))
            os.close(write_end)
        return values.tolist()

    rows, err = instrument._evaluate_sent(evaluate, read_end, os.dup(write_end), 4)
    assert int.from_bytes(unread[0], sys.byteorder) == 2 * 4 * 8
    assert rows == [[0.0] * 4, [1.0] * 4, [2.0] * 4] and err is None

def evaluator_keeps_up(monkeypatch):
    """Patch the recorder so that each hand-off first waits until the
    evaluator has read every vector sent, or has ended: then every
    evaluation goes to the evaluator."""
    real = TraceRecorder._unread

    def waited(self):
        deadline = time.monotonic() + 60
        while real(self) and running_children():
            assert time.monotonic() < deadline, "the evaluator did not keep up"
            time.sleep(0.001)
        return 0

    monkeypatch.setattr(TraceRecorder, "_unread", waited)


@forks_on_linux
def test_each_seed_process_forks_its_own_evaluator(tmp_path, monkeypatch):
    single = run_experiment(config(tmp_path / "single", workers=1))
    mark_seed_processes(monkeypatch, tmp_path / "seeds")
    mark_evaluations(monkeypatch, tmp_path / "evals")
    monkeypatch.setattr(procs, "usable_cpus", lambda: 4)
    pool = run_experiment(config(tmp_path / "pool"))
    # two seed processes, and one evaluator forked from each of them; each
    # seed may have evaluated some iterations itself
    seeds = {int(p.read_text()) for p in (tmp_path / "seeds").iterdir()}
    evaluators = evaluating_processes(tmp_path / "evals")
    forked = {pid for pid, parent in evaluators.items() if parent in seeds}
    assert len(seeds) == 2 and os.getpid() not in seeds
    assert sorted(evaluators[pid] for pid in forked) == sorted(seeds)
    assert set(evaluators) <= seeds | forked
    assert run_files(pool) == run_files(single)


@forks_on_linux
def test_the_evaluator_alone_evaluates_into_its_one_workspace(tmp_path, monkeypatch):
    # each evaluation writes its process and the workspace it was given
    marks = tmp_path / "marks"
    marks.mkdir()
    real = instrument.eval_test

    def marked(*args):
        workspace = args[4] if len(args) > 4 else None
        with open(marks / str(os.getpid()), "a") as mark:
            mark.write("none\n" if workspace is None else f"{id(workspace)} {workspace.rows}\n")
        return real(*args)

    monkeypatch.setattr(instrument, "eval_test", marked)
    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(TraceRecorder, "_unread", alternate)  # both evaluate
    run_experiment(config(tmp_path / "exp", seeds=[0]))
    evaluations = {int(p.name): p.read_text().splitlines() for p in marks.iterdir()}
    here = evaluations.pop(os.getpid())
    ((_, given),) = evaluations.items()
    assert set(here) == {"none"}
    # 24 test samples, under the default eval_batch: one workspace of 24 rows
    assert len(set(given)) == 1 and given[0].endswith(" 24")


def fail_evaluation(monkeypatch, n, error=None):
    """Patch `instrument.eval_test` so that its n-th call raises `error` (a
    divergence by default), in whichever process evaluates. Every iteration
    of SMALL is evaluated, so where one process evaluates them all, that is
    iteration n."""
    calls = []
    real = instrument.eval_test

    def failing(*args):
        calls.append(args)
        if len(calls) == n:
            raise error or DivergenceError("non-finite values in logits")
        return real(*args)

    monkeypatch.setattr(instrument, "eval_test", failing)


def trained_iterations(monkeypatch, iterations, wait_at=None):
    """Patch the batch probe to list each iteration it sees in this process;
    at iteration `wait_at` it first waits until no child process runs, so
    that an evaluator that stopped has ended."""
    real = TraceRecorder.on_post_update

    def listed(self, iteration, *args):
        iterations.append(iteration)
        deadline = time.monotonic() + 60
        while iteration == wait_at and running_children():
            assert time.monotonic() < deadline, "the evaluator did not end"
            time.sleep(0.01)
        return real(self, iteration, *args)

    monkeypatch.setattr(TraceRecorder, "on_post_update", listed)


FAILED_AT_3 = "iteration 3: non-finite values in logits"


@forks_on_linux
@pytest.mark.parametrize("error, failed", [
    (None, f"DivergenceError: {FAILED_AT_3}"),
    # raised as it is, with no iteration, as in-process through `train_task`
    (GapLabError("evaluation failed"), "GapLabError: evaluation failed"),
], ids=["divergence", "other-error"])
def test_failing_evaluation_in_the_evaluator(tmp_path, monkeypatch, capsys, error,
                                             failed):
    runs, trained = {}, {}
    for cpus in (1, 2):
        trained[cpus] = []
        with monkeypatch.context() as patch:
            patch.setattr(procs, "usable_cpus", lambda: cpus)
            evaluator_keeps_up(patch)
            fail_evaluation(patch, 3, error)
            trained_iterations(patch, trained[cpus], wait_at=4)
            runs[cpus] = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
    code, stdout, stderr, status, files = runs[1]
    assert code == 4 and stdout == ""
    assert stderr == f"gaplab: error: {failed.split(': ', 1)[1]}\n"
    assert status == {"0": failed}
    # the checkpoints before the failing iteration, and nothing else
    assert sorted(files) == [f"seed0/checkpoints/task0_iter{i:07d}.ckpt" for i in range(3)]
    assert runs[2] == runs[1]
    # in-process evaluation stopped training at iteration 3; with the
    # evaluator, training went on until the hand-off found it ended, and the
    # checkpoint of iteration 3 was deleted
    assert trained == {1: [1, 2, 3], 2: [1, 2, 3, 4]}


@forks_on_linux
def test_training_error_after_a_failed_evaluation_reports_the_evaluation(
        tmp_path, monkeypatch, capsys):
    runs = {}
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(procs, "usable_cpus", lambda: cpus)
            evaluator_keeps_up(patch)
            fail_evaluation(patch, 3)
            steps = []
            real = trainer.sgd_step

            def diverges_at_4(*args):
                steps.append(args)
                if len(steps) == 4:
                    raise DivergenceError("parameters became non-finite after SGD step")
                return real(*args)

            patch.setattr(trainer, "sgd_step", diverges_at_4)
            runs[cpus] = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
        # with the evaluator, training reached its own error at iteration 4
        assert len(steps) == {1: 3, 2: 4}[cpus]
    code, stdout, stderr, status, files = runs[1]
    assert code == 4 and stderr == f"gaplab: error: {FAILED_AT_3}\n"
    assert status == {"0": f"DivergenceError: {FAILED_AT_3}"}
    assert runs[2] == runs[1]



@forks_on_linux
def test_evaluator_that_failed_with_a_vector_unread_stops_training(tmp_path, monkeypatch,
                                                                   capsys):
    # the evaluator takes iteration 3's vector and fails on it only once
    # iteration 4's has been sent. That vector stays unread, so the pipe
    # never empties again: training stops because the evaluator has ended.
    parent, sent = os.getpid(), tmp_path / "sent"
    real_eval, real_on_eval = instrument.eval_test, TraceRecorder.on_eval

    def evaluate(*args):
        calls.append(args)
        if len(calls) == 3:
            deadline = time.monotonic() + 60
            while os.getpid() != parent and not sent.exists():
                assert time.monotonic() < deadline, "iteration 4 was not sent"
                time.sleep(0.001)
            raise DivergenceError("non-finite values in logits")
        return real_eval(*args)

    def on_eval(self, iteration, params):
        deadline = time.monotonic() + 60
        # iterations 1 to 4 go to the evaluator, and at 5 it has ended
        while self._evaluator is not None and (
                self._unread() if iteration <= 4 else running_children()):
            assert time.monotonic() < deadline, "the evaluator did not go on"
            time.sleep(0.001)
        real_on_eval(self, iteration, params)
        if iteration == 4 and self._evaluator is not None:
            sent.touch()

    runs, trained = {}, {}
    for cpus in (1, 2):
        calls, trained[cpus] = [], []
        with monkeypatch.context() as patch:
            patch.setattr(procs, "usable_cpus", lambda: cpus)
            patch.setattr(instrument, "eval_test", evaluate)
            patch.setattr(TraceRecorder, "on_eval", on_eval)
            trained_iterations(patch, trained[cpus])
            runs[cpus] = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
    code, stdout, stderr, status, files = runs[1]
    assert code == 4 and stderr == f"gaplab: error: {FAILED_AT_3}\n"
    assert runs[2] == runs[1]
    assert trained == {1: [1, 2, 3], 2: [1, 2, 3, 4, 5]}


def warn_in_probe(iteration):
    warnings.warn(f"probe {iteration}", RuntimeWarning)


@forks_on_linux
def test_killed_evaluator_exits_4(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    marks = tmp_path / "marks"
    marks.mkdir()
    real = instrument.eval_test

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            (marks / str(os.getpid())).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    real_probe = TraceRecorder.on_post_update

    def probe(self, iteration, *args):
        if iteration == 2:
            warn_in_probe(iteration)
        return real_probe(self, iteration, *args)

    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    monkeypatch.setattr(instrument, "eval_test", dies_in_a_child)
    monkeypatch.setattr(TraceRecorder, "on_post_update", probe)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code, stdout, stderr, status, files = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
    died = "an evaluation process died (killed by signal 9)"
    assert code == 4 and stdout == ""
    assert stderr == f"gaplab: error: {died}\n"
    assert status == {"0": f"GapLabError: {died}"}
    # the seed's own warning is shown, although its evaluator died
    assert [str(w.message) for w in caught] == ["probe 2"]
    evaluators = [int(p.name) for p in marks.iterdir()]
    assert len(evaluators) == 1
    assert_reaped(evaluators)


@forks_on_linux
def test_overflowing_evaluations_show_no_warning(tmp_path, monkeypatch, capsys):
    # a test set whose logits overflow: the first evaluation diverges, in
    # this process or in the evaluator, while training stays finite. Under
    # "always" a warning of this process would be caught; under "error" one
    # of the evaluator, which inherits the filters, would change the error.
    real = experiment.build_dataset

    def overflowing_test_set(cfg, seed):
        train_set, test = real(cfg, seed)
        return train_set, Dataset(np.full_like(test.features, 1.7e308), test.labels,
                                  test.n_classes)

    monkeypatch.setattr(experiment, "build_dataset", overflowing_test_set)
    evaluator_keeps_up(monkeypatch)
    runs = {}
    for action in ("always", "error"):
        for cpus in (1, 2):
            monkeypatch.setattr(procs, "usable_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                runs[action, cpus] = train(tmp_path, dict(SMALL, seeds=[0]), capsys)
            assert caught == [], (action, cpus)
    code, stdout, stderr, status, files = runs["always", 1]
    failed = "iteration 1: non-finite values in forward logits"
    assert code == 4 and stderr == f"gaplab: error: {failed}\n"
    assert status == {"0": f"DivergenceError: {failed}"}
    for key, run in runs.items():
        assert run == runs["always", 1], key


@forks_on_linux
def test_interrupted_training_kills_the_evaluator(tmp_path, monkeypatch):
    forked = []

    class Recorded(procs.Child):
        def __init__(self, *args):
            super().__init__(*args)  # returns in this process only
            forked.append(self.pid)

    steps = []
    real = trainer.sgd_step

    def interrupted_at_5(*args):
        steps.append(args)
        if len(steps) == 5:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(procs, "Child", Recorded)
    monkeypatch.setattr(trainer, "sgd_step", interrupted_at_5)
    monkeypatch.setattr(procs, "usable_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config(tmp_path, seeds=[0]))
    assert len(forked) == 1
    assert_reaped(forked)
