"""The import graph: `gaplab`, `gaplab.cli` and `gaplab.procs` load without
numpy, and so do `--version`, `gap` and `report`; every public name of the
package loads the module that defines it on first use; and the traced
benchmark still wraps the names that `gaplab.cli` binds only when a command
that computes runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab
from gaplab.cli import main

SRC = Path(gaplab.__file__).resolve().parents[1]
SPANS_PATH = SRC.parent / "perfbench" / "spans.py"

# every name the package offered when `gaplab/__init__.py` imported all its
# modules, by the module that defines it
PUBLIC = {
    "gaplab._version": ["__version__"],
    "gaplab.artifacts": [
        "GapMetrics", "GapParams", "LmcCurve", "PathCurve", "TraceRecord", "TrainTrace",
        "compute_gap",
        "format_gap_doc", "format_gap_docs", "read_lmc_csv", "read_path_csv",
        "read_trace_csv", "write_lmc_csv", "write_path_csv", "write_trace_csv"],
    "gaplab.autodiff": [
        "Conv3x3", "Dense", "Flatten", "MaxPool2x2", "ModelSpec", "ParamVector", "ReLU",
        "accuracy", "backward", "forward", "init_params", "mlp", "small_cnn",
        "softmax_cross_entropy"],
    "gaplab.config": [
        "AnalysisConfig", "DatasetConfig", "ExperimentConfig", "ModelConfig", "RunManifest",
        "SplitConfig", "TrainConfig", "build_model_spec", "canonical_json", "config_hash"],
    "gaplab.connectivity": ["barrier", "interpolate", "lmc_curve", "sgd_path_loss"],
    "gaplab.data": [
        "Dataset", "TaskSequence", "batch_iter", "batches_per_epoch", "gen_blobs", "load_raw",
        "normalize_unit", "save_raw", "split_tasks"],
    "gaplab.errors": [
        "ArgumentError", "DivergenceError", "FormatError", "GapLabError",
        "InsufficientTraceError", "LabelRangeError", "MissingCheckpointError", "ShapeError",
        "SpecMismatchError"],
    "gaplab.experiment": ["build_dataset", "run_experiment", "run_single_seed"],
    "gaplab.instrument": ["TraceRecorder", "eval_test"],
    "gaplab.rng": ["Rng", "derive_seed", "splitmix64_next"],
    "gaplab.trainer": [
        "CheckpointStore", "Schedule", "TrainingHooks", "load_checkpoint", "run_sequence",
        "save_checkpoint", "sgd_step", "train_task"],
}

# the modules `import gaplab.cli` loads: none of them imports numpy
CORE = {"gaplab", "gaplab._version", "gaplab.artifacts", "gaplab.cli", "gaplab.config",
        "gaplab.errors", "gaplab.svgplot"}

CONFIG = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "dim": 4, "spread": 1.0},
    "model": {"name": "mlp", "hidden": [8]},
    "split": {"fractions": [50, 50], "joint": True},
    "train": {"batch_size": 16, "epochs_per_task": [4, 6], "dense_window": 400,
              "dense_tail": 5},
    "analysis": {"window": 100},
    "seeds": [0],
    "checkpoints": True,
    "workers": 1,
}


def fresh(script: str, *args: str, cwd: Path) -> str:
    """The stdout of `script` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A finished one-seed run: its config file and its seed directory."""
    root = tmp_path_factory.mktemp("run")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(dict(CONFIG, out_dir=str(root / "exp"))))
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, root / "exp" / "seed0"


# --- the lazy public API ------------------------------------------------------------

def test_every_public_name_is_its_defining_modules_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(module_name)
        for name in names:
            scope = {}
            exec(f"from gaplab import {name}", scope)
            assert scope[name] is getattr(module, name), name
            assert getattr(scope[name], "__module__", module_name) == module_name, name


def test_dir_lists_every_public_name():
    names = {name for names in PUBLIC.values() for name in names}
    assert names <= set(dir(gaplab))
    assert names <= set(gaplab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gaplab.no_such_name
    assert not hasattr(gaplab, "no_such_name")


# --- what a fresh process loads -------------------------------------------------------

def test_cli_import_loads_only_the_core():
    out = fresh("import json, sys, gaplab.cli\n"
                "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'gaplab']))",
                cwd=SRC)
    loaded = set(json.loads(out))
    assert loaded - CORE == set(), f"import gaplab.cli loads {sorted(loaded - CORE)}"
    assert loaded == CORE


NUMPY_FREE_SCRIPT = """\
import json, sys
loaded = {}
import gaplab
loaded["import gaplab"] = "numpy" in sys.modules
import gaplab.cli
from gaplab.cli import main
loaded["import gaplab.cli"] = "numpy" in sys.modules
try:
    main(["--version"])
except SystemExit as exit:
    assert exit.code == 0
loaded["--version"] = "numpy" in sys.modules
trace = sys.argv[1] + "/trace.csv"
assert main(["gap", "--trace", trace, "--trace", trace, "--out", "gap.txt"]) in (0, 3)
loaded["gap"] = "numpy" in sys.modules
assert main(["report", "--run", sys.argv[1], "--out", "figs"]) == 0
loaded["report"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_procs_import_leaves_numpy_out(tmp_path):
    # the child protocol is generic: the works it runs bring their own imports
    out = fresh("import sys, gaplab.procs\nprint('numpy' in sys.modules)", cwd=tmp_path)
    assert out.splitlines()[-1] == "False"


def test_gap_and_report_run_without_numpy(run, tmp_path):
    _, seed_dir = run
    out = fresh(NUMPY_FREE_SCRIPT, str(seed_dir), cwd=tmp_path)
    assert json.loads(out.splitlines()[-1]) == {
        "import gaplab": False, "import gaplab.cli": False, "--version": False,
        "gap": False, "report": False}
    assert (tmp_path / "gap.txt").is_file()
    assert sorted(p.name for p in (tmp_path / "figs").iterdir()) == [
        "accuracy.svg", "lmc.svg", "probe.svg"]


# --- the traced benchmark ------------------------------------------------------------

TRACED_SCRIPT = """\
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from gaplab import cli
tracer = spans.Tracer()
tracer.install()
cfg, run = sys.argv[2], Path(sys.argv[3])
ckpts = run / "checkpoints"
codes = [
    cli.main(["gap", "--trace", str(run / "trace.csv")]),
    cli.main(["lmc", "--config", cfg, "--ckpt-a", str(min(ckpts.glob("*.ckpt"))),
              "--ckpt-b", str(max(ckpts.glob("*.ckpt"))), "--sgd-path", str(ckpts),
              "--out", "lmc"]),
    cli.main(["report", "--run", str(run), "--out", "figs"]),
]
print(json.dumps({"codes": codes, "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_traced_benchmark_sees_the_lazily_bound_cli_names(run, tmp_path):
    cfg, seed_dir = run
    out = fresh(TRACED_SCRIPT, str(SPANS_PATH), str(cfg), str(seed_dir), cwd=tmp_path)
    found = json.loads(out.splitlines()[-1])
    assert found["codes"][0] in (0, 3) and found["codes"][1:] == [0, 0]
    missing = {"instrument.trace_read", "instrument.compute_gap", "connectivity.csv_read",
               "connectivity.lmc_curve", "connectivity.sgd_path_loss",
               "svgplot.render"} - set(found["spans"])
    assert missing == set()
