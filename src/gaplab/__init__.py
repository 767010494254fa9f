"""gaplab: a laboratory for the stability gap in continual learning.

Train a model over a sequence of tasks with warm starts, record test
accuracy densely around each task boundary, quantify the transient
post-switch drop, and analyze how the pre- and post-switch checkpoints
connect in parameter space.

Importing gaplab gives BLAS one thread: it sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless they are already set.

Importing gaplab loads neither numpy nor a submodule: a public name (`from
gaplab import ExperimentConfig`, `gaplab.run_experiment`) loads the module
that defines it when it is first asked for (PEP 562). `errors`, `config`,
`artifacts`, `svgplot`, `procs` and `cli` load without numpy; the numeric
modules (`rng`, `data`, `autodiff`, `trainer`, `instrument`, `connectivity`,
`experiment`) load it.
"""

import importlib
import os
import sys

# BLAS libraries read these once, when numpy loads, so they are set before
# the first submodule imports numpy; seed processes inherit them. On gaplab's
# small matrices a second thread only spins. A value the user set is kept.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Whether the loaded BLAS runs on the threads these variables ask for: numpy
# is not loaded yet, or the user set one and so chose the threads. A forked
# process inherits the loaded BLAS, so gaplab forks only when this holds.
_blas_threads_as_set = ("numpy" not in sys.modules
                        or any(var in os.environ for var in _BLAS_THREAD_VARS))
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from ._version import __version__  # noqa: E402  (after the thread variables)

# The public names, by the module that defines each.
_PUBLIC = {
    "artifacts": """GapMetrics GapParams LmcCurve PathCurve TraceRecord TrainTrace
                    compute_gap format_gap_doc format_gap_docs read_lmc_csv read_path_csv
                    read_trace_csv write_lmc_csv write_path_csv write_trace_csv""",
    "autodiff": """Conv3x3 Dense Flatten MaxPool2x2 ModelSpec ParamVector ReLU accuracy
                   backward forward init_params mlp small_cnn softmax_cross_entropy""",
    "config": """AnalysisConfig DatasetConfig ExperimentConfig ModelConfig RunManifest
                 SplitConfig TrainConfig build_model_spec canonical_json config_hash""",
    "connectivity": "barrier interpolate lmc_curve sgd_path_loss",
    "data": """Dataset TaskSequence batch_iter batches_per_epoch gen_blobs load_raw
               normalize_unit save_raw split_tasks""",
    "errors": """ArgumentError DivergenceError FormatError GapLabError
                 InsufficientTraceError LabelRangeError MissingCheckpointError
                 ShapeError SpecMismatchError""",
    "experiment": "build_dataset run_experiment run_single_seed",
    "instrument": "TraceRecorder eval_test",
    "rng": "Rng derive_seed splitmix64_next",
    "trainer": """CheckpointStore Schedule TrainingHooks load_checkpoint run_sequence
                  save_checkpoint sgd_step train_task""",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
