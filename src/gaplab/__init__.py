"""gaplab: a laboratory for the stability gap in continual learning.

Train a model over a sequence of tasks with warm starts, record test
accuracy densely around each task boundary, quantify the transient
post-switch drop, and analyze how the pre- and post-switch checkpoints
connect in parameter space.

Importing gaplab gives BLAS one thread: it sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless they are already set.
"""

import os

# BLAS libraries read these once, when numpy loads, so they are set before
# the first submodule imports numpy; seed processes inherit them. On gaplab's
# small matrices a second thread only spins. A value the user set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ._version import __version__  # noqa: E402  (after the thread variables)
from .autodiff import (Conv3x3, Dense, Flatten, MaxPool2x2, ModelSpec,
                       ParamVector, ReLU, accuracy, backward, forward,
                       init_params, mlp, small_cnn, softmax_cross_entropy)
from .config import (AnalysisConfig, DatasetConfig, ExperimentConfig,
                     ModelConfig, RunManifest, SplitConfig, build_model_spec,
                     canonical_json, config_hash)
from .connectivity import (LmcCurve, PathCurve, barrier, interpolate,
                           lmc_curve, read_lmc_csv, read_path_csv,
                           sgd_path_loss, write_lmc_csv, write_path_csv)
from .data import (Dataset, TaskSequence, batch_iter, batches_per_epoch,
                   gen_blobs, load_raw, normalize_unit, save_raw, split_tasks)
from .errors import (ArgumentError, DivergenceError, FormatError, GapLabError,
                     InsufficientTraceError, LabelRangeError,
                     MissingCheckpointError, ShapeError, SpecMismatchError)
from .experiment import build_dataset, run_experiment, run_single_seed
from .instrument import (GapMetrics, TraceRecord, TraceRecorder, TrainTrace,
                         compute_gap, eval_test, format_gap_doc, format_gap_docs,
                         read_trace_csv, write_trace_csv)
from .rng import Rng, derive_seed, splitmix64_next
from .trainer import (CheckpointStore, OptimizerState, SequenceResult,
                      TrainConfig, TrainingHooks, load_checkpoint,
                      run_sequence, save_checkpoint, sgd_step, train_task)

__all__ = [
    "__version__",
    "ArgumentError", "DivergenceError", "FormatError", "GapLabError",
    "InsufficientTraceError", "LabelRangeError", "MissingCheckpointError",
    "ShapeError", "SpecMismatchError",
    "Rng", "derive_seed", "splitmix64_next",
    "Conv3x3", "Dense", "Flatten", "MaxPool2x2", "ModelSpec", "ParamVector",
    "ReLU", "accuracy", "backward", "forward", "init_params", "mlp",
    "small_cnn", "softmax_cross_entropy",
    "Dataset", "TaskSequence", "batch_iter", "batches_per_epoch", "gen_blobs",
    "load_raw", "normalize_unit", "save_raw", "split_tasks",
    "CheckpointStore", "OptimizerState", "SequenceResult", "TrainConfig",
    "TrainingHooks", "load_checkpoint", "run_sequence", "save_checkpoint",
    "sgd_step", "train_task",
    "GapMetrics", "TraceRecord", "TraceRecorder", "TrainTrace",
    "compute_gap", "eval_test", "format_gap_doc", "format_gap_docs",
    "read_trace_csv", "write_trace_csv",
    "LmcCurve", "PathCurve", "barrier", "interpolate", "lmc_curve",
    "read_lmc_csv", "read_path_csv", "sgd_path_loss", "write_lmc_csv",
    "write_path_csv",
    "AnalysisConfig", "DatasetConfig", "ExperimentConfig", "ModelConfig",
    "RunManifest", "SplitConfig", "canonical_json", "config_hash",
    "build_dataset", "build_model_spec", "run_experiment", "run_single_seed",
]
