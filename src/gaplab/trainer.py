"""Momentum-SGD training over a task sequence with warm starts.

On a task switch the next task continues from the previous task's final
parameters while the optimizer velocity is reset (configurable), and
evaluation/checkpoint cadence is dense around the boundary so the first
iterations of each task are observable one update at a time.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import ModelSpec, ParamVector, backward, init_params
from .data import Dataset, TaskSequence, batch_iter, batches_per_epoch
from .errors import (
    ArgumentError,
    DivergenceError,
    FormatError,
    MissingCheckpointError,
    SpecMismatchError,
)
from .rng import Rng, derive_seed

# Independent sub-streams of a run seed.
INIT_STREAM = 0
BATCH_STREAM = 1
SPLIT_STREAM = 2


@dataclass
class TrainConfig:
    """Optimizer hyperparameters plus instrumentation cadence.

    `epochs_per_task` may be a single int (every task) or one int per
    task. The first `dense_window` and the last `dense_tail` iterations
    of each task are evaluated and checkpointed every iteration; in
    between, `eval_every` / `checkpoint_every` apply.
    """

    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs_per_task: tuple[int, ...] | int = 100
    eval_every: int = 50
    checkpoint_every: int = 50
    dense_window: int = 400
    dense_tail: int = 50
    velocity_reset: bool = True
    eval_batch: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ArgumentError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        epochs = self.epochs_per_task
        if isinstance(epochs, int):
            epochs = (epochs,)
        self.epochs_per_task = tuple(int(e) for e in epochs)
        if not self.epochs_per_task:
            raise ArgumentError("epochs_per_task needs at least one entry")
        if any(e < 0 for e in self.epochs_per_task):
            raise ArgumentError("epochs_per_task entries must be >= 0")
        for name in ("eval_every", "checkpoint_every", "eval_batch"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dense_window < 0 or self.dense_tail < 0:
            raise ArgumentError("dense_window and dense_tail must be >= 0")

    def epochs_for(self, task_id: int) -> int:
        if task_id < len(self.epochs_per_task):
            return self.epochs_per_task[task_id]
        return self.epochs_per_task[-1]

    def task_length(self, task_id: int, pool_size: int) -> int:
        """Iterations of a task: its epochs times the batches in one pass
        over its pool."""
        return self.epochs_for(task_id) * batches_per_epoch(pool_size, self.batch_size)

    def _tick(self, i_in_task: int, task_len: int, every: int) -> bool:
        return (
            i_in_task <= self.dense_window
            or i_in_task > task_len - self.dense_tail
            or i_in_task % every == 0
            or i_in_task == task_len
        )

    def is_eval_tick(self, i_in_task: int, task_len: int) -> bool:
        return self._tick(i_in_task, task_len, self.eval_every)

    def is_checkpoint_tick(self, i_in_task: int, task_len: int) -> bool:
        return self._tick(i_in_task, task_len, self.checkpoint_every)


@dataclass
class OptimizerState:
    velocity: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "OptimizerState":
        return cls(np.zeros(n, dtype=np.float64))


def sgd_step(
    params: ParamVector,
    grads: ParamVector,
    state: OptimizerState,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, OptimizerState]:
    """v' = momentum * v + g; theta' = theta - lr * v'."""
    if params.spec_digest != grads.spec_digest:
        raise SpecMismatchError("gradient vector bound to a different spec")
    if len(state.velocity) != len(params.values):
        raise ArgumentError("optimizer state length does not match parameters")
    # overflow surfaces as the isfinite check below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        velocity = momentum * state.velocity + grads.values
        values = params.values - lr * velocity
    if not np.all(np.isfinite(values)):
        raise DivergenceError("parameters became non-finite after SGD step")
    return ParamVector(values, params.spec_digest), OptimizerState(velocity)


class TrainingHooks:
    """No-op instrumentation interface; TraceRecorder overrides it."""

    def on_pre_update(self, iteration, task_id, loss, logits, labels):
        pass

    def on_post_update(self, iteration, task_id, params, batch, labels):
        pass

    def on_eval(self, iteration, params):
        pass

    def on_checkpoint(self, iteration, task_id, params):
        pass

    def wants_checkpoint(self, iteration) -> bool:
        return False

    def on_task_end(self, task_id, iteration):
        pass


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"GAPL"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, params: ParamVector) -> None:
    """Binary layout: magic, version u16, spec digest (32 bytes), count u64,
    little-endian float64 values in canonical order."""
    digest = bytes.fromhex(params.spec_digest)
    if len(digest) != 32:
        raise ArgumentError("spec digest must be 32 bytes of hex")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(digest)
        fh.write(struct.pack("<Q", len(params)))
        fh.write(params.values.astype("<f8").tobytes())


def load_checkpoint(path: str | Path, spec: ModelSpec | None = None) -> ParamVector:
    raw = Path(path).read_bytes()
    header = 4 + 2 + 32 + 8
    if len(raw) < header:
        raise FormatError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    digest = raw[6:38].hex()
    (count,) = struct.unpack_from("<Q", raw, 38)
    if len(raw) != header + 8 * count:
        raise FormatError(
            f"{path}: expected {header + 8 * count} bytes, found {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=header).copy()
    params = ParamVector(values, digest)
    if spec is not None and digest != spec.digest:
        raise SpecMismatchError(f"{path}: checkpoint bound to a different model spec")
    return params


class CheckpointStore:
    """Directory of task<k>_iter<n> checkpoints, looked up by global iteration.

    The constructor makes a store to save into, creating the directory;
    `open` reads the checkpoints of an existing directory and creates nothing.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._by_iteration: dict[int, Path] = {}

    @classmethod
    def open(cls, directory: str | Path) -> "CheckpointStore":
        if not Path(directory).is_dir():
            raise ArgumentError(f"{directory}: no such checkpoint directory")
        store = cls(directory)
        for path in sorted(store.directory.glob("task*_iter*.ckpt")):
            name = re.fullmatch(r"task\d+_iter(\d+)", path.stem)
            if name is None:
                raise FormatError(
                    f"{path}: bad checkpoint name, expected task<k>_iter<n>.ckpt"
                )
            store._by_iteration[int(name[1])] = path
        return store

    def save(self, task_id: int, iteration: int, params: ParamVector) -> str:
        ckpt_id = f"task{task_id}_iter{iteration:07d}"
        path = self.directory / f"{ckpt_id}.ckpt"
        save_checkpoint(path, params)
        self._by_iteration[iteration] = path
        return ckpt_id

    def iterations(self) -> list[int]:
        return sorted(self._by_iteration)

    def load_iteration(self, iteration: int, spec: ModelSpec | None = None) -> ParamVector:
        if iteration not in self._by_iteration:
            raise MissingCheckpointError([iteration])
        return load_checkpoint(self._by_iteration[iteration], spec)

    def load_many(
        self, iterations: list[int], spec: ModelSpec | None = None
    ) -> Iterator[ParamVector]:
        """The checkpoints at `iterations`, in that order, each read from disk
        only when the iterator reaches it, so a caller that consumes one at a
        time holds one at a time. Every missing iteration is reported here,
        before any file is read."""
        missing = [it for it in iterations if it not in self._by_iteration]
        if missing:
            raise MissingCheckpointError(missing)
        return (self.load_iteration(it, spec) for it in iterations)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def task_lengths(task_seq: TaskSequence, config: TrainConfig) -> list[int]:
    """Iterations of each task of a sequence; the task boundaries are the
    running sums."""
    return [config.task_length(k, len(task_seq.pool(k))) for k in range(task_seq.n_tasks)]


@dataclass
class SequenceResult:
    final_params: ParamVector
    boundaries: list[int]  # global iteration at the end of each task
    task_lengths: list[int]


def train_task(
    spec: ModelSpec,
    params: ParamVector,
    data: Dataset,
    pool: np.ndarray,
    config: TrainConfig,
    hooks: TrainingHooks | None,
    rng: Rng,
    *,
    task_id: int = 0,
    start_iteration: int = 0,
    state: OptimizerState | None = None,
) -> tuple[ParamVector, OptimizerState]:
    """Run task `task_id`'s epochs of momentum SGD over `pool`, driving
    the hook object.

    Hook calls per iteration: `on_pre_update` (reusing the backward pass
    logits), `on_post_update`, then `on_eval` / `on_checkpoint` on their
    cadence ticks. Divergence aborts with the failing iteration attached;
    checkpoints written so far are retained.
    """
    if hooks is None:
        hooks = TrainingHooks()
    epochs = config.epochs_for(task_id)
    if state is None:
        state = OptimizerState.zeros(len(params))
    if epochs == 0:
        return params, state
    task_len = config.task_length(task_id, len(pool))
    iteration = start_iteration
    i_in_task = 0
    for batch_idx in batch_iter(pool, config.batch_size, epochs, rng):
        iteration += 1
        i_in_task += 1
        x = data.features[batch_idx]
        y = data.labels[batch_idx]
        try:
            loss, grads, logits = backward(spec, params, x, y)
            hooks.on_pre_update(iteration, task_id, loss, logits, y)
            params, state = sgd_step(params, grads, state, config.lr, config.momentum)
            hooks.on_post_update(iteration, task_id, params, x, y)
            if config.is_eval_tick(i_in_task, task_len):
                hooks.on_eval(iteration, params)
        except DivergenceError as err:
            raise DivergenceError(f"iteration {iteration}: {err}") from err
        if config.is_checkpoint_tick(i_in_task, task_len) or hooks.wants_checkpoint(
            iteration
        ):
            hooks.on_checkpoint(iteration, task_id, params)
    return params, state


def run_sequence(
    spec: ModelSpec,
    task_seq: TaskSequence,
    config: TrainConfig,
    hooks: TrainingHooks | None = None,
    params: ParamVector | None = None,
) -> SequenceResult:
    """Warm-started training over all tasks of a sequence.

    Task k+1 starts from task k's final parameters; optimizer velocity is
    zeroed at each boundary unless `velocity_reset` is off. The parameters
    entering training are checkpointed at iteration 0, and each task's
    final iteration always gets an eval and a checkpoint, so the boundary
    checkpoint doubles as the interpolation anchor.
    """
    if hooks is None:
        hooks = TrainingHooks()
    if params is None:
        params = init_params(spec, derive_seed(config.seed, INIT_STREAM))
    rng = Rng(derive_seed(config.seed, BATCH_STREAM))
    hooks.on_checkpoint(0, 0, params)
    lengths = task_lengths(task_seq, config)
    boundaries = list(accumulate(lengths))
    state: OptimizerState | None = None
    for task_id, start in enumerate([0] + boundaries[:-1]):
        if config.velocity_reset:
            state = None
        params, state = train_task(
            spec,
            params,
            task_seq.base,
            task_seq.pool(task_id),
            config,
            hooks,
            rng,
            task_id=task_id,
            start_iteration=start,
            state=state,
        )
        hooks.on_task_end(task_id, boundaries[task_id])
    return SequenceResult(params, boundaries, lengths)
