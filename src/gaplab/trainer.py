"""Momentum-SGD training over a task sequence with warm starts.

On a task switch the next task continues from the previous task's final
parameters while the optimizer velocity is reset (configurable). A
`Schedule`, fixed per seed before training, lists the iterations that are
evaluated and checkpointed: densely around each boundary, so the first
iterations of each task are observable one update at a time.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import ModelSpec, ParamVector, backward, init_params, overflow_checked
from .config import TrainConfig
from .data import TaskSequence, batch_iter, batches_per_epoch
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
DATA_STREAM = 3


def sgd_step(
    params: ParamVector,
    grads: ParamVector,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, np.ndarray]:
    """v' = momentum * v + g; theta' = theta - lr * v'. The float64 velocity
    `v` is the optimizer's whole state; the new parameters and `v'` are new
    arrays, and no input is written."""
    if params.spec_digest != grads.spec_digest:
        raise SpecMismatchError("gradient vector bound to a different spec")
    if len(velocity) != len(params.values):
        raise ArgumentError("optimizer state length does not match parameters")
    # overflow surfaces as the isfinite check below (autodiff's one rule)
    with overflow_checked():
        velocity = momentum * velocity
        velocity += grads.values
        values = lr * velocity
        np.subtract(params.values, values, out=values)
    if not np.all(np.isfinite(values)):
        raise DivergenceError("parameters became non-finite after SGD step")
    return ParamVector(values, params.spec_digest), velocity


def diverged_at(iteration: int, err: DivergenceError) -> DivergenceError:
    """`err` as the divergence of training iteration `iteration`."""
    return DivergenceError(f"iteration {iteration}: {err}")


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


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"GAPL"
CHECKPOINT_VERSION = 1
# magic, version u16, spec digest (32 bytes), count u64
_HEADER = struct.Struct("<4sH32sQ")


def save_checkpoint(path: str | Path, params: ParamVector) -> None:
    """Binary layout: the `_HEADER`, then little-endian float64 values in
    canonical order."""
    digest = bytes.fromhex(params.spec_digest)
    if len(digest) != 32:
        raise ArgumentError("spec digest must be 32 bytes of hex")
    values = np.ascontiguousarray(params.values, dtype="<f8")  # no copy if already so
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest, len(params)))
        fh.write(values)


def load_checkpoint(path: str | Path, spec: ModelSpec | None = None) -> ParamVector:
    """The checkpoint's values are read straight into the one array returned."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
        magic, version, digest, count = _HEADER.unpack(raw)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(fh.fileno()).st_size
        if size != _HEADER.size + 8 * count:
            raise FormatError(f"{path}: expected {_HEADER.size + 8 * count} bytes, found {size}")
        values = np.empty(count, dtype="<f8")
        if fh.readinto(values) != values.nbytes:  # the file shrank while read
            raise FormatError(f"{path}: truncated checkpoint values")
    params = ParamVector(values, digest.hex())
    if spec is not None and params.spec_digest != spec.digest:
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
            iteration = int(name[1])
            other = store._by_iteration.setdefault(iteration, path)
            if other != path:
                raise FormatError(f"{other} and {path}: two checkpoints of iteration {iteration}")
        return store

    def save(self, task_id: int, iteration: int, params: ParamVector) -> str:
        ckpt_id = f"task{task_id}_iter{iteration:07d}"
        path = self.directory / f"{ckpt_id}.ckpt"
        save_checkpoint(path, params)
        self._by_iteration[iteration] = path
        return ckpt_id

    def discard_from(self, iteration: int) -> None:
        """Delete the checkpoints of `iteration` and of every later one."""
        for it in [i for i in self._by_iteration if i >= iteration]:
            self._by_iteration.pop(it).unlink()

    def iterations(self) -> list[int]:
        return sorted(self._by_iteration)

    def load_iteration(self, iteration: int, spec: ModelSpec | None = None) -> ParamVector:
        self.require([iteration])
        return load_checkpoint(self._by_iteration[iteration], spec)

    def require(self, iterations: list[int]) -> None:
        """Report every iteration of `iterations` that has no checkpoint, in
        one MissingCheckpointError; reads no file."""
        missing = [it for it in iterations if it not in self._by_iteration]
        if missing:
            raise MissingCheckpointError(missing)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """The iterations of one seed's run that are evaluated and checkpointed,
    fixed before training: the ticks of `TrainConfig`'s per-task cadence,
    and among the checkpoints also iteration 0 (the parameters entering
    training) and `theta2`, the far end of the LMC and SGD-path analysis,
    `theta2_epochs` epochs into the second task (None without a second task
    that runs that long). `boundaries` is the last iteration of each task.
    """

    boundaries: list[int]
    evals: frozenset[int]
    checkpoints: frozenset[int]
    theta2: int | None

    @classmethod
    def plan(cls, pool_sizes: list[int], config: TrainConfig,
             theta2_epochs: int) -> "Schedule":
        per_epoch = [batches_per_epoch(n, config.batch_size) for n in pool_sizes]
        lengths = [config.epochs_for(k) * n for k, n in enumerate(per_epoch)]
        boundaries = list(accumulate(lengths))
        evals, checkpoints = set(), {0}
        for start, length in zip([0] + boundaries, lengths):
            for i in range(1, length + 1):
                dense = (i <= config.dense_window or i > length - config.dense_tail
                         or i == length)
                if dense or i % config.eval_every == 0:
                    evals.add(start + i)
                if dense or i % config.checkpoint_every == 0:
                    checkpoints.add(start + i)
        theta2 = None
        if len(pool_sizes) >= 2 and theta2_epochs <= config.epochs_for(1):
            theta2 = boundaries[0] + theta2_epochs * per_epoch[1]
            checkpoints.add(theta2)
        return cls(boundaries, frozenset(evals), frozenset(checkpoints), theta2)


def train_task(
    spec: ModelSpec,
    params: ParamVector,
    task_seq: TaskSequence,
    task_id: int,
    config: TrainConfig,
    plan: Schedule,
    hooks: TrainingHooks,
    rng: Rng,
    velocity: np.ndarray,
) -> tuple[ParamVector, np.ndarray]:
    """Run task `task_id`'s epochs of momentum SGD over its pool in
    `task_seq`, from `params` and `velocity`, driving the hook object;
    returns the final parameters and velocity (both unchanged for 0 epochs).

    Hook calls per iteration: `on_pre_update` (reusing the backward pass
    logits), `on_post_update`, then `on_eval` / `on_checkpoint` at the
    iterations the plan lists. Divergence aborts with the failing
    iteration attached; checkpoints written so far are retained.
    """
    data = task_seq.base
    start = plan.boundaries[task_id - 1] if task_id else 0
    batches = batch_iter(task_seq.pool(task_id), config.batch_size,
                         config.epochs_for(task_id), rng)
    for iteration, batch_idx in enumerate(batches, start=start + 1):
        x = data.features[batch_idx]
        y = data.labels[batch_idx]
        try:
            loss, grads, logits = backward(spec, params, x, y)
            hooks.on_pre_update(iteration, task_id, loss, logits, y)
            params, velocity = sgd_step(params, grads, velocity, config.lr,
                                        config.momentum)
            hooks.on_post_update(iteration, task_id, params, x, y)
            if iteration in plan.evals:
                hooks.on_eval(iteration, params)
        except DivergenceError as err:
            raise diverged_at(iteration, err) from err
        if iteration in plan.checkpoints:
            hooks.on_checkpoint(iteration, task_id, params)
    return params, velocity


def run_sequence(
    spec: ModelSpec,
    task_seq: TaskSequence,
    config: TrainConfig,
    plan: Schedule,
    seed: int,
    hooks: TrainingHooks | None = None,
) -> ParamVector:
    """Warm-started training over all tasks of a sequence from the
    parameters `init_params` draws from `seed`; returns the final
    parameters. The batch order is drawn from another stream of `seed`.

    Task k+1 starts from task k's final parameters. The velocity starts at
    zero and is zeroed again at each boundary unless `velocity_reset` is
    off, when it carries over. The parameters entering training are
    checkpointed at iteration 0, and the plan gives each task's final
    iteration an eval and a checkpoint, so the boundary checkpoint doubles
    as the interpolation anchor.
    """
    if hooks is None:
        hooks = TrainingHooks()
    params = init_params(spec, derive_seed(seed, INIT_STREAM))
    rng = Rng(derive_seed(seed, BATCH_STREAM))
    hooks.on_checkpoint(0, 0, params)
    velocity = np.zeros(len(params))
    for task_id in range(task_seq.n_tasks):
        if task_id and config.velocity_reset:
            velocity = np.zeros(len(params))
        params, velocity = train_task(spec, params, task_seq, task_id, config,
                                      plan, hooks, rng, velocity)
    return params
