"""Measurement layer: test evaluation and the trace recorder, whose batch
probes and evaluations fill in the trace of `artifacts` as training runs.
"""

from __future__ import annotations

import fcntl
import os
import sys
import termios
from functools import partial

import numpy as np

from . import procs
from .artifacts import TraceRecord, TrainTrace
from .autodiff import ModelSpec, ParamVector, accuracy, forward, softmax_cross_entropy
from .config import TrainConfig
from .data import Dataset
from .errors import ArgumentError, DivergenceError
from .trainer import CheckpointStore, TrainingHooks, diverged_at


def eval_test(
    spec: ModelSpec,
    params: ParamVector,
    test: Dataset,
    eval_batch: int = TrainConfig.eval_batch,
) -> tuple[float, float]:
    """Exact full-test-set mean loss and accuracy in fixed-size batches
    (a `Dataset` holds at least one sample)."""
    if eval_batch < 1:
        raise ArgumentError(f"eval_batch must be >= 1, got {eval_batch}")
    loss_sum = 0.0
    correct = 0.0
    for start in range(0, test.n, eval_batch):
        x = test.features[start:start + eval_batch]
        y = test.labels[start:start + eval_batch]
        logits = forward(spec, params, x)
        batch_loss, _ = softmax_cross_entropy(logits, y)
        loss_sum += batch_loss * len(y)
        correct += accuracy(logits, y) * len(y)
    return loss_sum / test.n, correct / test.n


def evaluate_each(evaluate, items) -> tuple[list, Exception | None]:
    """`evaluate(item)` for each item in turn, up to the first exception:
    the results before it, and that exception or None."""
    rows = []
    try:
        for item in items:
            rows.append(evaluate(item))
    except Exception as err:
        return rows, err
    return rows, None


class _EvaluatorEnded(Exception):
    """Raised by `on_eval` to stop training once the evaluator has ended;
    leaving the recorder's `with` block raises what ended it instead."""


class TraceRecorder(TrainingHooks):
    """Accumulates the training trace and serves the trainer's hook points.

    `on_pre_update` appends each iteration's record and the later hooks
    fill it in. The batch probe's "before" side reuses the backward pass's
    loss and logits; its "after" side is one forward pass with the updated
    parameters. After a diverged update the failed iteration's record
    stays in the trace, with NaN post-update fields.

    `on_eval` runs `eval_test` in this process, unless `forked` is set (on
    Linux, by a caller that has decided that forking is safe, as
    `experiment._spare_cpu` does) and a pipe can hold a whole parameter
    vector: then the first call forks one evaluator process. A call whose
    evaluator has read every vector sent before sends it the parameter
    vector and returns; while the evaluator has one still to read, this
    process evaluates, so neither waits for the other. The evaluator's
    results are filled in when the recorder's `with` block ends, which also
    reaps it. An evaluator stops at its first failing evaluation, and the
    next `on_eval` stops training. Leaving the `with` block then raises
    that error (a divergence with its iteration, as `train_task` raises
    it), in place of any error of the training that went on after it, and
    deletes the checkpoints saved from that iteration on. So the trace, the
    error and the files are those of evaluating in this process, which
    stops at the failing iteration. An interrupt only kills the evaluator.
    """

    def __init__(
        self,
        spec: ModelSpec,
        test: Dataset,
        eval_batch: int = TrainConfig.eval_batch,
        store: CheckpointStore | None = None,
        forked: bool = False,
    ):
        self.spec = spec
        self.test = test
        self.eval_batch = eval_batch
        self.store = store
        self.forked = forked
        self.trace = TrainTrace()
        self._evaluator: procs.Child | None = None
        self._to_evaluator = -1  # the sending end of the evaluator's input pipe
        self._owed: list[TraceRecord] = []  # the records sent, in order

    def on_pre_update(self, iteration, task_id, loss, logits, labels):
        self.trace.records.append(TraceRecord(
            iteration=iteration,
            task=task_id,
            batch_loss_pre=loss,
            batch_acc_pre=accuracy(logits, labels),
            batch_loss_post=float("nan"),
            batch_acc_post=float("nan"),
        ))

    def on_post_update(self, iteration, task_id, params, batch, labels):
        logits = forward(self.spec, params, batch)
        loss, _ = softmax_cross_entropy(logits, labels)
        record = self.trace.records[-1]
        record.batch_loss_post = loss
        record.batch_acc_post = accuracy(logits, labels)

    def on_eval(self, iteration, params):
        record = self.trace.records[-1]
        if self.forked and self._evaluator is None:
            self._fork_evaluator(params)
        if self._evaluator is not None and procs.ended([self._evaluator], 0):
            raise _EvaluatorEnded
        if self._evaluator is None or self._unread():
            record.test_loss, record.test_acc = eval_test(
                self.spec, params, self.test, self.eval_batch)
            return
        self._owed.append(record)
        # an evaluator that ended since raises BrokenPipeError here, and
        # leaving the `with` block then raises what ended it
        view = memoryview(np.ascontiguousarray(params.values)).cast("B")
        while view:
            view = view[os.write(self._to_evaluator, view):]

    def _fork_evaluator(self, params: ParamVector) -> None:
        self.forked = False  # one evaluator at most
        nbytes, digest = params.values.nbytes, params.spec_digest
        read_end, self._to_evaluator = os.pipe()
        try:
            try:  # room for a whole vector, so that a hand-off never waits
                fcntl.fcntl(self._to_evaluator, fcntl.F_SETPIPE_SZ, nbytes)
            except OSError:  # past the system's limit: a hand-off could wait,
                return  # so evaluate here
            self._evaluator = procs.Child(partial(
                evaluate_each,
                lambda values: eval_test(self.spec, ParamVector(values, digest),
                                         self.test, self.eval_batch),
                procs.received(read_end, self._to_evaluator, len(params))))
        finally:
            os.close(read_end)
            if self._evaluator is None:  # refused, or the fork failed
                os.close(self._to_evaluator)

    def _unread(self) -> int:
        """Bytes sent that the evaluator has not read yet."""
        unread = fcntl.ioctl(self._to_evaluator, termios.FIONREAD, bytes(4))
        return int.from_bytes(unread, sys.byteorder)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, kind, err, tb) -> None:
        evaluator, self._evaluator = self._evaluator, None
        if evaluator is None:
            return
        try:
            os.close(self._to_evaluator)  # the end of the evaluator's input
            if kind is None or issubclass(kind, Exception):
                self._collect(evaluator)
        finally:
            evaluator.kill()

    def _collect(self, evaluator: procs.Child) -> None:
        owed, self._owed = self._owed, []
        rows, err = evaluator.join()
        for record, (loss, acc) in zip(owed, rows):
            record.test_loss, record.test_acc = loss, acc
        if err is None:
            return
        iteration = owed[len(rows)].iteration
        if self.store is not None:
            self.store.discard_from(iteration)
        if isinstance(err, DivergenceError):
            raise diverged_at(iteration, err) from err
        raise err

    def on_checkpoint(self, iteration, task_id, params):
        if self.store is None:
            return
        ckpt_id = self.store.save(task_id, iteration, params)
        # the checkpoint of the parameters entering training has no record
        if self.trace.records and self.trace.records[-1].iteration == iteration:
            self.trace.records[-1].ckpt = ckpt_id
