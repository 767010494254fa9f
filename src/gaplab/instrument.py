"""Measurement layer: per-iteration traces, batch probes, gap metrics.

A trace holds one record per training iteration with the current batch's
loss/accuracy both before and after its own SGD update, plus full test-set
metrics on evaluation ticks and checkpoint references on checkpoint ticks.
Gap metrics condense a trace into the drop-and-recovery summary around a
task boundary.
"""

from __future__ import annotations

import csv
import fcntl
import os
import sys
import termios
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import procs
from .autodiff import ModelSpec, ParamVector, accuracy, forward, softmax_cross_entropy
from .data import Dataset
from .errors import ArgumentError, DivergenceError, FormatError, InsufficientTraceError
from .trainer import CheckpointStore, TrainConfig, TrainingHooks, diverged_at

TRACE_HEADER = [
    "iter",
    "task",
    "batch_loss_pre",
    "batch_acc_pre",
    "batch_loss_post",
    "batch_acc_post",
    "test_loss",
    "test_acc",
    "ckpt",
]


@dataclass
class TraceRecord:
    iteration: int
    task: int
    batch_loss_pre: float
    batch_acc_pre: float
    batch_loss_post: float
    batch_acc_post: float
    test_loss: float | None = None
    test_acc: float | None = None
    ckpt: str | None = None


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)

    @property
    def boundaries(self) -> list[int]:
        """The last iteration of each task in the trace: every iteration
        after which the task changes, then the last iteration."""
        records = self.records
        if not records:
            return []
        return [prev.iteration for prev, record in zip(records, records[1:])
                if record.task != prev.task] + [records[-1].iteration]

    def eval_records(self) -> list[TraceRecord]:
        return [r for r in self.records if r.test_acc is not None]


def eval_test(
    spec: ModelSpec,
    params: ParamVector,
    test: Dataset,
    eval_batch: int = TrainConfig.eval_batch,
) -> tuple[float, float]:
    """Exact full-test-set mean loss and accuracy in fixed-size batches."""
    if test.n == 0:
        raise ArgumentError("empty evaluation set")
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


# ---------------------------------------------------------------------------
# Gap metrics
# ---------------------------------------------------------------------------

@dataclass
class GapMetrics:
    """Drop-and-recovery summary of test accuracy around a task boundary.

    Iterations are offsets from the boundary. `recovery_iteration` is the
    first post-boundary evaluation from which `recovery_window` consecutive
    evaluations all sit at or above the pre-switch baseline (minus the
    tolerance); it is None when that never happens inside the window.
    """

    pre_switch_acc: float
    min_acc: float
    gap_depth: float
    min_iteration: int
    recovery_iteration: int | None
    recovered: bool


def check_gap_args(baseline_evals: int, recovery_window: int, tolerance: float,
                   window: int) -> None:
    """The argument rules of compute_gap, also used to check a config early."""
    if baseline_evals < 1 or recovery_window < 1 or window < 1:
        raise ArgumentError("baseline_evals, recovery_window and window must be >= 1")
    if not tolerance >= 0:
        raise ArgumentError(f"tolerance must be >= 0, got {tolerance}")


def compute_gap(
    trace: TrainTrace,
    boundary_iteration: int,
    baseline_evals: int = 5,
    recovery_window: int = 5,
    tolerance: float = 0.0,
    window: int = 2000,
) -> GapMetrics:
    """Extract GapMetrics from the evaluation ticks of a trace.

    Only records carrying test accuracy participate; everything between
    evaluation ticks is ignored. The baseline is the mean of the last
    `baseline_evals` pre-boundary evaluations, and the minimum is taken
    over post-boundary evaluations within `window` iterations.
    """
    check_gap_args(baseline_evals, recovery_window, tolerance, window)
    evals = trace.eval_records()
    pre = [r for r in evals if r.iteration <= boundary_iteration]
    post = [
        r
        for r in evals
        if boundary_iteration < r.iteration <= boundary_iteration + window
    ]
    if len(pre) < baseline_evals:
        raise InsufficientTraceError(
            f"need {baseline_evals} pre-boundary evals, found {len(pre)}"
        )
    if not post:
        raise InsufficientTraceError("no post-boundary evals inside the window")

    baseline = sum(r.test_acc for r in pre[-baseline_evals:]) / baseline_evals
    min_rec = min(post, key=lambda r: r.test_acc)  # ties: earliest wins
    threshold = baseline - tolerance
    recovery_iteration = None
    for i in range(len(post) - recovery_window + 1):
        if all(r.test_acc >= threshold for r in post[i:i + recovery_window]):
            recovery_iteration = post[i].iteration - boundary_iteration
            break
    return GapMetrics(
        pre_switch_acc=baseline,
        min_acc=min_rec.test_acc,
        gap_depth=baseline - min_rec.test_acc,
        min_iteration=min_rec.iteration - boundary_iteration,
        recovery_iteration=recovery_iteration,
        recovered=recovery_iteration is not None,
    )


# ---------------------------------------------------------------------------
# Artifact text format: the CSV tables (trace, LMC and path curves) and the
# gap key-value document
# ---------------------------------------------------------------------------

def fmt_float(x: float | None) -> str:
    """The number format of every text artifact: 9 significant digits.
    None, a value that was not measured, is an empty field."""
    return "" if x is None else f"{x:.9g}"


def write_table(path: str | Path, header: list[str], rows) -> None:
    """A CSV table: the header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str | Path, header: list[str], parse, what: str) -> list:
    """`parse(row)` of every row of a CSV table with the given header.
    A wrong header or field count, a ValueError from `parse` or a table
    without rows raises FormatError naming the file and the line."""
    items = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            raise FormatError(f"{path}: empty {what} file")
        if got != header:
            raise FormatError(f"{path}: line 1: unexpected header {got}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                items.append(parse(row))
            except ValueError as err:
                raise FormatError(f"{path}: line {line_no}: {err}") from None
    if not items:
        raise FormatError(f"{path}: {what} contains no records")
    return items


def _trace_row(r: TraceRecord) -> list:
    return [r.iteration, r.task, fmt_float(r.batch_loss_pre), fmt_float(r.batch_acc_pre),
            fmt_float(r.batch_loss_post), fmt_float(r.batch_acc_post),
            fmt_float(r.test_loss), fmt_float(r.test_acc), r.ckpt or ""]


def _trace_record(row: list[str]) -> TraceRecord:
    """The inverse of _trace_row: empty test fields were not evaluated."""
    return TraceRecord(int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                       float(row[4]), float(row[5]), float(row[6]) if row[6] else None,
                       float(row[7]) if row[7] else None, row[8] or None)


def write_trace_csv(path: str | Path, trace: TrainTrace) -> None:
    write_table(path, TRACE_HEADER, map(_trace_row, trace.records))


def read_trace_csv(path: str | Path) -> TrainTrace:
    """The trace of a trace.csv, whose iterations must strictly increase."""
    records = read_table(path, TRACE_HEADER, _trace_record, "trace")
    for line_no, (prev, record) in enumerate(zip(records, records[1:]), start=3):
        if record.iteration <= prev.iteration:
            raise FormatError(f"{path}: line {line_no}: iterations must strictly increase")
    return TrainTrace(records=records)


def _gap_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _gap_section(label: str | None, items) -> str:
    lines = [] if label is None else [f"[{label}]"]
    lines += [f"{key} = {_gap_value(value)}" for key, value in items]
    return "\n".join(lines) + "\n"


def format_gap_doc(metrics: GapMetrics, label: str | None = None) -> str:
    """One `key = value` line per field of `metrics`, under an optional label."""
    return _gap_section(label, asdict(metrics).items())


def _median(values):
    """The median of a non-empty iterable of numbers, with the arithmetic of
    `statistics.median` (which would load `decimal` into every process): the
    middle value for an odd count, else the mean of the two middle values."""
    data = sorted(values)
    i = len(data) // 2
    if len(data) % 2 == 1:
        return data[i]
    return (data[i - 1] + data[i]) / 2


def format_gap_docs(per_seed: dict[int, GapMetrics]) -> str:
    """Per-seed sections followed by a summary of the seeds' medians (`_median`:
    an even count of seeds takes the mean of the two middle values)."""
    parts = [format_gap_doc(m, label=f"seed {s}") for s, m in sorted(per_seed.items())]
    values = list(per_seed.values())
    medians = [(name, _median(getattr(m, name) for m in values))
               for name in ("pre_switch_acc", "min_acc", "gap_depth", "min_iteration")]
    recovered = [m.recovery_iteration for m in values if m.recovered]
    medians.append(("recovery_iteration", _median(recovered) if recovered else None))
    medians.append(("recovered_count", f"{len(recovered)}/{len(values)}"))
    parts.append(_gap_section("median", medians))
    return "\n".join(parts)
