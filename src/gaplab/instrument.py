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
import pickle
import select
import signal
import statistics
import sys
import termios
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import ModelSpec, ParamVector, accuracy, forward, softmax_cross_entropy
from .data import Dataset
from .errors import (ArgumentError, DivergenceError, FormatError, GapLabError,
                     InsufficientTraceError)
from .trainer import CheckpointStore, TrainingHooks, diverged_at

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

    def __len__(self) -> int:
        return len(self.records)

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
    eval_batch: int = 256,
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


class ForkedEvaluation:
    """A forked evaluation process: it runs `work()` and sends the result
    back, pickled, through a pipe.

    The child never returns into the caller: it ends in `os._exit`. `join`
    waits for the result and reaps the child; `kill` kills and reaps a child
    that `join` has not, so callers call it on every exit path. The caller
    decides whether forking is safe.
    """

    def __init__(self, work):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    pickle.dump(work(), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        self.pid, self._read_end = pid, read_end

    def join(self):
        """The result of `work()`. A child that died raises GapLabError."""
        with open(self._read_end, "rb", closefd=False) as pipe:
            payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        os.close(self._read_end)
        self._read_end = None
        if code != 0:
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise GapLabError(f"an evaluation process died ({how})")
        return pickle.loads(payload)

    def ended(self) -> bool:
        """Whether the child has ended, or sent its result: then its pipe
        reads without waiting."""
        return bool(select.select([self._read_end], [], [], 0)[0])

    def kill(self) -> None:
        if self._read_end is not None:
            os.close(self._read_end)
            self._read_end = None
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _evaluate_unshown(evaluate, items) -> tuple[list, Exception | None, list]:
    """`evaluate_each(evaluate, items)` and, for each item evaluated (a
    failing one too), the warnings that by the filters in force it would
    have shown, as (message, filename, line number)."""
    shown = []

    def evaluate_unshown(item):
        with warnings.catch_warnings(record=True) as caught:
            try:
                return evaluate(item)
            finally:
                shown.append([(w.message, w.filename, w.lineno) for w in caught])

    rows, err = evaluate_each(evaluate_unshown, items)
    return rows, err, shown


def _registry(filename: str) -> tuple[str | None, dict | None]:
    """The name and warning registry of the module loaded from `filename`,
    the registry that a warning raised there is shown once by."""
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            return module.__name__, vars(module).setdefault("__warningregistry__", {})
    return None, None


def _show(message: Warning, filename: str, lineno: int) -> None:
    """Show a warning raised at `filename:lineno`, in another process or
    earlier, as if raised here now: through the filters, and once only by
    the registry of the module there."""
    module, registry = _registry(filename)
    warnings.warn_explicit(message, type(message), filename, lineno,
                           module=module, registry=registry)


def _forget(message: Warning, filename: str, lineno: int) -> None:
    """Undo the registering of a shown warning, so that `_show` decides
    afresh whether to show it: the keys of the "default", "module" and
    "once" actions."""
    text, category = str(message), type(message)
    registry = _registry(filename)[1]
    if registry is not None:
        registry.pop((text, category, lineno), None)
        registry.pop((text, category, 0), None)
    warnings.onceregistry.pop((text, category), None)


def _received(read_end: int, write_end: int, count: int):
    """Each vector of `count` float64 values sent through a pipe, read into
    one reused array, until the sending end is closed. The pipe is read
    unbuffered, so that a vector stays in it until the one before has been
    used. As a generator it starts in the process that iterates it: the
    evaluator child, which first closes its own copy of the sending end."""
    os.close(write_end)
    values = np.empty(count)
    view = memoryview(values).cast("B")
    with open(read_end, "rb", buffering=0) as pipe:
        while True:
            filled = 0
            while filled < len(view):
                got = pipe.readinto(view[filled:])
                if not got:
                    return
                filled += got
            yield values


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
    stops at the failing iteration. While the evaluator runs, this
    process's warnings are held back; the `with` block's end shows them and
    the evaluator's in the order of the iterations that raised them, up to
    a failing evaluation, through the filters and once per place, as one
    process would have shown them. An interrupt only kills the evaluator.
    """

    def __init__(
        self,
        spec: ModelSpec,
        test: Dataset,
        eval_batch: int = 256,
        store: CheckpointStore | None = None,
        forked: bool = False,
    ):
        self.spec = spec
        self.test = test
        self.eval_batch = eval_batch
        self.store = store
        self.forked = forked
        self.trace = TrainTrace()
        self._evaluator: ForkedEvaluation | None = None
        self._to_evaluator = -1  # the sending end of the evaluator's input pipe
        # records sent, in order, each with the count of warnings held back
        # before it was sent
        self._owed: list[tuple[TraceRecord, int]] = []
        self._held: list[tuple[Warning, str, int]] = []  # this process's warnings
        self._showwarning = None  # warnings.showwarning while they are held

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
        if self._evaluator is not None and self._evaluator.ended():
            raise _EvaluatorEnded
        if self._evaluator is None or self._unread():
            record.test_loss, record.test_acc = eval_test(
                self.spec, params, self.test, self.eval_batch)
            return
        self._owed.append((record, len(self._held)))
        # an evaluator that ended since raises BrokenPipeError here, and
        # leaving the `with` block then raises what ended it
        view = memoryview(np.ascontiguousarray(params.values)).cast("B")
        while view:
            view = view[os.write(self._to_evaluator, view):]

    def _fork_evaluator(self, params: ParamVector) -> None:
        self.forked = False  # one evaluator at most
        nbytes, digest = params.values.nbytes, params.spec_digest
        read_end, self._to_evaluator = os.pipe()
        try:  # room for a whole vector, so that a hand-off never waits
            fcntl.fcntl(self._to_evaluator, fcntl.F_SETPIPE_SZ, nbytes)
        except OSError:  # past the system's limit: a hand-off could wait, so
            os.close(read_end)  # evaluate here
            os.close(self._to_evaluator)
            return
        self._evaluator = ForkedEvaluation(partial(
            _evaluate_unshown,
            lambda values: eval_test(self.spec, ParamVector(values, digest),
                                     self.test, self.eval_batch),
            _received(read_end, self._to_evaluator, len(params))))
        os.close(read_end)
        self._showwarning, warnings.showwarning = warnings.showwarning, self._hold

    def _hold(self, message, category, filename, lineno, file=None, line=None):
        self._held.append((message, filename, lineno))

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
        warnings.showwarning = self._showwarning
        try:
            os.close(self._to_evaluator)  # the end of the evaluator's input
            if kind is None or issubclass(kind, Exception):
                self._collect(evaluator)
            else:
                self._show_held()
        finally:
            evaluator.kill()

    def _show_held(self, stop: int | None = None, evaluated=()) -> None:
        """Show the warnings held back (before the `stop`-th, if given) with
        those of each hand-off's evaluation merged in after the warnings
        held back before it, as one process would have shown them.
        `evaluated` pairs each hand-off's count of warnings held back before
        it with the warnings of its evaluation."""
        held, self._held = self._held, []
        for warning in held:
            _forget(*warning)
        start = 0
        for mark, shown in evaluated:
            for warning in held[start:mark] + shown:
                _show(*warning)
            start = mark
        for warning in held[start:stop]:
            _show(*warning)

    def _collect(self, evaluator: ForkedEvaluation) -> None:
        owed, self._owed = self._owed, []
        try:
            rows, err, shown = evaluator.join()
        except GapLabError:  # it died: only this process's warnings are known
            self._show_held()
            raise
        for (record, _), (loss, acc) in zip(owed, rows):
            record.test_loss, record.test_acc = loss, acc
        marks = [mark for _, mark in owed]
        # one process stops at a failing evaluation: nothing held back after
        # it is shown
        self._show_held(None if err is None else marks[len(rows)], zip(marks, shown))
        if err is None:
            return
        iteration = owed[len(rows)][0].iteration
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


def format_gap_docs(per_seed: dict[int, GapMetrics]) -> str:
    """Per-seed sections followed by a median summary over the seeds."""
    parts = [format_gap_doc(m, label=f"seed {s}") for s, m in sorted(per_seed.items())]
    values = list(per_seed.values())
    medians = [(name, statistics.median(getattr(m, name) for m in values))
               for name in ("pre_switch_acc", "min_acc", "gap_depth", "min_iteration")]
    recovered = [m.recovery_iteration for m in values if m.recovered]
    medians.append(("recovery_iteration", statistics.median(recovered) if recovered else None))
    medians.append(("recovered_count", f"{len(recovered)}/{len(values)}"))
    parts.append(_gap_section("median", medians))
    return "\n".join(parts)
