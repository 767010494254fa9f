"""Measurement layer: per-iteration traces, batch probes, gap metrics.

A trace holds one record per training iteration with the current batch's
loss/accuracy both before and after its own SGD update, plus full test-set
metrics on evaluation ticks and checkpoint references on checkpoint ticks.
Gap metrics condense a trace into the drop-and-recovery summary around a
task boundary.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ModelSpec, ParamVector, accuracy, forward, softmax_cross_entropy
from .data import Dataset
from .errors import ArgumentError, FormatError, InsufficientTraceError
from .trainer import CheckpointStore, TrainingHooks

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
    boundaries: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

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


def batch_probe(
    spec: ModelSpec,
    params_before: ParamVector,
    params_after: ParamVector,
    batch: np.ndarray,
    labels: np.ndarray,
    logits_pre: np.ndarray | None = None,
) -> tuple[float, float, float, float]:
    """Loss/accuracy of one batch before and after its SGD update.

    When the pre-update logits from the backward pass are supplied, no
    extra forward pass is spent on the "before" side.
    """
    if logits_pre is None:
        logits_pre = forward(spec, params_before, batch)
    loss_pre, _ = softmax_cross_entropy(logits_pre, labels)
    acc_pre = accuracy(logits_pre, labels)
    logits_post = forward(spec, params_after, batch)
    loss_post, _ = softmax_cross_entropy(logits_post, labels)
    acc_post = accuracy(logits_post, labels)
    return acc_pre, acc_post, loss_pre, loss_post


class TraceRecorder(TrainingHooks):
    """Accumulates the training trace and serves the trainer's hook points."""

    def __init__(
        self,
        spec: ModelSpec,
        test: Dataset,
        eval_batch: int = 256,
        store: CheckpointStore | None = None,
        extra_checkpoint_iterations: set[int] | None = None,
    ):
        self.spec = spec
        self.test = test
        self.eval_batch = eval_batch
        self.store = store
        self.extra_checkpoint_iterations = set(extra_checkpoint_iterations or ())
        self.trace = TrainTrace()
        self._current: TraceRecord | None = None

    def on_pre_update(self, iteration, task_id, loss, logits, labels):
        self._current = TraceRecord(
            iteration=iteration,
            task=task_id,
            batch_loss_pre=loss,
            batch_acc_pre=accuracy(logits, labels),
            batch_loss_post=float("nan"),
            batch_acc_post=float("nan"),
        )

    def on_post_update(self, iteration, task_id, params, batch, labels):
        logits = forward(self.spec, params, batch)
        loss, _ = softmax_cross_entropy(logits, labels)
        self._current.batch_loss_post = loss
        self._current.batch_acc_post = accuracy(logits, labels)

    def on_eval(self, iteration, params):
        loss, acc = eval_test(self.spec, params, self.test, self.eval_batch)
        self._current.test_loss = loss
        self._current.test_acc = acc

    def on_checkpoint(self, iteration, task_id, params):
        if self.store is None:
            return
        ckpt_id = self.store.save(task_id, iteration, params)
        if self._current is not None and self._current.iteration == iteration:
            self._current.ckpt = ckpt_id

    def wants_checkpoint(self, iteration) -> bool:
        return self.store is not None and iteration in self.extra_checkpoint_iterations

    def on_iteration_end(self, iteration):
        self.trace.records.append(self._current)
        self._current = None

    def on_task_end(self, task_id, iteration):
        self.trace.boundaries.append(iteration)


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


def check_gap_args(baseline_evals: int, recovery_window: int, window: int) -> None:
    if baseline_evals < 1 or recovery_window < 1 or window < 1:
        raise ArgumentError("baseline_evals, recovery_window and window must be >= 1")


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
    check_gap_args(baseline_evals, recovery_window, window)
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
# Serialization: trace CSV and the gap key-value document
# ---------------------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.9g}"


def write_trace_csv(path: str | Path, trace: TrainTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in trace.records:
            writer.writerow(
                [
                    r.iteration,
                    r.task,
                    _fmt(r.batch_loss_pre),
                    _fmt(r.batch_acc_pre),
                    _fmt(r.batch_loss_post),
                    _fmt(r.batch_acc_post),
                    _fmt(r.test_loss),
                    _fmt(r.test_acc),
                    r.ckpt or "",
                ]
            )


def read_trace_csv(path: str | Path) -> TrainTrace:
    trace = TrainTrace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty trace file") from None
        if header != TRACE_HEADER:
            raise FormatError(f"{path}: line 1: unexpected header {header}")
        prev_task = None
        prev_iteration = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_HEADER):
                raise FormatError(
                    f"{path}: line {line_no}: expected {len(TRACE_HEADER)} fields, got {len(row)}"
                )
            try:
                record = TraceRecord(
                    iteration=int(row[0]),
                    task=int(row[1]),
                    batch_loss_pre=float(row[2]),
                    batch_acc_pre=float(row[3]),
                    batch_loss_post=float(row[4]),
                    batch_acc_post=float(row[5]),
                    test_loss=float(row[6]) if row[6] else None,
                    test_acc=float(row[7]) if row[7] else None,
                    ckpt=row[8] or None,
                )
            except ValueError as err:
                raise FormatError(f"{path}: line {line_no}: {err}") from None
            if prev_iteration is not None and record.iteration <= prev_iteration:
                raise FormatError(
                    f"{path}: line {line_no}: iterations must strictly increase"
                )
            if prev_task is not None and record.task != prev_task:
                trace.boundaries.append(prev_iteration)
            prev_task = record.task
            prev_iteration = record.iteration
            trace.records.append(record)
    if not trace.records:
        raise FormatError(f"{path}: trace contains no records")
    trace.boundaries.append(trace.records[-1].iteration)
    return trace


def format_gap_doc(metrics: GapMetrics, label: str | None = None) -> str:
    lines = []
    if label is not None:
        lines.append(f"[{label}]")
    lines.append(f"pre_switch_acc = {metrics.pre_switch_acc:.9g}")
    lines.append(f"min_acc = {metrics.min_acc:.9g}")
    lines.append(f"gap_depth = {metrics.gap_depth:.9g}")
    lines.append(f"min_iteration = {metrics.min_iteration}")
    recovery = "none" if metrics.recovery_iteration is None else str(metrics.recovery_iteration)
    lines.append(f"recovery_iteration = {recovery}")
    lines.append(f"recovered = {'true' if metrics.recovered else 'false'}")
    return "\n".join(lines) + "\n"


def format_gap_docs(per_seed: dict[int, GapMetrics]) -> str:
    """Per-seed sections followed by a median summary over the seeds."""
    parts = [format_gap_doc(m, label=f"seed {s}") for s, m in sorted(per_seed.items())]
    values = list(per_seed.values())
    lines = ["[median]"]
    for name in ("pre_switch_acc", "min_acc", "gap_depth", "min_iteration"):
        lines.append(f"{name} = {statistics.median(getattr(m, name) for m in values):.9g}")
    recovered = [m.recovery_iteration for m in values if m.recovered]
    recovery = f"{statistics.median(recovered):.9g}" if recovered else "none"
    lines.append(f"recovery_iteration = {recovery}")
    lines.append(f"recovered_count = {len(recovered)}/{len(values)}")
    parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)
