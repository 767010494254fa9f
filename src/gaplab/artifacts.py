"""The text artifacts and what they hold, without numpy: the trace and its
records, gap metrics, the LMC and SGD-path curves, and their text format
(the CSV tables and the gap key-value document).

A trace holds one record per training iteration with the current batch's
loss/accuracy both before and after its own SGD update, plus full test-set
metrics on evaluation ticks and checkpoint references on checkpoint ticks.
Gap metrics condense a trace into the drop-and-recovery summary around a
task boundary. `gaplab gap` and `gaplab report` read and compute only what
this module holds, so they run without loading numpy.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ArgumentError, FormatError, InsufficientTraceError

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
# Curves
# ---------------------------------------------------------------------------

def _curve_tuples(x, losses, accuracies, x_type) -> tuple[tuple, ...]:
    """The rules every curve keeps: float losses and accuracies, one per
    point, at strictly ascending positions `x` of type `x_type`."""
    x = tuple(map(x_type, x))
    losses = tuple(map(float, losses))
    accuracies = tuple(map(float, accuracies))
    if not (len(x) == len(losses) == len(accuracies)):
        raise ArgumentError("curve arrays must have equal length")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise ArgumentError("curve positions must be strictly ascending")
    return x, losses, accuracies


@dataclass
class LmcCurve:
    """Test loss/accuracy along the line (1-lambda)*theta1 + lambda*theta2."""

    lambdas: tuple[float, ...]
    losses: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        self.lambdas, self.losses, self.accuracies = _curve_tuples(
            self.lambdas, self.losses, self.accuracies, float)
        if len(self.lambdas) < 2 or self.lambdas[0] != 0.0 or self.lambdas[-1] != 1.0:
            raise ArgumentError("lambda grid must run from 0 to 1")


@dataclass
class PathCurve:
    """Test loss/accuracy at stored SGD trajectory checkpoints."""

    iterations: tuple[int, ...]
    losses: tuple[float, ...]
    accuracies: tuple[float, ...]

    def __post_init__(self):
        self.iterations, self.losses, self.accuracies = _curve_tuples(
            self.iterations, self.losses, self.accuracies, int)
        if len(self.iterations) == 0:
            raise ArgumentError("path curve must contain at least one checkpoint")


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
    A wrong header or field count, a ValueError from `parse`, a table
    without rows or a file that is not UTF-8 text raises FormatError
    naming the file (and the line, where there is one)."""
    items = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
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


LMC_HEADER = ["lambda", "loss", "accuracy"]
PATH_HEADER = ["iter", "loss", "accuracy"]


def write_lmc_csv(path: str | Path, curve: LmcCurve) -> None:
    write_table(path, LMC_HEADER, (
        [fmt_float(lam), fmt_float(loss), fmt_float(acc)]
        for lam, loss, acc in zip(curve.lambdas, curve.losses, curve.accuracies)))


def read_lmc_csv(path: str | Path) -> LmcCurve:
    rows = read_table(path, LMC_HEADER, lambda row: [float(v) for v in row], "curve")
    return LmcCurve(*zip(*rows))


def write_path_csv(path: str | Path, curve: PathCurve) -> None:
    write_table(path, PATH_HEADER, (
        [it, fmt_float(loss), fmt_float(acc)]
        for it, loss, acc in zip(curve.iterations, curve.losses, curve.accuracies)))


def read_path_csv(path: str | Path) -> PathCurve:
    rows = read_table(path, PATH_HEADER,
                      lambda row: (int(row[0]), float(row[1]), float(row[2])), "curve")
    return PathCurve(*zip(*rows))


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
