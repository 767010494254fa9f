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
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ArgumentError, FormatError, InsufficientTraceError

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


@dataclass(frozen=True)
class GapParams:
    """The settings of compute_gap: the config's `analysis` keys of the same
    names and the flags of `gaplab gap`, with their defaults and rules."""

    baseline_evals: int = 5
    recovery_window: int = 5
    tolerance: float = 0.0
    window: int = 2000

    def __post_init__(self):
        if self.baseline_evals < 1 or self.recovery_window < 1 or self.window < 1:
            raise ArgumentError("baseline_evals, recovery_window and window must be >= 1")
        if not self.tolerance >= 0:
            raise ArgumentError(f"tolerance must be >= 0, got {self.tolerance}")


def compute_gap(trace: TrainTrace, boundary_iteration: int,
                params: GapParams = GapParams()) -> GapMetrics:
    """Extract GapMetrics from the evaluation ticks of a trace.

    Only records carrying test accuracy participate; everything between
    evaluation ticks is ignored. The baseline is the mean of the last
    `baseline_evals` pre-boundary evaluations, and the minimum is taken
    over post-boundary evaluations within `window` iterations.
    """
    evals = trace.eval_records()
    pre = [r for r in evals if r.iteration <= boundary_iteration]
    post = [
        r
        for r in evals
        if boundary_iteration < r.iteration <= boundary_iteration + params.window
    ]
    if len(pre) < params.baseline_evals:
        raise InsufficientTraceError(
            f"need {params.baseline_evals} pre-boundary evals, found {len(pre)}"
        )
    if not post:
        raise InsufficientTraceError("no post-boundary evals inside the window")

    baseline = sum(r.test_acc for r in pre[-params.baseline_evals:]) / params.baseline_evals
    min_rec = min(post, key=lambda r: r.test_acc)  # ties: earliest wins
    threshold = baseline - params.tolerance
    recovery_iteration = None
    for i in range(len(post) - params.recovery_window + 1):
        if all(r.test_acc >= threshold for r in post[i:i + params.recovery_window]):
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


def _finite(field: str) -> float:
    """A float field; a number that is not finite (nan, inf) is refused."""
    x = float(field)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {field!r}")
    return x


# Each CSV table's columns in file order, header -> (text of a value, parse
# of a field): integers, finite floats, and empty fields for unmeasured values
_INT = (str, int)
_FLOAT = (fmt_float, _finite)
_UNMEASURED_FLOAT = (fmt_float, lambda field: _finite(field) if field else None)
TRACE_COLUMNS = {
    "iter": _INT, "task": _INT,
    "batch_loss_pre": _FLOAT, "batch_acc_pre": _FLOAT,
    "batch_loss_post": _FLOAT, "batch_acc_post": _FLOAT,
    "test_loss": _UNMEASURED_FLOAT, "test_acc": _UNMEASURED_FLOAT,
    "ckpt": (lambda ckpt: ckpt or "", lambda field: field or None),
}
LMC_COLUMNS = {"lambda": _FLOAT, "loss": _FLOAT, "accuracy": _FLOAT}
PATH_COLUMNS = {"iter": _INT, "loss": _FLOAT, "accuracy": _FLOAT}


def write_table(path: str | Path, columns: dict, rows) -> None:
    """A CSV table: the header line, then one line per row of values, each
    value written by its column's text function."""
    texts = [text for text, _ in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([text(v) for text, v in zip(texts, row)] for row in rows)


def read_table(path: str | Path, columns: dict, what: str) -> list[list]:
    """The parsed values of every row of a CSV table with the given columns.
    A wrong header or field count, a field its column does not parse, a
    csv.Error, a table without rows or a file that is not UTF-8 text raises
    FormatError naming the file (and the line, where there is one)."""
    parsers = [parse for _, parse in columns.values()]
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got is None:
                raise FormatError(f"{path}: empty {what} file")
            if got != list(columns):
                raise FormatError(f"{path}: line 1: unexpected header {got}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(columns):
                    raise FormatError(
                        f"{path}: line {line_no}: expected {len(columns)} fields, got {len(row)}"
                    )
                try:
                    rows.append([parse(field) for parse, field in zip(parsers, row)])
                except ValueError as err:
                    raise FormatError(f"{path}: line {line_no}: {err}") from None
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as err:  # a field past the csv module's size limit, say
        raise FormatError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise FormatError(f"{path}: {what} contains no records")
    return rows


def write_trace_csv(path: str | Path, trace: TrainTrace) -> None:
    # a record's attributes are its fields, in the order of TRACE_COLUMNS
    write_table(path, TRACE_COLUMNS, (vars(r).values() for r in trace.records))


def read_trace_csv(path: str | Path) -> TrainTrace:
    """The trace of a trace.csv, whose iterations must strictly increase."""
    records = [TraceRecord(*row) for row in read_table(path, TRACE_COLUMNS, "trace")]
    for line_no, (prev, record) in enumerate(zip(records, records[1:]), start=3):
        if record.iteration <= prev.iteration:
            raise FormatError(f"{path}: line {line_no}: iterations must strictly increase")
    return TrainTrace(records=records)


def write_lmc_csv(path: str | Path, curve: LmcCurve) -> None:
    write_table(path, LMC_COLUMNS, zip(curve.lambdas, curve.losses, curve.accuracies))


def _read_curve(path: str | Path, columns: dict, curve_type):
    """A curve from its CSV table; rows that break a curve rule raise
    FormatError naming the file."""
    try:
        return curve_type(*zip(*read_table(path, columns, "curve")))
    except ArgumentError as err:
        raise FormatError(f"{path}: {err}") from None


def read_lmc_csv(path: str | Path) -> LmcCurve:
    return _read_curve(path, LMC_COLUMNS, LmcCurve)


def write_path_csv(path: str | Path, curve: PathCurve) -> None:
    write_table(path, PATH_COLUMNS, zip(curve.iterations, curve.losses, curve.accuracies))


def read_path_csv(path: str | Path) -> PathCurve:
    return _read_curve(path, PATH_COLUMNS, PathCurve)


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
