"""Linear mode connectivity: interpolate between checkpoints and compare
the loss along the straight line with the loss along the recorded SGD path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ModelSpec, ParamVector, check_same_spec
from .data import Dataset
from .errors import ArgumentError, FormatError
from .instrument import eval_test
from .trainer import CheckpointStore


@dataclass
class LmcCurve:
    """Test loss/accuracy along the line (1-lambda)*theta1 + lambda*theta2."""

    lambdas: np.ndarray
    losses: np.ndarray
    accuracies: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if not (len(self.lambdas) == len(self.losses) == len(self.accuracies)):
            raise ArgumentError("curve arrays must have equal length")
        if len(self.lambdas) < 2:
            raise ArgumentError("curve needs at least the two endpoints")
        if self.lambdas[0] != 0.0 or self.lambdas[-1] != 1.0:
            raise ArgumentError("lambda grid must start at 0 and end at 1")
        if np.any(np.diff(self.lambdas) <= 0):
            raise ArgumentError("lambda grid must be strictly ascending")


@dataclass
class PathCurve:
    """Test loss/accuracy at stored SGD trajectory checkpoints."""

    iterations: np.ndarray
    losses: np.ndarray
    accuracies: np.ndarray

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if not (len(self.iterations) == len(self.losses) == len(self.accuracies)):
            raise ArgumentError("curve arrays must have equal length")
        if len(self.iterations) == 0:
            raise ArgumentError("path curve must contain at least one checkpoint")
        if np.any(np.diff(self.iterations) <= 0):
            raise ArgumentError("iterations must be strictly increasing")


def interpolate(theta1: ParamVector, theta2: ParamVector, lam: float) -> ParamVector:
    """Convex combination with lambda=0 at theta1 and lambda=1 at theta2.

    Written as (1-lam)*theta1 + lam*theta2 so that swapping the endpoints
    and replacing lam with 1-lam gives the bit-identical result.
    """
    check_same_spec(theta1, theta2)
    if not 0.0 <= lam <= 1.0:
        raise ArgumentError(f"lambda must be in [0, 1], got {lam}")
    values = (1.0 - lam) * theta1.values + lam * theta2.values
    return ParamVector(values=values, spec_digest=theta1.spec_digest)


def check_step(step: float) -> None:
    if not 0.0 < step <= 0.5:
        raise ArgumentError(f"step must satisfy 0 < step <= 0.5, got {step}")


def lambda_grid(step: float) -> np.ndarray:
    """Ascending grid {0, step, 2*step, ...} with 1 always appended."""
    check_step(step)
    n_interior = int(np.floor(1.0 / step * (1 - 1e-12)))
    grid = [i * step for i in range(n_interior + 1)]
    grid.append(1.0)
    return np.asarray(grid, dtype=np.float64)


def lmc_curve(
    spec: ModelSpec,
    theta1: ParamVector,
    theta2: ParamVector,
    step: float,
    evalset: Dataset,
    eval_batch: int = 256,
) -> LmcCurve:
    """Evaluate the test set at every point of the lambda grid.

    Each grid point is an independent pure evaluation of interpolate(),
    so the points may be computed in any order or in parallel.
    """
    lambdas = lambda_grid(step)
    losses = np.empty(len(lambdas))
    accuracies = np.empty(len(lambdas))
    for i, lam in enumerate(lambdas):
        theta = interpolate(theta1, theta2, lam)
        losses[i], accuracies[i] = eval_test(spec, theta, evalset, eval_batch)
    return LmcCurve(lambdas=lambdas, losses=losses, accuracies=accuracies)


def barrier(curve: LmcCurve) -> float:
    """Max interior loss minus max endpoint loss; negative when the line
    never rises above its higher endpoint."""
    endpoint_max = max(curve.losses[0], curve.losses[-1])
    interior = curve.losses[1:-1]
    if len(interior) == 0:
        return 0.0
    return float(interior.max() - endpoint_max)


def sgd_path_loss(
    spec: ModelSpec,
    store: CheckpointStore,
    iterations: list[int] | np.ndarray,
    evalset: Dataset,
    eval_batch: int = 256,
) -> PathCurve:
    """Evaluate the test set at each stored trajectory checkpoint."""
    wanted = sorted(int(i) for i in iterations)
    if not wanted:
        raise ArgumentError("no iterations requested")
    params = store.load_many(wanted, spec)
    losses = np.empty(len(wanted))
    accuracies = np.empty(len(wanted))
    for i, theta in enumerate(params):
        losses[i], accuracies[i] = eval_test(spec, theta, evalset, eval_batch)
    return PathCurve(iterations=np.asarray(wanted), losses=losses, accuracies=accuracies)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

LMC_HEADER = ["lambda", "loss", "accuracy"]
PATH_HEADER = ["iter", "loss", "accuracy"]


def write_lmc_csv(path: str | Path, curve: LmcCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LMC_HEADER)
        for lam, loss, acc in zip(curve.lambdas, curve.losses, curve.accuracies):
            writer.writerow([f"{lam:.9g}", f"{loss:.9g}", f"{acc:.9g}"])


def read_lmc_csv(path: str | Path) -> LmcCurve:
    lambdas, losses, accuracies = _read_curve_csv(path, LMC_HEADER)
    return LmcCurve(lambdas=lambdas, losses=losses, accuracies=accuracies)


def write_path_csv(path: str | Path, curve: PathCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATH_HEADER)
        for it, loss, acc in zip(curve.iterations, curve.losses, curve.accuracies):
            writer.writerow([int(it), f"{loss:.9g}", f"{acc:.9g}"])


def read_path_csv(path: str | Path) -> PathCurve:
    iterations, losses, accuracies = _read_curve_csv(path, PATH_HEADER)
    return PathCurve(iterations=iterations.astype(np.int64), losses=losses, accuracies=accuracies)


def _read_curve_csv(path: str | Path, header: list[str]):
    first, second, third = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty curve file") from None
        if got != header:
            raise FormatError(f"{path}: line 1: unexpected header {got}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise FormatError(f"{path}: line {line_no}: expected 3 fields, got {len(row)}")
            try:
                first.append(float(row[0]))
                second.append(float(row[1]))
                third.append(float(row[2]))
            except ValueError as err:
                raise FormatError(f"{path}: line {line_no}: {err}") from None
    if not first:
        raise FormatError(f"{path}: curve contains no rows")
    return np.asarray(first), np.asarray(second), np.asarray(third)
