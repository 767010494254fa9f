"""Linear mode connectivity: interpolate between checkpoints and compare
the loss along the straight line with the loss along the recorded SGD path.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import procs
from .artifacts import LmcCurve, PathCurve
from .autodiff import ModelSpec, ParamVector, check_same_spec
from .data import Dataset
from .config import TrainConfig
from .errors import ArgumentError
from .instrument import eval_test, evaluate_each
from .trainer import CheckpointStore


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


def _evaluate_split(count: int, evaluate, n_procs: int) -> tuple[tuple, tuple]:
    """Losses and accuracies, in index order, of
    `evaluate(i)` -> (loss, accuracy) for every i in range(count).

    The range is cut into at most `n_procs` contiguous slices, and
    `procs.outcomes` evaluates each: in a forked child per slice when there
    is more than one, or here. A slice stops at its first exception, so the
    result does not depend on `n_procs`, and the error raised is the one at
    the lowest index.
    """
    n_procs = max(1, min(n_procs, count))
    bounds = [count * k // n_procs for k in range(n_procs + 1)]
    rows = []
    for outcome in procs.outcomes(
            [partial(evaluate_each, evaluate, range(a, b))
             for a, b in zip(bounds, bounds[1:])], n_procs, "an evaluation process"):
        if isinstance(outcome, Exception):  # the child died
            raise outcome
        part, err = outcome
        if err is not None:
            raise err
        rows.extend(part)
    losses, accuracies = zip(*rows)
    return losses, accuracies


def lmc_curve(
    spec: ModelSpec,
    theta1: ParamVector,
    theta2: ParamVector,
    step: float,
    evalset: Dataset,
    eval_batch: int = TrainConfig.eval_batch,
    procs: int = 1,
) -> LmcCurve:
    """Evaluate the test set at every point of the lambda grid.

    Each grid point is an independent pure evaluation of interpolate(), so
    the points are split over `procs` processes (`_evaluate_split`), with
    the same result for any count.
    """
    lambdas = lambda_grid(step)
    losses, accuracies = _evaluate_split(len(lambdas), lambda i: eval_test(
        spec, interpolate(theta1, theta2, lambdas[i]), evalset, eval_batch), procs)
    return LmcCurve(lambdas=lambdas, losses=losses, accuracies=accuracies)


def barrier(curve: LmcCurve) -> float:
    """Max interior loss minus max endpoint loss; negative when the line
    never rises above its higher endpoint."""
    endpoint_max = max(curve.losses[0], curve.losses[-1])
    interior = curve.losses[1:-1]
    if not interior:
        return 0.0
    return max(interior) - endpoint_max


def sgd_path_loss(
    spec: ModelSpec,
    store: CheckpointStore,
    iterations: list[int] | np.ndarray,
    evalset: Dataset,
    eval_batch: int = TrainConfig.eval_batch,
    procs: int = 1,
) -> PathCurve:
    """Evaluate the test set at each stored trajectory checkpoint.

    Every missing checkpoint is reported before any is read. The checkpoints
    are split over `procs` processes (`_evaluate_split`), and each process
    loads, evaluates and drops them in turn, so memory does not grow with the
    length of the path.
    """
    wanted = sorted(int(i) for i in iterations)
    if not wanted:
        raise ArgumentError("no iterations requested")
    store.require(wanted)
    losses, accuracies = _evaluate_split(len(wanted), lambda i: eval_test(
        spec, store.load_iteration(wanted[i], spec), evalset, eval_batch), procs)
    return PathCurve(iterations=wanted, losses=losses, accuracies=accuracies)
