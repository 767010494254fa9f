"""Interpolation identities, barrier arithmetic, and path evaluation."""

import tracemalloc

import numpy as np
import pytest

from gaplab.artifacts import (LmcCurve, PathCurve, read_lmc_csv, read_path_csv,
                              write_lmc_csv, write_path_csv)
from gaplab.autodiff import ParamVector, init_params, mlp
from gaplab.connectivity import barrier, interpolate, lambda_grid, lmc_curve, sgd_path_loss
from gaplab.data import gen_blobs
from gaplab.errors import ArgumentError, MissingCheckpointError, SpecMismatchError
from gaplab.instrument import eval_test
from gaplab.rng import Rng
from gaplab.trainer import CheckpointStore

SPEC = mlp(4, [6], 3)


def random_pair(seed):
    rng = Rng(seed)
    n = SPEC.param_count
    a = ParamVector(rng.normals(n), SPEC.digest)
    b = ParamVector(rng.normals(n), SPEC.digest)
    return a, b


# --- interpolation identities --------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_endpoints_exact(seed):
    a, b = random_pair(seed)
    np.testing.assert_array_equal(interpolate(a, b, 0.0).values, a.values)
    np.testing.assert_array_equal(interpolate(a, b, 1.0).values, b.values)


@pytest.mark.parametrize("seed", range(5))
def test_symmetry_exact_on_dyadic_grid(seed):
    # bitwise symmetry: for dyadic lambda both 1-lam and 1-(1-lam) are
    # exact, so the coefficient pairs coincide on either side
    a, b = random_pair(seed)
    for k in range(65):
        lam = k / 64.0
        left = interpolate(a, b, lam).values
        right = interpolate(b, a, 1.0 - lam).values
        np.testing.assert_array_equal(left, right)


def test_symmetry_close_for_arbitrary_lambda():
    a, b = random_pair(9)
    for lam in (0.01, 0.13, 0.37, 0.61, 0.99):
        left = interpolate(a, b, lam).values
        right = interpolate(b, a, 1.0 - lam).values
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)


def test_midpoint_average():
    a, b = random_pair(2)
    mid = interpolate(a, b, 0.5).values
    np.testing.assert_array_equal(mid, 0.5 * a.values + 0.5 * b.values)


def test_interpolate_guards():
    a, b = random_pair(0)
    with pytest.raises(ArgumentError):
        interpolate(a, b, -0.1)
    with pytest.raises(ArgumentError):
        interpolate(a, b, 1.1)
    other = init_params(mlp(4, [7], 3), 0)
    with pytest.raises(SpecMismatchError):
        interpolate(a, other, 0.5)


# --- lambda grid ----------------------------------------------------------------

def test_lambda_grid_step_001_has_101_points():
    grid = lambda_grid(0.01)
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0
    np.testing.assert_allclose(np.diff(grid), 0.01, atol=1e-12)


def test_lambda_grid_step_05():
    np.testing.assert_array_equal(lambda_grid(0.5), [0.0, 0.5, 1.0])


def test_lambda_grid_uneven_step_keeps_final_point():
    grid = lambda_grid(0.3)
    np.testing.assert_allclose(grid, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_lambda_grid_validation():
    for step in (0.0, -0.1, 0.6):
        with pytest.raises(ArgumentError):
            lambda_grid(step)


# --- curves and barrier ----------------------------------------------------------

def make_curve(losses):
    n = len(losses)
    lambdas = np.linspace(0.0, 1.0, n)
    return LmcCurve(lambdas, np.asarray(losses, dtype=float), np.zeros(n))


def test_barrier_interior_below_endpoints_is_negative():
    # endpoints 0.5 / 0.6 with interior max 0.55: barrier = -0.05
    curve = make_curve([0.5, 0.52, 0.55, 0.6])
    assert barrier(curve) == pytest.approx(-0.05, abs=1e-15)


def test_barrier_interior_spike():
    # spike 1.6 over endpoints 0.5 / 0.6: barrier = 1.0
    curve = make_curve([0.5, 1.6, 0.6])
    assert barrier(curve) == pytest.approx(1.0, abs=1e-15)


def test_barrier_monotone_is_nonpositive():
    curve = make_curve([1.0, 0.9, 0.8, 0.7])
    assert barrier(curve) <= 0.0


def test_barrier_two_point_curve_is_zero():
    assert barrier(make_curve([0.7, 0.9])) == 0.0


def test_curve_validation():
    with pytest.raises(ArgumentError):
        LmcCurve(np.array([0.0, 0.5]), np.zeros(3), np.zeros(3))
    with pytest.raises(ArgumentError):
        LmcCurve(np.array([0.1, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ArgumentError):
        LmcCurve(np.array([0.0, 0.6, 0.5, 1.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ArgumentError, match="at least one checkpoint"):
        PathCurve((), (), ())


# --- lmc_curve and sgd_path_loss ---------------------------------------------------

def blob_test():
    _, test = gen_blobs(0, n_classes=3, n_per_class=40, dim=4, spread=1.5)
    return test


def test_lmc_curve_endpoint_consistency():
    test = blob_test()
    a, b = init_params(SPEC, 0), init_params(SPEC, 1)
    curve = lmc_curve(SPEC, a, b, 0.25, test)
    loss_a, acc_a = eval_test(SPEC, a, test)
    loss_b, acc_b = eval_test(SPEC, b, test)
    assert abs(curve.losses[0] - loss_a) < 1e-12
    assert abs(curve.losses[-1] - loss_b) < 1e-12
    assert curve.accuracies[0] == acc_a and curve.accuracies[-1] == acc_b


def test_lmc_curve_identical_endpoints_constant():
    test = blob_test()
    a = init_params(SPEC, 3)
    curve = lmc_curve(SPEC, a, a.copy(), 0.25, test)
    assert float(np.ptp(curve.losses)) < 1e-12
    assert float(np.ptp(curve.accuracies)) == 0.0


def test_sgd_path_single_and_consistency(tmp_path):
    test = blob_test()
    store = CheckpointStore(tmp_path / "ck")
    thetas = [init_params(SPEC, s) for s in range(3)]
    for i, theta in enumerate(thetas):
        store.save(0, i * 10, theta)
    # single checkpoint: one point equal to eval_test
    single = sgd_path_loss(SPEC, store, [10], test)
    loss, acc = eval_test(SPEC, thetas[1], test)
    assert single.iterations == (10,)
    assert abs(single.losses[0] - loss) < 1e-12 and single.accuracies[0] == acc
    # the path's last point must match the lmc endpoint at lambda=1
    path = sgd_path_loss(SPEC, store, [0, 10, 20], test)
    curve = lmc_curve(SPEC, thetas[0], thetas[2], 0.5, test)
    assert abs(path.losses[-1] - curve.losses[-1]) < 1e-12


def test_sgd_path_missing_checkpoints_listed(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    store.save(0, 5, init_params(SPEC, 0))
    with pytest.raises(MissingCheckpointError, match="7"):
        sgd_path_loss(SPEC, store, [5, 7], blob_test())


def test_sgd_path_with_no_iterations_is_argument_error(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    store.save(0, 5, init_params(SPEC, 0))
    with pytest.raises(ArgumentError, match="^no iterations requested$"):
        sgd_path_loss(SPEC, store, [], blob_test())


def test_sgd_path_holds_one_checkpoint_at_a_time(tmp_path):
    # wide enough that a checkpoint (0.5 MB) dwarfs the activations of a
    # 30-sample evaluation
    spec = mlp(4, [256, 256], 3)
    theta = init_params(spec, 0)
    store = CheckpointStore(tmp_path / "ck")
    for i in range(40):
        store.save(0, i, theta)
    _, test = gen_blobs(0, n_classes=3, n_per_class=10, dim=4, spread=1.5)
    tracemalloc.start()
    try:
        path = sgd_path_loss(spec, store, store.iterations(), test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path.iterations) == 40
    assert peak < 5 * theta.values.nbytes


# --- curve CSV round trips -----------------------------------------------------------

def test_lmc_csv_round_trip(tmp_path):
    curve = make_curve([0.5, 0.25, 0.75])
    path = tmp_path / "lmc.csv"
    write_lmc_csv(path, curve)
    back = read_lmc_csv(path)
    np.testing.assert_array_equal(back.lambdas, curve.lambdas)
    np.testing.assert_array_equal(back.losses, curve.losses)


def test_path_csv_round_trip(tmp_path):
    curve = PathCurve(np.array([100, 101, 105]),
                      np.array([0.5, 0.75, 0.25]),
                      np.array([0.5, 0.5, 1.0]))
    path = tmp_path / "path.csv"
    write_path_csv(path, curve)
    back = read_path_csv(path)
    np.testing.assert_array_equal(back.iterations, curve.iterations)
    np.testing.assert_array_equal(back.losses, curve.losses)
