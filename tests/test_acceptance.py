"""Acceptance gate: nine go/no-go checks on the full pipeline.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts.
Thresholds marked "frozen" were calibrated once from pilot sweeps on the
synthetic-blob family and are fixed here; the runs themselves are fully
deterministic, so these checks are exact regression gates, not statistics.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, max_rel_error
from gap_oracles import CASES, check_case
from gaplab import procs
from gaplab.autodiff import ParamVector, backward, init_params, mlp, small_cnn
from gaplab.config import ExperimentConfig, build_model_spec
from gaplab.connectivity import barrier, interpolate, lmc_curve, sgd_path_loss
from gaplab.experiment import build_dataset, run_experiment, run_single_seed
from gaplab.rng import Rng
from gaplab.trainer import CheckpointStore

SEEDS = [0, 1, 2, 3, 4]

# blob difficulty: heavy class overlap so the joint-pool switch visibly
# disrupts test accuracy (frozen from pilot sweeps over spread 1..10)
SPREAD = 8.0

# first-task-size comparison runs in a higher-lr regime where the larger
# post-switch gradients of a small first task catapult the parameters;
# epochs are iteration-matched (~1300 task-A iterations for every split)
SIZE_ORDERING_LR = 0.05
EPOCHS_BY_FRACTION = {(50, 50): (100, 20), (10, 90): (433, 20), (75, 25): (68, 20)}

# linear-path barrier ceiling and SGD-path excess floor (frozen, see below)
EPS_LIN = 0.002
DELTA_SGD = 0.01


def report(capfd, num, name, ok, detail):
    with capfd.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def experiment_config(out_dir, fractions=(50, 50), joint=True, lr=0.01,
                      checkpoints=False):
    return ExperimentConfig.from_dict({
        "dataset": {"kind": "blobs", "classes": 8, "per_class": 250,
                    "dim": 32, "spread": SPREAD},
        "model": {"name": "mlp", "hidden": [128, 64]},
        "split": {"fractions": list(fractions), "joint": joint},
        "train": {"lr": lr,
                  "epochs_per_task": list(EPOCHS_BY_FRACTION[fractions])},
        "analysis": {},
        "out_dir": str(out_dir),
        "seeds": SEEDS,
        "checkpoints": checkpoints,
    })


def run_seed(cfg, seed):
    """One seed's result, or the exception it raised, which a forked child
    sends back as its result."""
    try:
        return run_single_seed(cfg, seed, Path(cfg.out_dir) / f"seed{seed}")
    except Exception as err:
        return err


# the four fixtures that compare seeds: their `experiment_config` arguments
FIXTURES = {
    "joint": {},
    "seq": {"joint": False},
    "small": {"fractions": (10, 90), "lr": SIZE_ORDERING_LR},
    "large": {"fractions": (75, 25), "lr": SIZE_ORDERING_LR},
}


def pre_boundary_sigma(result, n_evals=20):
    boundary = result.plan.boundaries[0]
    accs = [r.test_acc for r in result.trace.eval_records()
            if r.iteration <= boundary]
    return float(np.std(accs[-n_evals:]))


@pytest.fixture(scope="module")
def canonical_config(tmp_path_factory):
    """Criterion 5's canonical run: the joint 50-50 config with checkpoints,
    of which `fixture_runs` trains seed 0."""
    return experiment_config(tmp_path_factory.mktemp("canonical"), checkpoints=True)


@pytest.fixture(scope="module")
def fixture_runs(tmp_path_factory, canonical_config):
    """Every seed's result of every fixture in `FIXTURES`, by fixture and
    seed, and under "canonical" seed 0 of `canonical_config`. All 21 seeds
    form one batch, so that no fixture's last seed leaves a CPU idle: each
    trained in a forked child of its own, at most one per usable CPU, where
    `procs.can_fork` allows, and in this process otherwise. The canonical
    seed, the longest with its checkpoints, starts first. The first seed
    that failed raises its error."""
    cfgs = {name: experiment_config(tmp_path_factory.mktemp(name), **kwargs)
            for name, kwargs in FIXTURES.items()}
    works = [partial(run_seed, canonical_config, 0)]
    works += [partial(run_seed, cfg, seed) for cfg in cfgs.values() for seed in SEEDS]
    results = procs.outcomes(works, procs.usable_cpus(), "a seed process")
    for result in results:
        if isinstance(result, Exception):
            raise result
    canonical, *results = results
    results = iter(results)
    runs = {name: {seed: next(results) for seed in SEEDS} for name in cfgs}
    return dict(runs, canonical={0: canonical})


@pytest.fixture(scope="module")
def joint_runs(fixture_runs):
    return fixture_runs["joint"]


@pytest.fixture(scope="module")
def sequential_runs(fixture_runs):
    return fixture_runs["seq"]


@pytest.fixture(scope="module")
def small_first_runs(fixture_runs):
    return fixture_runs["small"]


@pytest.fixture(scope="module")
def large_first_runs(fixture_runs):
    return fixture_runs["large"]


@pytest.fixture(scope="module")
def canonical_run(canonical_config, fixture_runs):
    cfg = canonical_config
    train, test = build_dataset(cfg.dataset, 0)
    spec = build_model_spec(cfg.model, train.features.shape[1:], train.n_classes)
    store = CheckpointStore.open(Path(cfg.out_dir) / "seed0" / "checkpoints")
    return cfg, fixture_runs["canonical"][0], spec, test, store


def test_criterion_1_gradients_match_finite_differences(capfd):
    models = [
        mlp(6, [], 4),               # Dense alone
        mlp(5, [7], 4),              # Dense + ReLU
        small_cnn((1, 8, 8), [2, 3], [], 4),  # Conv3x3, MaxPool2x2, Flatten
    ]
    worst = 0.0
    for spec in models:
        assert spec.param_count <= 500
        for seed in range(20):
            params = init_params(spec, seed)
            rng = Rng(1000 + seed)
            batch = rng.normals(int(np.prod((4,) + spec.input_shape))).reshape(
                (4,) + spec.input_shape)
            labels = np.array([rng.next_below(spec.n_classes) for _ in range(4)])
            _, grads, _ = backward(spec, params, batch, labels)
            fd = fd_gradient(spec, params, batch, labels, h=1e-5)
            worst = max(worst, max_rel_error(grads.values, fd))
    report(capfd, 1, "analytic gradients match finite differences",
           worst < 1e-4, f"max rel err {worst:.3g} over 3 models x 20 seeds")


def test_criterion_2_stability_gap_exists(capfd, joint_runs):
    margins = []
    for result in joint_runs.values():
        gap = result.gap
        sigma = pre_boundary_sigma(result)
        margins.append(gap.min_acc - (gap.pre_switch_acc - 3.0 * sigma))
    median_margin = float(np.median(margins))
    report(capfd, 2, "post-switch accuracy dips below baseline - 3 sigma",
           median_margin < 0.0,
           f"median margin {median_margin:+.4f}, per-seed "
           f"{np.round(margins, 4).tolist()}")


def test_criterion_3_rehearsal_removal_deepens_gap(capfd, joint_runs,
                                                   sequential_runs):
    med_joint = float(np.median([r.gap.gap_depth for r in joint_runs.values()]))
    med_seq = float(np.median([r.gap.gap_depth for r in sequential_runs.values()]))
    report(capfd, 3, "gap deeper without rehearsal (50-50 vs 50-50*)",
           med_seq > med_joint,
           f"median depth {med_seq:.4f} (50-50) vs {med_joint:.4f} (50-50*)")


def test_criterion_4_smaller_first_task_deepens_gap(capfd, small_first_runs,
                                                    large_first_runs):
    med_small = float(np.median(
        [r.gap.gap_depth for r in small_first_runs.values()]))
    med_large = float(np.median(
        [r.gap.gap_depth for r in large_first_runs.values()]))
    report(capfd, 4, "gap deeper for smaller first task (10-90* vs 75-25*)",
           med_small > med_large,
           f"median depth {med_small:.4f} (10-90*) vs {med_large:.4f} (75-25*)")


def test_criterion_5_linear_path_low_while_sgd_path_high(capfd, canonical_run):
    cfg, result, spec, test, store = canonical_run
    boundary = result.plan.boundaries[0]
    theta2_iteration = boundary + 5 * 25  # 5 epochs x 25 iterations
    theta1 = store.load_iteration(boundary, spec)
    theta2 = store.load_iteration(theta2_iteration, spec)
    curve = lmc_curve(spec, theta1, theta2, 0.01, test)
    assert len(curve.lambdas) == 101
    bar = barrier(curve)

    path_iterations = [i for i in store.iterations()
                       if boundary < i <= boundary + 400]
    assert len(path_iterations) == 400
    path = sgd_path_loss(spec, store, path_iterations, test)
    endpoint_max = float(max(curve.losses[0], curve.losses[-1]))
    excess = float(max(path.losses)) - endpoint_max

    assert DELTA_SGD >= 5.0 * EPS_LIN
    ok = bar <= EPS_LIN and excess >= DELTA_SGD
    report(capfd, 5, "linear path low-loss, SGD path not",
           ok, f"barrier {bar:+.4f} <= {EPS_LIN}, "
               f"path excess {excess:+.4f} >= {DELTA_SGD}")


def test_criterion_6_batch_accuracy_up_while_test_accuracy_down(
        capfd, joint_runs):
    probe_deltas, test_means, baselines = [], [], []
    for result in joint_runs.values():
        boundary = result.plan.boundaries[0]
        records = [r for r in result.trace.records
                   if boundary < r.iteration <= boundary + 200]
        assert len(records) == 200
        probe_deltas.append(float(np.mean(
            [r.batch_acc_post - r.batch_acc_pre for r in records])))
        test_means.append(float(np.mean(
            [r.test_acc for r in records if r.test_acc is not None])))
        baselines.append(result.gap.pre_switch_acc)
    med_probe = float(np.median(probe_deltas))
    med_test = float(np.median(test_means))
    med_base = float(np.median(baselines))
    ok = med_probe > 0.0 and med_test < med_base
    report(capfd, 6, "batch accuracy improves while test accuracy lags",
           ok, f"median batch delta {med_probe:+.4f}, "
               f"median test acc {med_test:.4f} < baseline {med_base:.4f}")


def test_criterion_7_gap_metric_oracles(capfd):
    for case in CASES:
        check_case(case)
    report(capfd, 7, "compute_gap reproduces hand-computed metrics",
           len(CASES) >= 10, f"{len(CASES)} oracle traces, all exact")


def test_criterion_8_byte_identical_reruns(capfd, tmp_path):
    raw = experiment_config(tmp_path / "a", checkpoints=True).to_dict()
    # short but complete pipeline: past the theta2 checkpoint at 229
    raw["train"]["epochs_per_task"] = [8, 6]
    raw["seeds"] = [0, 1]
    runs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig.from_dict(dict(raw, out_dir=str(tmp_path / sub)))
        runs.append(run_experiment(cfg))
    a, b = runs
    cfg_a = json.loads((a / "config.json").read_text())
    cfg_b = json.loads((b / "config.json").read_text())
    assert cfg_a.pop("out_dir") != cfg_b.pop("out_dir")
    assert cfg_a == cfg_b
    compared = 1
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if rel.name in ("manifest.json", "config.json"):
            continue  # timestamp / the output path itself
        if rel.suffix in (".csv", ".ckpt", ".txt", ".json"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
            compared += 1
    ckpts = len(list(a.rglob("*.ckpt")))
    report(capfd, 8, "identical configs replay byte-identically",
           compared > ckpts >= 100,
           f"{compared} files byte-compared, {ckpts} checkpoints")


def test_criterion_9_interpolation_identities(capfd):
    spec = mlp(6, [8], 4)
    n = spec.param_count
    worst_endpoint = 0.0
    for seed in range(20):
        rng = Rng(seed)
        a = ParamVector(rng.normals(n), spec.digest)
        b = ParamVector(rng.normals(n), spec.digest)
        worst_endpoint = max(
            worst_endpoint,
            float(np.abs(interpolate(a, b, 0.0).values - a.values).max()),
            float(np.abs(interpolate(a, b, 1.0).values - b.values).max()),
        )
        for k in range(0, 65):
            lam = k / 64.0  # dyadic: 1 - lam and 1 - (1 - lam) are exact
            left = interpolate(a, b, lam).values
            right = interpolate(b, a, 1.0 - lam).values
            assert (left == right).all(), (seed, lam)
    report(capfd, 9, "interpolation endpoints and symmetry",
           worst_endpoint <= 1e-12,
           f"endpoint err {worst_endpoint:.3g}, symmetry bitwise on 65-point "
           f"dyadic grid x 20 vector pairs")
