"""Optimizer updates, checkpoint IO, and the warm-started task loop."""

import tracemalloc

import numpy as np
import pytest

from gaplab.autodiff import ParamVector, backward, init_params, mlp
from gaplab.config import AnalysisConfig
from gaplab.data import gen_blobs, split_tasks
from gaplab.errors import (
    ArgumentError,
    DivergenceError,
    FormatError,
    MissingCheckpointError,
    SpecMismatchError,
)
from gaplab.instrument import TraceRecorder
from gaplab.rng import Rng
from gaplab.trainer import (
    CheckpointStore,
    Schedule,
    TrainConfig,
    TrainingHooks,
    load_checkpoint,
    run_sequence,
    save_checkpoint,
    sgd_step,
)

SPEC = mlp(4, [5], 3)


def vec(values):
    return ParamVector(np.asarray(values, dtype=np.float64), SPEC.digest)


# --- sgd_step ----------------------------------------------------------------

def test_sgd_step_hand_example():
    # v' = 0.9*0 + 0.5 = 0.5; theta' = 1 - 0.01*0.5 = 0.995
    n = SPEC.param_count
    params = vec(np.ones(n))
    grads = vec(np.full(n, 0.5))
    velocity = np.zeros(n)
    params, velocity = sgd_step(params, grads, velocity, lr=0.01, momentum=0.9)
    assert params.values[0] == pytest.approx(0.995, abs=1e-15)
    assert velocity[0] == pytest.approx(0.5, abs=1e-15)
    # second identical step: v' = 0.9*0.5 + 0.5 = 0.95; theta' = 0.9855
    params, velocity = sgd_step(params, grads, velocity, lr=0.01, momentum=0.9)
    assert params.values[0] == pytest.approx(0.9855, abs=1e-15)
    assert velocity[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zero_momentum_is_plain_sgd():
    n = SPEC.param_count
    params = vec(np.full(n, 2.0))
    grads = vec(np.full(n, 3.0))
    out, _ = sgd_step(params, grads, np.zeros(n), 0.1, 0.0)
    assert out.values[0] == pytest.approx(2.0 - 0.1 * 3.0, abs=1e-15)


def test_sgd_step_leaves_its_inputs_unwritten():
    n = SPEC.param_count
    rng = Rng(3)
    params = vec(rng.normals(n))
    grads = vec(rng.normals(n))
    velocity = rng.normals(n)
    before = [a.copy() for a in (params.values, grads.values, velocity)]
    sgd_step(params, grads, velocity, lr=0.1, momentum=0.9)
    for got, want in zip((params.values, grads.values, velocity), before):
        assert got.tobytes() == want.tobytes()


def test_sgd_step_guards():
    n = SPEC.param_count
    params = vec(np.ones(n))
    other = init_params(mlp(4, [6], 3), 0)
    with pytest.raises(SpecMismatchError):
        sgd_step(params, other, np.zeros(len(other)), 0.1, 0.0)
    with pytest.raises(ArgumentError,
                       match="^optimizer state length does not match parameters$"):
        sgd_step(params, params, np.zeros(n + 1), 0.1, 0.0)
    huge = vec(np.full(n, 1e308))
    with pytest.raises(DivergenceError):
        sgd_step(params, huge, np.zeros(n), 1e10, 0.0)


# --- TrainConfig -------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(lr=0.0)
    with pytest.raises(ArgumentError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ArgumentError):
        TrainConfig(batch_size=0)
    with pytest.raises(ArgumentError):
        TrainConfig(epochs_per_task=(-1,))
    with pytest.raises(ArgumentError):
        TrainConfig(eval_every=0)


def test_train_config_epoch_broadcast():
    cfg = TrainConfig(epochs_per_task=3)
    assert cfg.epochs_for(0) == 3 and cfg.epochs_for(5) == 3
    cfg = TrainConfig(epochs_per_task=(2, 7))
    assert cfg.epochs_for(0) == 2 and cfg.epochs_for(1) == 7 and cfg.epochs_for(2) == 7


def one_task_plan(task_len, **cadence):
    """The schedule of one task of `task_len` iterations (one epoch, one
    sample per batch)."""
    cfg = TrainConfig(batch_size=1, epochs_per_task=1, **cadence)
    return Schedule.plan([task_len], cfg, AnalysisConfig.theta2_epochs)


def test_tick_cadence_dense_window_tail_and_sparse():
    task_len = 30
    plan = one_task_plan(task_len, eval_every=10, checkpoint_every=1000,
                         dense_window=3, dense_tail=2)
    dense_head = [1, 2, 3]
    dense_tail = [29, 30]
    sparse = [10, 20]
    for i in range(1, task_len + 1):
        expected = i in dense_head + dense_tail + sparse or i == task_len
        assert (i in plan.evals) == expected, i
        assert (i in plan.checkpoints) == (i in dense_head + dense_tail), i


def test_final_iteration_always_ticks():
    plan = one_task_plan(7, eval_every=1000, checkpoint_every=1000,
                         dense_window=0, dense_tail=0)
    assert 7 in plan.evals
    assert 7 in plan.checkpoints
    assert 6 not in plan.evals


# --- checkpoint IO -----------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(SPEC, 3)
    params.values[0] = np.nextafter(1.0, 2.0)  # resolution probe
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path, SPEC)
    assert loaded.values.tobytes() == params.values.tobytes()
    assert loaded.spec_digest == SPEC.digest


def test_checkpoint_rejects_corruption(tmp_path):
    params = init_params(SPEC, 0)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:4] + b"\x63\x00" + raw[6:])
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="expected"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:20])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(bad)


def corruptions(raw):
    """Every truncation of a checkpoint, one appended byte, and each byte
    of the 46-byte header XORed with 0x01, 0x80 and 0xFF. Value bits are
    not flipped: the format has no checksum to catch them."""
    yield from (raw[:n] for n in range(len(raw)))
    yield raw + b"\x00"
    for i in range(46):
        for mask in (0x01, 0x80, 0xFF):
            yield raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]


def test_every_corrupted_checkpoint_is_refused(tmp_path):
    spec = mlp(3, [2], 2)  # 14 values: a 158-byte file
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(spec, 0))
    cases = list(corruptions(path.read_bytes()))
    assert len(cases) == 158 + 1 + 46 * 3
    accepted = []
    for i, raw in enumerate(cases):
        path.write_bytes(raw)
        try:
            load_checkpoint(path, spec)
        except (FormatError, SpecMismatchError):
            continue
        accepted.append(i)
    assert accepted == []


def test_checkpoint_load_holds_one_copy(tmp_path):
    # the values are read into the returned array, not into bytes first
    params = vec(np.arange(65536.0))  # a 0.5 MB vector
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, params)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == params.values.tobytes()
    assert peak < 1.5 * params.values.nbytes


def test_checkpoint_save_rejects_a_digest_not_32_bytes(tmp_path):
    path = tmp_path / "x.ckpt"
    with pytest.raises(ArgumentError, match="^spec digest must be 32 bytes of hex$"):
        save_checkpoint(path, ParamVector(np.zeros(3), "ab" * 16))
    assert not path.exists()


def test_checkpoint_spec_binding(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(SPEC, 0))
    with pytest.raises(SpecMismatchError):
        load_checkpoint(path, mlp(4, [6], 3))


def test_store_naming_reopen_and_missing(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    params = init_params(SPEC, 1)
    ckpt_id = store.save(0, 13, params)
    assert ckpt_id == "task0_iter0000013"
    store.save(1, 200, params)
    reopened = CheckpointStore.open(tmp_path / "ckpts")
    assert reopened.iterations() == [13, 200]
    assert 13 in reopened.iterations()
    loaded = reopened.load_iteration(13, SPEC)
    assert loaded.values.tobytes() == params.values.tobytes()
    with pytest.raises(MissingCheckpointError):
        reopened.require([13, 99])


def test_store_load_iteration_of_a_missing_iteration(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    store.save(0, 13, init_params(SPEC, 1))
    with pytest.raises(MissingCheckpointError) as raised:
        store.load_iteration(14, SPEC)
    assert raised.value.missing_iterations == [14]


def test_store_open_rejects_bad_checkpoint_names(tmp_path):
    for name in ("taskX_iter1.ckpt", "task0_iter1_iter2.ckpt", "task0_iterY.ckpt"):
        directory = tmp_path / name
        directory.mkdir()
        (directory / name).write_bytes(b"")
        with pytest.raises(FormatError, match="bad checkpoint name"):
            CheckpointStore.open(directory)


# --- training loop -----------------------------------------------------------

def small_problem(seed=0, joint=True, fractions=(50, 50)):
    train, test = gen_blobs(seed, n_classes=3, n_per_class=50, dim=4, spread=1.0)
    seq = split_tasks(train, list(fractions), joint=joint, seed=seed)
    spec = mlp(4, [8], 3)
    return spec, seq, test


def train(spec, seq, cfg, hooks=None, seed=0):
    """run_sequence of `seed` under the plan of the default analysis;
    returns the plan and the final parameters."""
    plan = Schedule.plan([len(seq.pool(k)) for k in range(seq.n_tasks)], cfg,
                         AnalysisConfig.theta2_epochs)
    return plan, run_sequence(spec, seq, cfg, plan, seed, hooks)


class ParamLog(TrainingHooks):
    """Keeps per-iteration parameter and batch snapshots."""

    def __init__(self):
        self.after = {}
        self.batches = {}
        self.initial = None

    def on_checkpoint(self, iteration, task_id, params):
        if iteration == 0:
            self.initial = params.copy()

    def on_post_update(self, iteration, task_id, params, batch, labels):
        self.after[iteration] = params.copy()
        self.batches[iteration] = (batch, labels)


def test_boundary_arithmetic():
    spec, seq, test = small_problem()
    # pools: 60 then 120 samples at batch 16 -> 4 and 8 iters/epoch
    cfg = TrainConfig(batch_size=16, epochs_per_task=(2, 3), eval_every=100,
                      dense_window=0, dense_tail=0)
    rec = TraceRecorder(spec, test)
    plan, _ = train(spec, seq, cfg, rec)
    assert np.diff([0] + plan.boundaries).tolist() == [8, 24]
    assert plan.boundaries == [8, 32]
    assert rec.trace.boundaries == [8, 32]
    assert [r.iteration for r in rec.trace.records] == list(range(1, 33))
    assert [r.task for r in rec.trace.records] == [0] * 8 + [1] * 24


def test_diverged_iteration_keeps_its_record():
    # a linear model's first update at this step size overflows in sgd_step
    _, seq, test = small_problem()
    spec = mlp(4, [], 3)
    cfg = TrainConfig(lr=1e308, batch_size=16, epochs_per_task=(2, 3))
    rec = TraceRecorder(spec, test)
    with pytest.raises(DivergenceError, match="^iteration 1: parameters became non-finite"):
        train(spec, seq, cfg, rec)
    [record] = rec.trace.records
    assert record.iteration == 1 and np.isfinite(record.batch_loss_pre)
    assert np.isnan(record.batch_loss_post) and np.isnan(record.batch_acc_post)
    assert record.test_acc is None


def test_divergence_in_a_hook_names_its_iteration():
    # the update stays finite but the post-update probe's forward overflows
    spec, seq, test = small_problem()
    cfg = TrainConfig(lr=1e200, batch_size=16, epochs_per_task=(2, 3))
    with pytest.raises(DivergenceError,
                       match=r"^iteration \d+: non-finite values in forward logits"):
        train(spec, seq, cfg, TraceRecorder(spec, test))


def test_epochs_zero_is_noop():
    spec, seq, test = small_problem()
    cfg = TrainConfig(batch_size=16, epochs_per_task=(0, 0))
    rec = TraceRecorder(spec, test)
    log = ParamLog()

    class Both(TrainingHooks):
        def __getattribute__(self, name):
            if name.startswith("on_"):
                def fan(*args, **kw):
                    out = getattr(rec, name)(*args, **kw)
                    getattr(log, name)(*args, **kw)
                    return out
                return fan
            return object.__getattribute__(self, name)

    plan, final = train(spec, seq, cfg, Both())
    assert plan.boundaries == [0, 0]
    assert rec.trace.records == []
    np.testing.assert_array_equal(final.values, log.initial.values)


def test_warm_start_and_velocity_reset():
    spec, seq, test = small_problem()
    cfg = TrainConfig(batch_size=16, epochs_per_task=2, eval_every=100,
                      dense_window=0, dense_tail=0, velocity_reset=True)
    log = ParamLog()
    plan, _ = train(spec, seq, cfg, log)
    boundary = plan.boundaries[0]

    # warm start: the first post-boundary update starts from the boundary
    # params with zero velocity, so it must equal a fresh sgd_step
    theta_b = log.after[boundary]
    batch, labels = log.batches[boundary + 1]
    _, grads, _ = backward(spec, theta_b, batch, labels)
    expected, _ = sgd_step(theta_b, grads, np.zeros(len(theta_b)),
                           cfg.lr, cfg.momentum)
    np.testing.assert_array_equal(log.after[boundary + 1].values, expected.values)


def test_velocity_carry_over_changes_updates():
    spec, seq, test = small_problem()
    kw = dict(batch_size=16, epochs_per_task=2, eval_every=100,
              dense_window=0, dense_tail=0)
    reset = ParamLog()
    carry = ParamLog()
    train(spec, seq, TrainConfig(velocity_reset=True, **kw), reset)
    plan, _ = train(spec, seq, TrainConfig(velocity_reset=False, **kw), carry)
    boundary = plan.boundaries[0]
    np.testing.assert_array_equal(
        reset.after[boundary].values, carry.after[boundary].values)
    assert (reset.after[boundary + 1].values
            != carry.after[boundary + 1].values).any()


def test_batch_loss_decreases_for_most_steps():
    # small-lr smoothness: each SGD step lowers its own batch loss
    spec, seq, test = small_problem()
    cfg = TrainConfig(lr=1e-4, batch_size=16, epochs_per_task=3,
                      eval_every=100, dense_window=0, dense_tail=0)
    rec = TraceRecorder(spec, test)
    train(spec, seq, cfg, rec)
    records = rec.trace.records
    drops = sum(r.batch_loss_post < r.batch_loss_pre for r in records)
    assert drops / len(records) > 0.95


def test_long_run_reduces_loss():
    spec, seq, test = small_problem()
    cfg = TrainConfig(batch_size=16, epochs_per_task=(20, 0), eval_every=100,
                      dense_window=0, dense_tail=1)
    rec = TraceRecorder(spec, test)
    train(spec, seq, cfg, rec)
    evals = rec.trace.eval_records()
    assert evals[-1].test_loss < 0.5
    assert evals[-1].test_acc > 0.9


def test_run_sequence_deterministic():
    spec, seq, test = small_problem()
    cfg = TrainConfig(batch_size=16, epochs_per_task=2)
    a, b = TraceRecorder(spec, test), TraceRecorder(spec, test)
    _, ra = train(spec, seq, cfg, a, seed=5)
    _, rb = train(spec, seq, cfg, b, seed=5)
    assert ra.values.tobytes() == rb.values.tobytes()
    assert a.trace.records == b.trace.records


def test_seed_changes_run():
    spec, seq, test = small_problem()
    cfg = TrainConfig(batch_size=16, epochs_per_task=1)
    _, a = train(spec, seq, cfg, seed=0)
    _, b = train(spec, seq, cfg, seed=1)
    assert (a.values != b.values).any()
