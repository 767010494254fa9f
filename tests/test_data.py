"""Dataset generation, raw IO, task splits, and batch iteration."""

import numpy as np
import pytest

from gaplab.data import (
    Dataset,
    batch_iter,
    batches_per_epoch,
    gen_blobs,
    load_raw,
    normalize_unit,
    save_raw,
    split_tasks,
)
from gaplab.errors import ArgumentError, FormatError, LabelRangeError
from gaplab.rng import Rng


# --- gen_blobs ---------------------------------------------------------------

def test_blobs_sizes_and_split():
    train, test = gen_blobs(0, n_classes=8, n_per_class=250, dim=32, spread=1.0)
    # 80/20 per class: 200 train + 50 test each
    assert train.n == 1600 and test.n == 400
    assert train.features.shape == (1600, 32)
    for c in range(8):
        assert (train.labels == c).sum() == 200
        assert (test.labels == c).sum() == 50


def test_blobs_keep_a_test_sample_of_every_class():
    # 80% of 3 rounds to 2, leaving 1 for test; 80% of 2 rounds to 2
    train, test = gen_blobs(0, n_classes=2, n_per_class=3, dim=2, spread=1.0)
    assert train.n == 4 and test.n == 2
    assert sorted(test.labels) == [0, 1]
    with pytest.raises(ArgumentError, match="^need at least 3 samples per class"):
        gen_blobs(0, n_classes=2, n_per_class=2, dim=2, spread=1.0)


def test_blobs_deterministic():
    a = gen_blobs(7, 4, 50, 8, 2.0)
    b = gen_blobs(7, 4, 50, 8, 2.0)
    np.testing.assert_array_equal(a[0].features, b[0].features)
    np.testing.assert_array_equal(a[1].labels, b[1].labels)


def test_blobs_seed_sensitivity():
    a, _ = gen_blobs(0, 4, 50, 8, 2.0)
    b, _ = gen_blobs(1, 4, 50, 8, 2.0)
    assert (a.features != b.features).any()


def test_blobs_zero_spread_collapses_classes_to_points():
    train, _ = gen_blobs(3, 3, 20, 5, 0.0)
    for c in range(3):
        rows = train.features[train.labels == c]
        assert float(np.ptp(rows, axis=0).max()) == 0.0


def test_blobs_spread_controls_dispersion_not_means():
    # means live in a fixed box, so only within-class scatter grows
    tight, _ = gen_blobs(5, 4, 100, 16, 0.5)
    wide, _ = gen_blobs(5, 4, 100, 16, 4.0)
    for c in range(4):
        t = tight.features[tight.labels == c]
        w = wide.features[wide.labels == c]
        np.testing.assert_allclose(t.mean(axis=0), w.mean(axis=0), atol=1.5)
        assert w.std(axis=0).mean() > 4 * t.std(axis=0).mean()


def test_blobs_shape_reshape():
    train, _ = gen_blobs(0, 2, 10, 16, 1.0, shape=(1, 4, 4))
    assert train.features.shape == (16, 1, 4, 4)
    with pytest.raises(ArgumentError):
        gen_blobs(0, 2, 10, 16, 1.0, shape=(3, 3))


def test_blobs_rejects_bad_arguments():
    with pytest.raises(ArgumentError):
        gen_blobs(0, 1, 10, 4, 1.0)  # < 2 classes
    with pytest.raises(ArgumentError):
        gen_blobs(0, 2, 10, 1, 1.0)  # dim < 2
    with pytest.raises(ArgumentError):
        gen_blobs(0, 2, 2, 4, 1.0)  # 80/20 split leaves an empty test set
    with pytest.raises(ArgumentError):
        gen_blobs(0, 2, 10, 4, -0.5)  # negative spread
    for spread in (float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match="finite"):
            gen_blobs(0, 2, 10, 4, spread)


# --- raw byte IO -------------------------------------------------------------

def test_raw_round_trip(tmp_path):
    train, test = gen_blobs(1, 3, 30, 6, 1.5)
    train_n, test_n = normalize_unit(train, test)
    fp, lp = tmp_path / "f.bin", tmp_path / "l.bin"
    save_raw(train_n, fp, lp)
    loaded = load_raw(fp, lp, (6,), train_n.n, 3)
    np.testing.assert_array_equal(loaded.labels, train_n.labels)
    # byte quantization loses at most half a step
    assert np.abs(loaded.features - train_n.features).max() <= 0.5 / 255.0


def test_save_raw_rejects_unnormalized():
    for row in ([-1.0, 2.0], [0.5, np.nan]):  # NaN fails no `< 0` or `> 1` test
        ds = Dataset(np.array([row]), np.array([0]), 2)
        with pytest.raises(ArgumentError):
            save_raw(ds, "/tmp/x.bin", "/tmp/y.bin")


def test_load_raw_truncated_features_reports_offset(tmp_path):
    fp, lp = tmp_path / "f.bin", tmp_path / "l.bin"
    fp.write_bytes(b"\x00" * 10)  # needs 4*3 = 12
    lp.write_bytes(b"\x00" * 4)
    with pytest.raises(FormatError, match="byte offset 10"):
        load_raw(fp, lp, (3,), 4, 2)


def test_load_raw_label_out_of_range_reports_offset(tmp_path):
    fp, lp = tmp_path / "f.bin", tmp_path / "l.bin"
    fp.write_bytes(b"\x00" * 8)
    lp.write_bytes(bytes([0, 1, 9, 0]))
    with pytest.raises(FormatError, match="label 9 out of range at byte offset 2"):
        load_raw(fp, lp, (2,), 4, 2)


def test_load_raw_scales_to_unit_interval(tmp_path):
    fp, lp = tmp_path / "f.bin", tmp_path / "l.bin"
    fp.write_bytes(bytes([0, 255, 51, 102]))
    lp.write_bytes(bytes([0, 1]))
    ds = load_raw(fp, lp, (2,), 2, 2)
    np.testing.assert_allclose(
        ds.features, [[0.0, 1.0], [0.2, 0.4]], atol=1e-12)


def test_dataset_label_range_guard():
    with pytest.raises(LabelRangeError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)


# --- task splits -------------------------------------------------------------

def base_dataset(n=1600, n_classes=8):
    labels = np.arange(n) % n_classes
    feats = np.arange(n, dtype=np.float64).reshape(n, 1)
    return Dataset(feats, labels, n_classes)


def test_split_sizes_50_50():
    seq = split_tasks(base_dataset(), [50, 50], joint=True, seed=0)
    assert [len(ix) for ix in seq.task_indices] == [800, 800]


def test_split_sizes_10_90_and_75_25():
    seq = split_tasks(base_dataset(), [10, 90], joint=True, seed=0)
    assert [len(ix) for ix in seq.task_indices] == [160, 1440]
    seq = split_tasks(base_dataset(), [75, 25], joint=True, seed=0)
    assert [len(ix) for ix in seq.task_indices] == [1200, 400]


def test_split_disjoint_and_complete():
    seq = split_tasks(base_dataset(), [30, 30, 40], joint=False, seed=3)
    merged = np.sort(np.concatenate(seq.task_indices))
    np.testing.assert_array_equal(merged, np.arange(1600))


def test_split_stratified_within_one_of_exact():
    ds = base_dataset(1600, 8)
    seq = split_tasks(ds, [10, 90], joint=True, seed=1, stratified=True)
    for frac, ix in zip((0.10, 0.90), seq.task_indices):
        counts = np.bincount(ds.labels[ix], minlength=8)
        assert np.abs(counts - frac * 200).max() <= 1.0


def test_split_unstratified_rounds_each_fraction_remainder_last():
    # per-fraction rounding: round(1.5), round(1.5), then the rest; cumulative
    # cuts (round(1.5), round(3.0), 10) would give [2, 1, 7]
    ds = base_dataset(10, 2)
    seq = split_tasks(ds, [15, 15, 70], joint=False, seed=4, stratified=False)
    assert [len(ix) for ix in seq.task_indices] == [2, 2, 6]
    merged = np.sort(np.concatenate(seq.task_indices))
    np.testing.assert_array_equal(merged, np.arange(10))  # disjoint and complete
    again = split_tasks(ds, [15, 15, 70], joint=False, seed=4, stratified=False)
    for a, b in zip(seq.task_indices, again.task_indices):
        np.testing.assert_array_equal(a, b)
    # the last task takes the rest, not round(7.2)
    seq = split_tasks(ds, [14, 14, 72], joint=False, seed=4, stratified=False)
    assert [len(ix) for ix in seq.task_indices] == [1, 1, 8]
    with pytest.raises(ArgumentError, match="^a task received no samples"):
        split_tasks(ds, [1, 99], joint=False, seed=4, stratified=False)


def test_joint_pool_accumulates_non_joint_does_not():
    joint = split_tasks(base_dataset(), [50, 50], joint=True, seed=0)
    seq = split_tasks(base_dataset(), [50, 50], joint=False, seed=0)
    assert len(joint.pool(0)) == 800
    assert len(joint.pool(1)) == 1600
    assert len(seq.pool(1)) == 800
    np.testing.assert_array_equal(
        joint.pool(1), np.sort(np.concatenate(joint.task_indices)))


def test_split_deterministic_and_seeded():
    a = split_tasks(base_dataset(), [50, 50], joint=True, seed=5)
    b = split_tasks(base_dataset(), [50, 50], joint=True, seed=5)
    c = split_tasks(base_dataset(), [50, 50], joint=True, seed=6)
    np.testing.assert_array_equal(a.task_indices[0], b.task_indices[0])
    assert (a.task_indices[0] != c.task_indices[0]).any()


def test_split_rejects_bad_fractions():
    for fracs in ([60, 50], [0, 100], [-10, 110], []):
        with pytest.raises(ArgumentError):
            split_tasks(base_dataset(), fracs, joint=True, seed=0)


def test_pool_index_range():
    seq = split_tasks(base_dataset(), [50, 50], joint=True, seed=0)
    with pytest.raises(ArgumentError):
        seq.pool(2)


# --- batch iteration ---------------------------------------------------------

def test_batch_iter_covers_pool_each_epoch():
    pool = np.arange(100, 150)
    batches = list(batch_iter(pool, 16, epochs=2, rng=Rng(0)))
    # 50 samples at batch 16: 4 batches per epoch, last short
    assert [len(b) for b in batches] == [16, 16, 16, 2] * 2
    seen = np.sort(np.concatenate(batches[:4]))
    np.testing.assert_array_equal(seen, pool)


def test_batch_iter_epochs_reshuffle():
    pool = np.arange(32)
    batches = list(batch_iter(pool, 32, epochs=2, rng=Rng(1)))
    assert (batches[0] != batches[1]).any()


def test_batch_iter_rejects_empty_pool():
    with pytest.raises(ArgumentError):
        list(batch_iter(np.array([], dtype=np.int64), 4, 1, Rng(0)))


def test_batch_iter_rejects_batch_size_0():
    with pytest.raises(ArgumentError, match="^batch size must be >= 1, got 0$"):
        list(batch_iter(np.arange(4), 0, 1, Rng(0)))


def test_batches_per_epoch_rounds_up():
    assert batches_per_epoch(800, 64) == 13
    assert batches_per_epoch(1600, 64) == 25
    assert batches_per_epoch(160, 64) == 3
    assert batches_per_epoch(64, 64) == 1


def test_normalize_unit_shared_affine_map():
    train = Dataset(np.array([[0.0, 10.0]]), np.array([0]), 2)
    test = Dataset(np.array([[-10.0, 5.0]]), np.array([1]), 2)
    tn, sn = normalize_unit(train, test)
    assert tn.features.min() >= 0.0 and tn.features.max() <= 1.0
    np.testing.assert_allclose(tn.features, [[0.5, 1.0]])
    np.testing.assert_allclose(sn.features, [[0.0, 0.75]])


def test_normalize_unit_constant_features_shift_to_zero():
    # a zero span divides by 1: every feature becomes 0, none NaN
    train = Dataset(np.full((2, 3), 7.5), np.array([0, 1]), 2)
    test = Dataset(np.full((1, 3), 7.5), np.array([1]), 2)
    tn, sn = normalize_unit(train, test)
    assert tn.features.tolist() == [[0.0] * 3] * 2
    assert sn.features.tolist() == [[0.0] * 3]
