from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest

from byzbench.data import (
    LabeledDataset,
    carve_clean_shard,
    dirichlet_partition,
    load_idx,
    stratified_holdout,
    synth_classification,
    take,
)
from byzbench.errors import EmptySelection, FormatError, InfeasiblePartition


def _dataset(n=1000, d=8, classes=4, separation=6.0, seed=0):
    """The shuffled data set: generated samples in the order the permutation gives."""
    ds, order = synth_classification(n, d, classes, separation, np.random.default_rng(seed))
    return take(ds, order)


# ------------------------------------------------------------------- dataset


def test_dataset_validation():
    with pytest.raises(FormatError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 2)
    with pytest.raises(FormatError):
        LabeledDataset(np.zeros(6), np.zeros(6, dtype=np.int64), 2)
    with pytest.raises(FormatError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)


def test_take_subsets_rows():
    ds = _dataset(n=50)
    sub = take(ds, [4, 7, 9])
    assert sub.n == 3
    assert np.array_equal(sub.features, ds.features[[4, 7, 9]])
    assert np.array_equal(sub.labels, ds.labels[[4, 7, 9]])


def test_take_gathers_feature_major_without_a_second_copy():
    ds = _dataset(n=5000, d=50)
    idx = np.random.default_rng(1).permutation(ds.n)[:4000]  # many gather blocks
    tracemalloc.start()
    try:
        sub = take(ds, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.features.T.flags.c_contiguous
    assert np.array_equal(sub.features, ds.features[idx])
    assert np.array_equal(sub.labels, ds.labels[idx])
    # the result, its labels and indices, and one block: far below two copies
    assert peak < 1.2 * sub.features.nbytes
    assert take(ds, []).features.shape == (0, ds.dim)


def test_synth_balanced_labels():
    ds = _dataset(n=103, classes=10)
    counts = np.bincount(ds.labels, minlength=10)
    assert counts.sum() == 103
    assert counts.max() - counts.min() <= 1


def test_synth_single_class():
    ds, _ = synth_classification(20, 5, 1, 10.0, np.random.default_rng(0))
    assert np.array_equal(ds.labels, np.zeros(20, dtype=np.int64))


def test_synth_returns_generation_order_and_a_permutation():
    ds, order = synth_classification(103, 4, 10, 6.0, np.random.default_rng(4))
    assert np.array_equal(np.sort(order), np.arange(103))
    assert np.all(np.diff(ds.labels) >= 0)  # one contiguous block per class
    shuffled = take(ds, order)
    assert np.array_equal(np.bincount(shuffled.labels), np.bincount(ds.labels))
    assert not np.array_equal(shuffled.labels, ds.labels)


def test_synth_deterministic_per_seed():
    a, b = _dataset(seed=9), _dataset(seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_rejects_more_classes_than_samples():
    with pytest.raises(InfeasiblePartition):
        synth_classification(3, 2, 5, 1.0, np.random.default_rng(0))


def test_synth_wide_separation_is_linearly_separable():
    ds = _dataset(n=2000, d=20, classes=5, separation=10.0, seed=3)
    half = ds.n // 2
    train, test = take(ds, np.arange(half)), take(ds, np.arange(half, ds.n))
    centroids = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in range(ds.n_classes)]
    )
    d2 = ((test.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = float(np.mean(np.argmin(d2, axis=1) == test.labels))
    assert accuracy > 0.95


# ------------------------------------------------------------------- holdout


def test_holdout_partitions_all_indices():
    ds = _dataset()
    train, test = stratified_holdout(ds.labels, ds.n_classes, 0.2, np.random.default_rng(1))
    combined = np.sort(np.concatenate([train, test]))
    assert np.array_equal(combined, np.arange(ds.n))


def test_holdout_is_stratified():
    ds = _dataset(n=1000, classes=4)
    _, test = stratified_holdout(ds.labels, ds.n_classes, 0.25, np.random.default_rng(2))
    for c in range(4):
        class_total = int(np.sum(ds.labels == c))
        got = int(np.sum(ds.labels[test] == c))
        assert got == int(0.25 * class_total + 0.5)


def test_holdout_rejects_bad_fraction():
    ds = _dataset(n=40)
    for fraction in (0.0, 1.0, -0.2):
        with pytest.raises(InfeasiblePartition):
            stratified_holdout(ds.labels, ds.n_classes, fraction, np.random.default_rng(0))


# ----------------------------------------------------------------- partition


def test_partition_disjoint_and_covering():
    ds = _dataset()
    parts = dirichlet_partition(ds.labels, ds.n_classes, 8, 0.6, 0, np.random.default_rng(5))
    all_idx = np.concatenate(parts)
    assert len(all_idx) == len(set(all_idx.tolist()))  # disjoint
    assert np.array_equal(np.sort(all_idx), np.arange(ds.n))  # covering


def test_partition_positions_are_sorted_per_client():
    ds = _dataset()
    parts = dirichlet_partition(ds.labels, ds.n_classes, 6, 0.4, 0, np.random.default_rng(6))
    assert len(parts) == 6
    assert sum(p.size for p in parts) == ds.n
    for p in parts:
        assert p.dtype == np.int64 and np.all(np.diff(p) > 0)


def test_partition_single_client_takes_everything():
    ds = _dataset(n=200)
    parts = dirichlet_partition(ds.labels, ds.n_classes, 1, 0.6, 0, np.random.default_rng(0))
    assert len(parts) == 1
    assert np.array_equal(parts[0], np.arange(200))


def test_partition_near_uniform_at_huge_beta():
    global_hist = None
    for seed in range(10):
        ds = _dataset(n=2000, classes=4, seed=seed)
        global_hist = np.bincount(ds.labels, minlength=4) / ds.n
        parts = dirichlet_partition(ds.labels, ds.n_classes, 5, 1e4, 0, np.random.default_rng(100 + seed))
        for p in parts:
            hist = np.bincount(ds.labels[p], minlength=4) / p.size
            assert np.abs(hist - global_hist).max() < 0.05


def test_partition_skew_grows_as_beta_shrinks():
    def mean_kl(beta, seed):
        ds = _dataset(n=2000, classes=4, seed=seed)
        global_hist = np.bincount(ds.labels, minlength=4) / ds.n
        parts = dirichlet_partition(ds.labels, ds.n_classes, 10, beta, 1, np.random.default_rng(200 + seed))
        kls = []
        for p in parts:
            hist = np.bincount(ds.labels[p], minlength=4) / p.size
            mask = hist > 0
            kls.append(float(np.sum(hist[mask] * np.log(hist[mask] / global_hist[mask]))))
        return float(np.mean(kls))

    skew_low = np.mean([mean_kl(0.2, s) for s in range(10)])
    skew_high = np.mean([mean_kl(0.6, s) for s in range(10)])
    assert skew_low > skew_high


def test_partition_respects_min_size():
    ds = _dataset(n=600, classes=3)
    parts = dirichlet_partition(ds.labels, ds.n_classes, 5, 0.1, 25, np.random.default_rng(7))
    assert all(p.size >= 25 for p in parts)


def test_partition_excludes_reserved_indices():
    ds = _dataset()
    reserved = np.arange(0, ds.n, 10)
    parts = dirichlet_partition(ds.labels, ds.n_classes, 4, 0.6, 0, np.random.default_rng(8), exclude=reserved)
    claimed = np.concatenate(parts)
    assert not np.intersect1d(claimed, reserved).size
    assert sum(p.size for p in parts) == ds.n - reserved.size


def test_partition_infeasible_min_size():
    ds = _dataset(n=100)
    with pytest.raises(InfeasiblePartition):
        dirichlet_partition(ds.labels, ds.n_classes, 10, 0.6, 20, np.random.default_rng(0))


def test_partition_that_gives_up_names_its_knobs():
    # 4 x 25 of 100 samples fits only an exactly even split, which no draw gives.
    ds = _dataset(n=100)
    with pytest.raises(InfeasiblePartition) as info:
        dirichlet_partition(ds.labels, ds.n_classes, 4, 0.6, 25, np.random.default_rng(0))
    assert all(knob in str(info.value) for knob in ("min_client_size", "beta", "clients"))


def test_partition_requires_every_class_present():
    labels = np.zeros(10, dtype=np.int64)
    with pytest.raises(InfeasiblePartition):
        dirichlet_partition(labels, 3, 2, 0.6, 0, np.random.default_rng(0))


def test_partition_bad_arguments():
    ds = _dataset(n=100)
    with pytest.raises(InfeasiblePartition):
        dirichlet_partition(ds.labels, ds.n_classes, 0, 0.6, 0, np.random.default_rng(0))
    with pytest.raises(InfeasiblePartition):
        dirichlet_partition(ds.labels, ds.n_classes, 2, 0.0, 0, np.random.default_rng(0))


# --------------------------------------------------------------- clean shard


def test_shard_size_tracks_fraction():
    ds = _dataset(n=10000, classes=10)
    shard = carve_clean_shard(ds.labels, ds.n_classes, 0.01, np.random.default_rng(1))
    assert abs(shard.size - 100) <= 10  # one rounding per class
    assert np.array_equal(shard, np.unique(shard))  # sorted, no repeats


def test_shard_is_stratified():
    ds = _dataset(n=1000, classes=4)
    shard = carve_clean_shard(ds.labels, ds.n_classes, 0.1, np.random.default_rng(3))
    global_hist = np.bincount(ds.labels, minlength=4)
    shard_hist = np.bincount(ds.labels[shard], minlength=4)
    for c in range(4):
        assert abs(shard_hist[c] - 0.1 * global_hist[c]) <= 1.0


def test_shard_argument_errors():
    ds = _dataset(n=100)
    for fraction in (0.0, 1.0, 1.5):
        with pytest.raises(EmptySelection):
            carve_clean_shard(ds.labels, ds.n_classes, fraction, np.random.default_rng(0))


def test_shard_rounding_to_empty_is_an_error():
    ds = _dataset(n=100, classes=10, d=2)
    with pytest.raises(EmptySelection):
        carve_clean_shard(ds.labels, ds.n_classes, 0.004, np.random.default_rng(0))


# ------------------------------------------------------------------------ idx


def _write_idx(tmp_path, pixels: np.ndarray, labels: np.ndarray):
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return images_path, labels_path


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=np.uint8)
    ds = load_idx(*_write_idx(tmp_path, pixels, labels))
    assert ds.n == 10 and ds.dim == 784 and ds.n_classes == 10
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert np.allclose(ds.features, pixels.reshape(10, 784) / 255.0, atol=0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_idx_scaling_matches_dividing_a_float_copy(tmp_path):
    rng = np.random.default_rng(1)
    pixels = np.concatenate(
        [np.arange(256, dtype=np.uint8), rng.integers(0, 256, size=344, dtype=np.uint8)]
    ).reshape(6, 10, 10)
    labels = np.arange(6, dtype=np.uint8) % 3
    ds = load_idx(*_write_idx(tmp_path, pixels, labels))
    want = pixels.astype(np.float64).reshape(6, 100) / 255.0
    assert ds.features.dtype == want.dtype and ds.features.shape == want.shape
    assert ds.features.tobytes() == want.tobytes()


def test_idx_bad_image_magic(tmp_path):
    images, labels = _write_idx(
        tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8)
    )
    images.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + bytes(4))
    with pytest.raises(FormatError):
        load_idx(images, labels)


def test_idx_bad_label_magic(tmp_path):
    images, labels = _write_idx(
        tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8)
    )
    labels.write_bytes(struct.pack(">II", 0xBEEF, 1) + bytes(1))
    with pytest.raises(FormatError):
        load_idx(images, labels)


def test_idx_count_mismatch(tmp_path):
    images, labels = _write_idx(
        tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    )
    labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(FormatError):
        load_idx(images, labels)


def test_idx_truncated_pixels(tmp_path):
    images, labels = _write_idx(
        tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    )
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(3))
    with pytest.raises(FormatError):
        load_idx(images, labels)


def test_idx_errors_name_the_file_and_the_fault(tmp_path):
    def error(image_bytes: bytes, label_bytes: bytes) -> str:
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(image_bytes)
        labels.write_bytes(label_bytes)
        with pytest.raises(FormatError) as info:
            load_idx(str(images), str(labels))
        return str(info.value).replace(f"{tmp_path}/", "")

    image_head, label_head = struct.pack(">IIII", 0x803, 2, 2, 2), struct.pack(">II", 0x801, 2)
    assert error(b"", label_head) == "images.idx: truncated, wanted 16 bytes, have 0"
    bad_magic = struct.pack(">IIII", 0xDEAD, 2, 2, 2)
    assert error(bad_magic, b"") == "images.idx: bad image magic 0x0000dead"
    assert error(image_head + bytes(7), b"") == "images.idx: truncated, wanted 24 bytes, have 23"
    image = image_head + bytes(8)
    assert error(image, label_head[:7]) == "labels.idx: truncated, wanted 8 bytes, have 7"
    assert error(image, image) == "labels.idx: bad label magic 0x00000803"
    assert error(image, struct.pack(">II", 0x801, 3)) == "labels.idx: 3 labels for 2 images"
    assert error(image, label_head + bytes(1)) == "labels.idx: truncated, wanted 10 bytes, have 9"
