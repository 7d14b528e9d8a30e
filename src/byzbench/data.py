"""Datasets, non-IID client partitions, clean shards, and IDX ingestion."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySelection, FormatError, InfeasiblePartition

# Shared with config validation, which loads no numpy.
from .specs import class_counts, class_share, idx_counts

_MAX_PARTITION_ATTEMPTS = 10000
_TAKE_BLOCK = 256
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (n, d) with integer labels in [0, n_classes).

    The features are float64, except inside `load_idx`, where the file's
    uint8 pixels pass through `take` on their way to floats."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise FormatError("features must be (n, d) and labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"{self.features.shape[0]} samples but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise FormatError("labels outside [0, n_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def take(dataset: LabeledDataset, indices) -> LabeledDataset:
    """The samples at `indices`, with (k, d) float64 features laid out feature-major.

    The features are the transpose view of a C-contiguous (d, k) array, the
    layout `_DenseNet.accuracy` scores fastest. They are gathered into it
    _TAKE_BLOCK rows at a time, so besides the source and the result no more
    than one block of them is held. A uint8 source (IDX pixels) is converted
    as it is gathered.
    """
    idx = np.asarray(indices, dtype=np.int64)
    features = np.empty((dataset.dim, idx.size))
    for lo in range(0, idx.size, _TAKE_BLOCK):
        block = idx[lo : lo + _TAKE_BLOCK]
        features[:, lo : lo + block.size] = dataset.features[block].T
    return LabeledDataset(features.T, dataset.labels[idx], dataset.n_classes)


def class_labels(n: int, n_classes: int) -> np.ndarray:
    """The labels of `synth_classification`'s n samples, in generation order:
    one contiguous block per class, sized by `class_counts`."""
    return np.repeat(np.arange(n_classes, dtype=np.int64), class_counts(n, n_classes))


def synth_classification(
    n: int,
    dim: int,
    n_classes: int,
    class_separation: float,
    rng: np.random.Generator,
    keep=None,
    test=None,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Gaussian-cluster classification data and a test split, `(dataset,
    test)` as `load_idx` returns them. `rng` draws the centers and noise only.

    Class centers are drawn at random and rescaled so the closest pair sits
    exactly class_separation apart; samples add unit-variance isotropic noise.
    Class counts are balanced within one sample, and the samples come in
    generation order, one contiguous block per class (`class_labels`).

    The features are generated _BLOCK_ROWS samples at a time, and only the
    asked-for ones are held. `dataset` holds the samples `keep` marks (a
    boolean mask over the n samples, every sample by default), row-major in
    generation order. `test` holds the samples at positions `test` (none by
    default), in that order, laid out as `take` lays them out. Every draw is
    the same whatever is kept.
    """
    if n < n_classes or n_classes < 1:
        raise InfeasiblePartition(f"cannot build {n_classes} classes from {n} samples")
    if n_classes == 1:
        centers = rng.standard_normal((1, dim))  # separation is moot for one class
    else:
        while True:
            centers = rng.standard_normal((n_classes, dim))
            deltas = centers[:, None, :] - centers[None, :, :]
            dist = np.linalg.norm(deltas, axis=2)
            closest = dist[np.triu_indices(n_classes, k=1)].min()
            if closest > 0.0:
                break
        centers *= class_separation / closest

    labels = class_labels(n, n_classes)
    keep = np.ones(n, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    test = np.asarray(() if test is None else test, dtype=np.int64)
    kept = np.empty((np.count_nonzero(keep), dim))
    # The test split as `take` lays it out; `columns` lists its columns in
    # generation order, so each block writes its test rows straight into them.
    test_features = np.empty((dim, test.size))
    columns = np.argsort(test)
    test_sorted = test[columns]

    # Chunked draws are the one-shot draw: `standard_normal` fills its output
    # from the stream in row-major order, whatever the output's size.
    ends = np.cumsum(class_counts(n, n_classes))
    block = np.empty((min(_BLOCK_ROWS, n), dim))
    n_kept = 0
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        chunk = rng.standard_normal(out=block[: hi - lo])
        # Each center is added to its class's rows in place: the same sums as
        # centers[labels] + noise.
        for c in range(np.searchsorted(ends, lo, side="right"), n_classes):
            start = ends[c - 1] if c else 0
            if start >= hi:
                break
            chunk[max(start, lo) - lo : min(ends[c], hi) - lo] += centers[c]
        marks = keep[lo:hi]
        count = np.count_nonzero(marks)
        np.compress(marks, chunk, axis=0, out=kept[n_kept : n_kept + count])
        n_kept += count
        first, last = np.searchsorted(test_sorted, (lo, hi))
        test_features[:, columns[first:last]] = chunk[test_sorted[first:last] - lo].T
    del block, chunk
    test_set = LabeledDataset(test_features.T, labels[test], n_classes)
    return LabeledDataset(kept, labels[keep], n_classes), test_set


def stratified_holdout(
    labels: np.ndarray, n_classes: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split positions in `labels` into (train, test), taking `fraction` of every class."""
    if not 0.0 < fraction < 1.0:
        raise InfeasiblePartition(f"holdout fraction {fraction} outside (0, 1)")
    test_parts = []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        k = class_share(fraction, idx.size)
        test_parts.append(rng.permutation(idx)[:k])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(labels.size, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def carve_clean_shard(
    labels: np.ndarray, n_classes: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Sorted positions in `labels` of a stratified server-held clean shard.

    Samples round(fraction * count) indices per class, so the shard size is
    within one rounding per class of fraction * n. A fraction outside (0, 1)
    or one that rounds to an empty shard raises EmptySelection.
    """
    if not 0.0 < fraction < 1.0:
        raise EmptySelection(f"shard fraction {fraction} outside (0, 1)")
    parts = []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        k = class_share(fraction, idx.size)
        if k:
            parts.append(rng.permutation(idx)[:k])
    if not parts:
        raise EmptySelection(f"fraction {fraction} rounds to an empty shard")
    return np.sort(np.concatenate(parts))


def dirichlet_partition(
    labels: np.ndarray,
    n_classes: int,
    n_clients: int,
    beta: float,
    min_size: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Non-IID split of the positions in `labels`: per class, client shares
    follow Dirichlet(beta * 1_M). Client m's sorted positions are at index m.

    Small beta concentrates each class on few clients; large beta approaches
    uniform. Positions in `exclude` (e.g. a server shard) never reach a client.
    Whole partitions are redrawn until every client holds at least min_size
    samples.
    """
    if n_clients < 1 or beta <= 0.0 or min_size < 0:
        raise InfeasiblePartition("need n_clients >= 1, beta > 0, min_size >= 0")
    mask = np.ones(labels.size, dtype=bool)
    if exclude is not None:
        mask[np.asarray(exclude, dtype=np.int64)] = False
    pool = np.flatnonzero(mask)
    if min_size * n_clients > pool.size:
        raise InfeasiblePartition(
            f"clients ({n_clients}) x min_client_size ({min_size}) exceeds {pool.size} samples"
        )
    class_pools = []
    for c in range(n_classes):
        idx = pool[labels[pool] == c]
        if idx.size == 0:
            raise InfeasiblePartition(f"class {c} has no samples to partition")
        class_pools.append(idx)

    for _ in range(_MAX_PARTITION_ATTEMPTS):
        shards: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for idx in class_pools:
            shuffled = rng.permutation(idx)
            proportions = rng.dirichlet(np.full(n_clients, beta))
            cuts = (np.cumsum(proportions) * idx.size).astype(np.int64)[:-1]
            for m, piece in enumerate(np.split(shuffled, cuts)):
                shards[m].append(piece)
        sizes = np.array([sum(p.size for p in pieces) for pieces in shards])
        if np.all(sizes >= min_size):
            return [np.sort(np.concatenate(pieces)) for pieces in shards]
    raise InfeasiblePartition(
        f"no partition of {pool.size} samples gives each of clients ({n_clients}) "
        f"min_client_size ({min_size}) at beta {beta} in {_MAX_PARTITION_ATTEMPTS} draws; "
        "lower min_client_size or clients, or raise beta"
    )


def idx_labels(images_path, labels_path) -> np.ndarray:
    """The labels of an IDX image/label file pair, after checking both
    headers (`idx_counts`, which `validate` runs too)."""
    n_images = idx_counts(images_path, "image")[0]
    idx_counts(labels_path, "label", n_images)
    labels = np.frombuffer(Path(labels_path).read_bytes(), dtype=np.uint8, count=n_images, offset=8)
    return labels.astype(np.int64)


def load_idx(
    images_path, labels_path, keep=None, test=None
) -> tuple[LabeledDataset, LabeledDataset]:
    """Load an IDX image/label file pair (big-endian, MNIST-style layout).

    Pixels are scaled to [0, 1] floats and flattened row-major; labels stay
    integers. Bad magic numbers, mismatched counts, or truncated payloads
    raise FormatError. Returns `(dataset, test)` as `synth_classification`
    does: the images `keep` marks (every one by default), row-major in file
    order, and the images at positions `test` (none by default), laid out as
    `take` lays them out. Only those are converted; the others stay uint8
    bytes of the file.
    """
    labels = idx_labels(images_path, labels_path)
    n_images, rows, cols = idx_counts(images_path, "image")
    pixels = np.frombuffer(
        Path(images_path).read_bytes(), dtype=np.uint8, count=n_images * rows * cols, offset=16
    ).reshape(n_images, rows * cols)
    n_classes = int(labels.max()) + 1 if labels.size else 0

    keep = slice(None) if keep is None else np.asarray(keep, dtype=bool)
    features = pixels[keep].astype(np.float64)
    features /= 255.0  # in place: the same quotients without a second float copy
    test_set = take(LabeledDataset(pixels, labels, n_classes), () if test is None else test)
    np.divide(test_set.features, 255.0, out=test_set.features)
    return LabeledDataset(features, labels[keep], n_classes), test_set
