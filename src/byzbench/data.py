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


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (n, d) with integer labels in [0, n_classes)."""

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
    """The samples at `indices`, with (k, d) features laid out feature-major.

    The features are the transpose view of a C-contiguous (d, k) array, the
    layout `_DenseNet.accuracy` scores fastest. They are gathered into it
    _TAKE_BLOCK rows at a time, so besides the source and the result no more
    than one block of them is held.
    """
    idx = np.asarray(indices, dtype=np.int64)
    features = np.empty((dataset.dim, idx.size), dtype=dataset.features.dtype)
    for lo in range(0, idx.size, _TAKE_BLOCK):
        block = idx[lo : lo + _TAKE_BLOCK]
        features[:, lo : lo + block.size] = dataset.features[block].T
    return LabeledDataset(features.T, dataset.labels[idx], dataset.n_classes)


def synth_classification(
    n: int,
    dim: int,
    n_classes: int,
    class_separation: float,
    rng: np.random.Generator,
) -> tuple[LabeledDataset, np.ndarray]:
    """Gaussian-cluster classification data and the shuffle of its samples.

    Class centers are drawn at random and rescaled so the closest pair sits
    exactly class_separation apart; samples add unit-variance isotropic noise.
    Class counts are balanced within one sample. The samples come in
    generation order, one contiguous block per class; the shuffled data set
    is `take(dataset, order)`. Returning the permutation and not the shuffled
    copy lets a caller keep the one feature matrix and index its rows.
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

    counts = class_counts(n, n_classes)
    labels = np.repeat(np.arange(n_classes), counts)
    # Labels come in contiguous class blocks, so each center is added to its
    # block in place: the same sums as centers[labels] + noise, without two
    # more (n, dim) temporaries.
    features = rng.standard_normal((n, dim))
    ends = np.cumsum(counts)
    for c, (lo, hi) in enumerate(zip(ends - counts, ends)):
        features[lo:hi] += centers[c]
    order = rng.permutation(n)
    return LabeledDataset(features, labels.astype(np.int64), n_classes), order


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


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian, MNIST-style layout).

    Pixels are scaled to [0, 1] floats and flattened row-major; labels stay
    integers. Bad magic numbers, mismatched counts, or truncated payloads
    raise FormatError (`idx_counts`, which `validate` runs too).
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    n_images, rows, cols = idx_counts(images_path, "image")
    idx_counts(labels_path, "label", n_images)
    pixels = np.frombuffer(
        images_path.read_bytes(), dtype=np.uint8, count=n_images * rows * cols, offset=16
    )
    labels = np.frombuffer(labels_path.read_bytes(), dtype=np.uint8, count=n_images, offset=8)

    features = pixels.astype(np.float64).reshape(n_images, rows * cols)
    features /= 255.0  # in place: the same quotients without a second float copy
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(features, labels.astype(np.int64), n_classes)
