"""Shared numeric plumbing: vectors, weights, seeded substreams, Byzantine masks.

All gradient math runs in float64. Client updates are plain 1-D numpy arrays;
most operations also accept a pre-stacked (M, p) matrix.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySelection, InvalidRatio

# Slack for cumulative-weight comparisons: weight vectors are float ratios of
# integer partition sizes and may sit 1 ulp below a nominal threshold.
RATIO_TOL = 1e-12


def as_matrix(vectors) -> np.ndarray:
    """Stack client vectors into an (M, p) float64 matrix.

    Accepts a list of equal-length 1-D arrays or an existing 2-D array.
    Raises DimensionMismatch when lengths disagree.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        if vectors.shape[0] == 0:
            raise EmptySelection("no vectors supplied")
        return np.ascontiguousarray(vectors, dtype=np.float64)
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not rows:
        raise EmptySelection("no vectors supplied")
    p = rows[0].shape
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.shape != p:
            raise DimensionMismatch(f"vector {i} has shape {row.shape}, expected {p}")
    return np.stack(rows)


def weighted_average(weights, vectors) -> np.ndarray:
    """Weighted average with renormalization over the given selection.

    Computes sum_m (w_m / sum w) * v_m, so the caller may pass weight slices
    that do not sum to one (e.g. weights restricted to the surviving clients).
    """
    mat = as_matrix(vectors)
    return normalized_weights(weights, mat.shape[0]) @ mat


def normalized_weights(weights, count: int) -> np.ndarray:
    """weights / sum(weights), after checking there is one weight per vector
    and that the total is positive."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != count:
        raise DimensionMismatch(f"{w.shape[0] if w.ndim == 1 else w.shape} weights for {count} vectors")
    if w.shape[0] == 0:
        raise EmptySelection("empty selection")
    total = float(w.sum())
    if total <= 0.0:
        raise EmptySelection("selection has zero total weight")
    return w / total


@functools.lru_cache(maxsize=64)
def _purpose_entropy(purpose: str) -> tuple[int, ...]:
    """Four 32-bit words of sha256(purpose), memoized: a run reuses about ten purposes."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def _words(n: int) -> list[int]:
    """The 32-bit words SeedSequence splits a non-negative int into: low word
    first, and 0 as the single word 0."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def substream(master_seed: int, purpose: str, round_index: int = 0, client: int = 0) -> np.random.Generator:
    """Derive an independent, reproducible random stream.

    Streams are keyed by (master_seed, purpose, round, client); deriving the
    same key twice yields bitwise-identical output regardless of how many other
    streams were drawn in between. The purpose tag is hashed with sha256 so the
    derivation does not depend on interpreter hash randomization.

    The stream is the one `SeedSequence([master_seed mod 2**64, *purpose
    words, round, client])` gives. SeedSequence splits each int of such a
    list into 32-bit words, one numpy conversion per int; handing it the
    same words as one uint32 array gives the same stream for about half the
    cost: 12-24 against 24-53 us per stream on a 2-vCPU Xeon (numpy 2.4), of
    which seeding PCG64 from the sequence is about 10 us.
    """
    if round_index < 0 or client < 0:
        raise ValueError("round and client indices must be non-negative")
    words = [
        *_words(int(master_seed) & 0xFFFFFFFFFFFFFFFF),
        *_purpose_entropy(purpose),
        *_words(int(round_index)),
        *_words(int(client)),
    ]
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@dataclass(frozen=True)
class ByzantineMask:
    """Ground-truth compromised set: member ids plus realized weight ratio."""

    members: frozenset[int]
    realized_ratio: float

    @property
    def count(self) -> int:
        return len(self.members)


def select_byzantine_set(
    weights,
    requested_ratio: float,
    rng: np.random.Generator,
    exclude: frozenset[int] = frozenset(),
) -> ByzantineMask:
    """Pick the compromised clients for one experiment.

    Walks a seeded random permutation of the eligible clients, accumulating
    their weights until the cumulative weight first reaches requested_ratio.
    Guarantees realized >= requested (within RATIO_TOL) and that dropping the
    last added client would fall below the request. The walk does not depend
    on the ratio, so with equal weights, exclusions and stream seeds, a lower
    ratio's set is a prefix, and so a subset, of a higher ratio's: a sweep's
    rows of one seed attack nested sets.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] == 0:
        raise EmptySelection("no clients to select from")
    if not (0.0 <= requested_ratio < 1.0):
        raise InvalidRatio(f"requested ratio {requested_ratio} outside [0, 1)")
    if requested_ratio == 0.0:
        return ByzantineMask(frozenset(), 0.0)
    eligible = [m for m in range(w.shape[0]) if m not in exclude]
    order = rng.permutation(len(eligible))
    members: list[int] = []
    cumulative = 0.0
    for idx in order:
        client = eligible[int(idx)]
        members.append(client)
        cumulative += float(w[client])
        if cumulative >= requested_ratio - RATIO_TOL:
            return ByzantineMask(frozenset(members), cumulative)
    raise InvalidRatio(
        f"eligible weight {cumulative:.6f} cannot reach requested ratio {requested_ratio}"
    )
