"""Segmented similarity filter over client updates.

The filter compares every upload against a reference gradient on K random
contiguous coordinate windows. Per window each client gets a score: a
coordinate-wise similarity ratio in [0, 1] minus a penalty on the window norm.
The top N clients per window survive, and only clients surviving every window
are aggregated. The scoring cost is O(K * M * r) and does not touch the full
parameter dimension, so selection stays flat as models grow. The reference
does not: a robust aggregator over all uploads costs O(M * p) per round or
more (GM and MCA form the M x M Gram matrix, O(M^2 * p), then iterate on it).
With a one-hidden-layer MLP (hidden 128, dim 50, p = 7,818), 20 clients and
a LIE attack at ratio 0.2 over 100 rounds, the geometric-median reference
took about 23% of each H+GM round on 2 vCPUs, against 11% for the filter
(window draw, selection and survivor average).

At the headline's sizes the scoring is numpy dispatch more than arithmetic,
so `window_scores` scores all K windows of a block of clients in one slab:
at M = 20, K = 3, r = 50 it takes about 70 us where scoring one window at a
time took about 125 us, and at M = 50, K * r = 6,000 about 1.1-1.3 ms where
it took 1.7-1.9 ms (2-vCPU Xeon, numpy 2.4, bitwise equal scores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import aggregate
from .core import as_matrix, weighted_average
from .errors import (
    DimensionMismatch,
    InvalidReference,
    InvalidSelectionSize,
    MissingReference,
)
from .specs import AggregatorSpec, FilterParams


def similarity_check(x, y) -> float:
    """Coordinate-wise agreement ratio between reference x and candidate y.

    Returns the mean over coordinates of |x_i| / (|y_i - x_i| + |x_i|), with
    0/0 terms counted as 1 (both sides agree the coordinate is zero). Always
    lies in [0, 1]; equals 1 iff y == x.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DimensionMismatch(f"similarity_check got shapes {xv.shape} and {yv.shape}")
    return float(_similarity_rows(xv, yv[None, :])[0])


def _similarity_rows(
    ref_seg: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Similarity of each row of `rows` (along the last axis) against ref_seg,
    in one float buffer: `out`, which may be `rows` itself, or a fresh one.

    The buffer holds |row - ref| + |ref| and then the ratio in place; 0/0
    terms are divided as 0/1 and then set to 1.
    """
    num = np.abs(ref_seg)
    ratio = np.subtract(rows, ref_seg, out=out)
    np.abs(ratio, out=ratio)
    ratio += num
    zero = ratio == 0.0
    np.copyto(ratio, 1.0, where=zero)
    np.divide(num, ratio, out=ratio)
    np.copyto(ratio, 1.0, where=zero)
    return ratio.mean(axis=-1)


def sample_windows(
    dim: int, segment_len: int, passes: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Draw one window start per pass, uniform over valid offsets, and the width.

    The width is min(segment_len, dim), so short models degrade to
    whole-vector comparison. Windows may overlap; all clients in a round are
    scored on the same windows.
    """
    if dim < 1 or segment_len < 1 or passes < 1:
        raise InvalidSelectionSize("dim, segment_len and passes must all be >= 1")
    width = min(segment_len, dim)
    return rng.integers(0, dim - width + 1, size=passes), width


# window_scores works on blocks of clients whose (clients, K, r) slab holds
# about this many float64s (1 MB), so a block's slab and its masks stay in a
# 2 MB per-core L2 cache however many clients and windows a round has.
_SLAB_ELEMENTS = 1 << 17


def window_scores(
    reference: np.ndarray,
    uploads: np.ndarray,
    starts,
    width: int,
    penalty_weight: float,
    norm_pivot: float,
) -> np.ndarray:
    """(M, K) scores: column k scores every client on window [starts[k], starts[k] + width).

    score = H(ref_w, g_w) - penalty_weight * max(||g_w||, norm_pivot / ||g_w||).
    The penalty punishes both oversized and vanishing windows; a client whose
    window is exactly zero scores -inf.

    All K windows of a block of clients are copied into one (clients, K, r)
    slab and scored together, in place, with the same per-element
    operations and per-window reductions as scoring one window at a time, so
    the scores are bitwise the same.
    """
    n_clients, passes = uploads.shape[0], len(starts)
    ref = np.stack([reference[start : start + width] for start in starts])
    block = max(1, _SLAB_ELEMENTS // (passes * width))
    slab = np.empty((min(block, n_clients), passes, width))
    scores = np.empty((n_clients, passes))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n_clients, block):
            rows = uploads[lo : lo + block]
            part = slab[: rows.shape[0]]
            for k, start in enumerate(starts):
                part[:, k] = rows[:, start : start + width]
            norms = np.sqrt(np.einsum("mkr,mkr->mk", part, part))
            sim = _similarity_rows(ref, part, out=part)
            out = scores[lo : lo + block]
            np.subtract(sim, penalty_weight * np.maximum(norms, norm_pivot / norms), out=out)
            out[norms == 0.0] = -np.inf
    return scores


def build_reference(
    kind: str,
    base: AggregatorSpec | None,
    weights,
    uploads,
    *,
    trusted: tuple[int, ...] = (),
    clean_gradient=None,
    center=None,
) -> np.ndarray:
    """Materialize the reference gradient for one round.

    kind is a MethodSpec.reference: "aggregator" runs `base` over all uploads,
    "server_clean" passes the gradient of the server-held clean shard through,
    and "trusted" is the weighted average of the `trusted` clients' uploads.
    """
    if kind == "server_clean":
        if clean_gradient is None:
            raise MissingReference("server_clean reference requires a clean gradient")
        return np.asarray(clean_gradient, dtype=np.float64)
    mat = as_matrix(uploads)
    w = np.asarray(weights, dtype=np.float64)
    if kind == "trusted":
        ids = list(trusted)
        return weighted_average(w[ids], mat[ids])
    return aggregate(base, w, mat, center=center, reference=clean_gradient)


def select_clients(
    reference: np.ndarray,
    uploads: np.ndarray,
    params: FilterParams,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], np.ndarray]:
    """Keep the top N clients per window and intersect. O(passes * M * segment_len).

    Returns the sorted ids surviving every window, the windows as
    (start, width) pairs, and the (K, N) survivors, each row sorted. Score
    ties go to lower ids.
    """
    keep, n_clients = params.keep, uploads.shape[0]
    if keep is None:
        raise InvalidSelectionSize("FilterParams.keep must be resolved before filtering")
    if not 1 <= keep <= n_clients:
        raise InvalidSelectionSize(f"keep={keep} outside [1, {n_clients}]")
    starts, width = sample_windows(uploads.shape[1], params.segment_len, params.passes, rng)
    scores = window_scores(
        reference, uploads, starts, width, params.penalty_weight, params.norm_pivot
    )
    survivors = np.sort(np.argsort(-scores, axis=0, kind="stable")[:keep].T, axis=1)
    hits = np.bincount(survivors.ravel(), minlength=n_clients)
    selected = tuple(np.flatnonzero(hits == len(starts)).tolist())
    return selected, tuple((int(s), width) for s in starts), survivors


@dataclass(frozen=True)
class FilterResult:
    """Survivors of every window, their aggregate, the windows and the (K, N) survivors."""

    selected: tuple[int, ...]
    aggregate: np.ndarray
    windows: tuple[tuple[int, int], ...]
    survivors: np.ndarray

    @property
    def empty_intersection(self) -> bool:
        return not self.selected


def filter_and_aggregate(
    reference,
    uploads,
    weights,
    params: FilterParams,
    rng: np.random.Generator,
) -> FilterResult:
    """Filter the uploads and aggregate the survivors.

    Survivors are combined by renormalized weighted average. An empty
    intersection falls back to the reference itself and is flagged so callers
    can record the event. A reference with a non-finite entry raises
    InvalidReference, since it would score every client NaN and make the top
    N arbitrary.
    """
    ref = np.asarray(reference, dtype=np.float64)
    mat = as_matrix(uploads)
    if ref.shape != mat.shape[1:]:
        raise DimensionMismatch(f"reference shape {ref.shape} vs uploads {mat.shape[1:]}")
    if not np.isfinite(ref).all():
        raise InvalidReference("reference gradient has non-finite entries")
    w = np.asarray(weights, dtype=np.float64)
    selected, windows, survivors = select_clients(ref, mat, params, rng)
    ids = list(selected)
    agg = weighted_average(w[ids], mat[ids]) if ids else ref.copy()
    return FilterResult(selected, agg, windows, survivors)
