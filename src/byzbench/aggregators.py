"""Baseline robust aggregation rules over client update vectors.

Every rule takes client vectors (list of 1-D arrays or an (M, p) matrix) and
returns a single aggregated 1-D float64 array. Weighted rules expect the
per-client weight vector alpha (non-negative, normally summing to one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_matrix, weighted_average
from .errors import (
    EmptySelection,
    InsufficientClients,
    InvalidField,
    InvalidReference,
    MissingReference,
)

AGGREGATOR_KINDS = ("mean", "median", "krum", "gm", "mca", "cclip", "fltrust")

_LABELS = {
    "mean": "Mean",
    "median": "Median",
    "krum": "Krum",
    "gm": "GM",
    "mca": "MCA",
    "cclip": "CClip",
    "fltrust": "FLTrust",
}


def aggregate_mean(weights, vectors) -> np.ndarray:
    """Plain weighted mean over all clients."""
    return weighted_average(weights, vectors)


def aggregate_median(vectors) -> np.ndarray:
    """Coordinate-wise median; even client counts take the midpoint of the middle pair."""
    return np.median(as_matrix(vectors), axis=0)


def aggregate_krum(vectors, assumed_byzantine: int) -> np.ndarray:
    """Return the single vector with the lowest Krum score.

    The score of client i is the sum of squared distances to its M - f - 2
    nearest neighbours, with f = assumed_byzantine. Ties go to the lowest
    client id. The winner is returned bitwise (a copy of the input row).
    """
    mat = as_matrix(vectors)
    m = mat.shape[0]
    f = int(assumed_byzantine)
    if f < 0:
        raise InsufficientClients(f"assumed byzantine count {f} is negative")
    if m < f + 3:
        raise InsufficientClients(f"krum needs at least f + 3 = {f + 3} clients, got {m}")
    sq = np.sum((mat[:, None, :] - mat[None, :, :]) ** 2, axis=2)
    neighbours = m - f - 2
    scores = np.empty(m)
    for i in range(m):
        others = np.sort(np.delete(sq[i], i))
        scores[i] = others[:neighbours].sum()
    winner = int(np.argmin(scores))  # argmin takes the first (lowest id) on ties
    return mat[winner].copy()


def aggregate_gm(
    weights,
    vectors,
    eps: float = 1e-5,
    max_iter: int = 1000,
    objective_trace: list | None = None,
) -> np.ndarray:
    """Weighted geometric median via Weiszfeld fixed-point iteration.

    Starts from the weighted mean and stops once successive iterates move less
    than eps in l2, or after max_iter steps. An iterate that lands exactly on
    an input point is offset by eps in the first coordinate before the next
    step. If objective_trace is a list, the objective sum_m alpha_m ||c - g_m||
    of every visited iterate is appended to it.
    """
    mat = as_matrix(vectors)
    alpha = np.asarray(weights, dtype=np.float64)
    c = weighted_average(alpha, mat)
    if objective_trace is not None:
        objective_trace.append(float(alpha @ np.linalg.norm(mat - c, axis=1)))
    for _ in range(max_iter):
        work = c
        dists = np.linalg.norm(mat - work, axis=1)
        if np.any(dists == 0.0):
            work = c.copy()
            work[0] += eps
            dists = np.linalg.norm(mat - work, axis=1)
        inv = alpha / dists
        c_next = (inv @ mat) / inv.sum()
        moved = float(np.linalg.norm(c_next - c))
        if moved < eps:
            break
        c = c_next
        if objective_trace is not None:
            objective_trace.append(float(alpha @ np.linalg.norm(mat - c, axis=1)))
    return c


def aggregate_mca(weights, vectors, tol: float = 1e-5, max_iter: int = 1000) -> np.ndarray:
    """Correntropy-style aggregation: iteratively re-weighted average under a
    Gaussian kernel whose bandwidth adapts to the residual spread.

    Starts from the coordinate-wise median. Each step computes residuals
    r_m = ||g_m - c||, the bandwidth sigma = sum alpha_m r_m / sum alpha_m
    (floored at 1e-12), kernel weights u_m = exp(-r_m^2 / (2 sigma^2)), and
    moves to c = sum alpha_m u_m g_m / sum alpha_m u_m. Stops when the step is
    below tol or after max_iter iterations. The mean bandwidth lets a coherent
    far-away clique widen sigma enough to stay influential, which reproduces
    this rule's known fragility to amplified sign-flip payloads.
    """
    mat = as_matrix(vectors)
    alpha = np.asarray(weights, dtype=np.float64)
    c = np.median(mat, axis=0)
    norm_alpha = alpha / alpha.sum()
    for _ in range(max_iter):
        resid = np.linalg.norm(mat - c, axis=1)
        sigma = max(float(norm_alpha @ resid), 1e-12)
        u = np.exp(-(resid**2) / (2.0 * sigma * sigma))
        combined = alpha * u
        c_next = (combined @ mat) / combined.sum()
        if float(np.linalg.norm(c_next - c)) < tol:
            return c_next
        c = c_next
    return c


def _clip_rows(diffs: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(diffs, axis=1)
    with np.errstate(divide="ignore"):
        scale = np.minimum(1.0, np.where(norms > 0.0, radius / norms, 1.0))
    return diffs * scale[:, None]


def aggregate_cclip(weights, vectors, center, clip_radius: float = 10.0, iters: int = 3) -> np.ndarray:
    """Centered clipping: repeatedly pull the center toward the clipped updates.

    Runs `iters` rounds of c <- c + sum_m alpha_m * clip(g_m - c, clip_radius),
    where clip rescales a difference onto the radius ball (zero differences and
    an infinite radius pass through unchanged). The caller supplies the center,
    conventionally the previous round's aggregate (zeros on the first round).
    """
    mat = as_matrix(vectors)
    alpha = np.asarray(weights, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64).copy()
    if c.shape != mat.shape[1:]:
        raise MissingReference(f"center shape {c.shape} does not match updates {mat.shape[1:]}")
    for _ in range(iters):
        c = c + alpha @ _clip_rows(mat - c, clip_radius)
    return c


def aggregate_fltrust(reference, vectors, weights=None) -> np.ndarray:
    """Trust-score aggregation against a clean reference gradient.

    Each update earns trust ts_m = max(0, cos(g_m, reference)) and is rescaled
    to the reference norm (updates with norm < 1e-12 are left unscaled). The
    output is sum ts_m g~_m / sum ts_m; if every trust score is zero the
    reference itself is returned. Partition weights do not enter the formula;
    the parameter exists for interface uniformity.
    """
    del weights
    mat = as_matrix(vectors)
    ref = np.asarray(reference, dtype=np.float64)
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise InvalidReference("fltrust reference gradient is zero")
    norms = np.linalg.norm(mat, axis=1)
    safe = norms >= 1e-12
    cosine = np.zeros(mat.shape[0])
    cosine[safe] = (mat[safe] @ ref) / (norms[safe] * ref_norm)
    trust = np.maximum(0.0, cosine)
    rescaled = mat.copy()
    rescaled[safe] *= (ref_norm / norms[safe])[:, None]
    total = float(trust.sum())
    if total == 0.0:
        return ref.copy()
    return (trust @ rescaled) / total


@dataclass(frozen=True)
class AggregatorSpec:
    """Which baseline rule to run, plus the knobs of the kinds that have them.

    assumed_byzantine is Krum's f; when None the simulator fills in
    ceil(requested_ratio * M).
    """

    kind: str
    assumed_byzantine: int | None = field(default=None, metadata={"kinds": ("krum",)})
    tolerance: float = field(default=1e-5, metadata={"kinds": ("gm", "mca")})
    max_iter: int = field(default=1000, metadata={"kinds": ("gm", "mca")})
    clip_radius: float = field(default=10.0, metadata={"kinds": ("cclip",)})
    clip_iters: int = field(default=3, metadata={"kinds": ("cclip",)})

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise InvalidField("kind", f"unknown aggregator kind {self.kind!r}")
        if self.tolerance <= 0.0:
            raise InvalidField("tolerance", "tolerance must be positive")
        if self.max_iter < 1:
            raise InvalidField("max_iter", "max_iter must be at least 1")
        if self.clip_radius <= 0.0:
            raise InvalidField("clip_radius", "clip_radius must be positive")
        if self.clip_iters < 1:
            raise InvalidField("clip_iters", "clip_iters must be at least 1")
        if self.assumed_byzantine is not None and self.assumed_byzantine < 0:
            raise InvalidField("assumed_byzantine", "assumed_byzantine must be non-negative")

    @property
    def label(self) -> str:
        return _LABELS[self.kind]


def aggregate(spec: AggregatorSpec, weights, vectors, *, center=None, reference=None) -> np.ndarray:
    """Dispatch to the rule named by spec."""
    if spec.kind == "mean":
        return aggregate_mean(weights, vectors)
    if spec.kind == "median":
        return aggregate_median(vectors)
    if spec.kind == "krum":
        if spec.assumed_byzantine is None:
            raise ValueError("krum spec was not resolved: assumed_byzantine is None")
        return aggregate_krum(vectors, spec.assumed_byzantine)
    if spec.kind == "gm":
        return aggregate_gm(weights, vectors, eps=spec.tolerance, max_iter=spec.max_iter)
    if spec.kind == "mca":
        return aggregate_mca(weights, vectors, tol=spec.tolerance, max_iter=spec.max_iter)
    if spec.kind == "cclip":
        if center is None:
            raise MissingReference("cclip needs a center vector")
        return aggregate_cclip(weights, vectors, center, spec.clip_radius, spec.clip_iters)
    if spec.kind == "fltrust":
        if reference is None:
            raise MissingReference("fltrust needs a clean reference gradient")
        return aggregate_fltrust(reference, vectors, weights)
    raise EmptySelection(f"unreachable aggregator kind {spec.kind!r}")
