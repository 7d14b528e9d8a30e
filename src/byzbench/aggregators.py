"""Baseline robust aggregation rules over client update vectors.

Every rule takes client vectors (list of 1-D arrays or an (M, p) matrix) and
returns a single aggregated 1-D float64 array. Weighted rules expect the
per-client weight vector alpha (non-negative, normally summing to one).
"""

from __future__ import annotations

import numpy as np

from .core import as_matrix, normalized_weights, weighted_average
from .errors import (
    InsufficientClients,
    InvalidField,
    InvalidReference,
    MissingReference,
)
# AGGREGATOR_KINDS is unused here; benchmarks/micro.py reads it from this module.
from .specs import AGGREGATOR_KINDS, AggregatorSpec


def aggregate_mean(weights, vectors) -> np.ndarray:
    """Plain weighted mean over all clients."""
    return weighted_average(weights, vectors)


def aggregate_median(vectors) -> np.ndarray:
    """Coordinate-wise median; even client counts take the midpoint of the middle pair.

    One sort along the client axis. On finite input the result is bitwise
    equal to np.median(..., axis=0), which partitions and then averages,
    except that a zero tied with a zero of the other sign may come out with
    either sign.
    """
    return _coordinate_median(as_matrix(vectors))


def _coordinate_median(mat: np.ndarray) -> np.ndarray:
    """aggregate_median of a matrix. MCA starts from it directly, so wrappers of
    the public rules (benchmarks/tracing.py) count only median aggregations."""
    srt = np.sort(mat, axis=0)
    half = srt.shape[0] // 2
    if srt.shape[0] % 2:
        return srt[half].copy()
    return (srt[half - 1] + srt[half]) / 2.0


# A squared distance at most this fraction of G_mm counts as landing on input
# m: it is at the level of the round-off of the cancellation that produced
# it. At the start (lam = 0) the distance is G_mm itself, so there the test
# is exact: it holds only for an input equal to the weighted mean.
_ON_POINT = 1e-14
# Once the iterate comes within sqrt(_RECENTER) of the frame's distance to an
# input, that distance would lose most of its digits to cancellation, so GM
# moves the frame's origin onto that input, where distances to it are exact
# up to rounding. Weiszfeld converges onto an input whenever the geometric
# median is one, as it often is for a block of colluding copies.
_RECENTER = 1e-6


class _GramFrame:
    """The inputs seen from an origin z inside their cloud.

    Holds the centred rows X = mat - z and their Gram matrix G = X X'. GM, MCA
    and Krum only need distances between inputs and points c = z + lam @ X,
    kept as their coefficients lam (lam = 0 is z itself; after a weighted
    average step lam sums to one and c = lam @ mat). Then
    ||g_m - c||^2 = G_mm - 2 (G lam)_m + lam' G lam, and a step delta in lam
    moves c by sqrt(delta' G delta). Forming G costs O(M^2 p) once; each
    distance or step after it costs O(M^2). Centring keeps the entries of G at
    the scale of the spread rather than of the vectors, so the cancellation in
    the distance formula loses little.
    """

    def __init__(self, mat: np.ndarray, origin: np.ndarray):
        self.origin = origin
        self.centered = mat - origin
        self.gram = self.centered @ self.centered.T
        self.diag = self.gram.diagonal().copy()
        # GM's landing and re-centring thresholds, per input (see _ON_POINT).
        self.on_point = _ON_POINT * self.diag
        self.recenter = _RECENTER * self.diag

    def sq_dists(self, lam: np.ndarray) -> np.ndarray:
        """||g_m - c||^2 for every input m, clamped at 0."""
        g_lam = self.gram @ lam
        return np.maximum(self.diag - 2.0 * g_lam + lam @ g_lam, 0.0)

    def sq_step(self, delta: np.ndarray) -> float:
        """||delta @ X||^2."""
        return float(delta @ self.gram @ delta)

    def point(self, lam: np.ndarray) -> np.ndarray:
        """Materialize c = z + lam @ X: the only O(M p) step after forming G."""
        return self.origin + lam @ self.centered


def aggregate_krum(vectors, assumed_byzantine: int) -> np.ndarray:
    """Return the single vector with the lowest Krum score.

    The score of client i is the sum of squared distances to its M - f - 2
    nearest neighbours, with f = assumed_byzantine. Ties go to the lowest
    client id. The winner is returned bitwise (a copy of the input row).

    Pairwise distances come from the Gram matrix of the rows centred at their
    mean, d_ij = G_ii + G_jj - 2 G_ij (clamped at 0), and every client is
    scored from one row-wise sort: O(M^2 p) time and O(M p + M^2) memory,
    where a difference tensor would take M^2 p.
    """
    mat = as_matrix(vectors)
    m = mat.shape[0]
    f = int(assumed_byzantine)
    if f < 0:
        raise InsufficientClients(f"assumed byzantine count {f} is negative")
    if m < f + 3:
        raise InsufficientClients(f"krum needs at least f + 3 = {f + 3} clients, got {m}")
    frame = _GramFrame(mat, mat.mean(axis=0))
    sq = np.maximum(frame.diag[:, None] + frame.diag[None, :] - 2.0 * frame.gram, 0.0)
    np.fill_diagonal(sq, np.inf)  # a client is not its own neighbour
    scores = np.sort(sq, axis=1)[:, : m - f - 2].sum(axis=1)
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
    than eps in l2, or after max_iter steps. An iterate that lands on an input
    point is offset by eps in the first coordinate before the next step. If
    objective_trace is a list, the objective sum_m alpha_m ||c - g_m|| of every
    visited iterate is appended to it.

    Every Weiszfeld iterate is a weighted average of the inputs, so the solver
    runs in a _GramFrame centred at the weighted mean and keeps only the
    iterate's coefficients; the offset enters through the first column. Cost
    O(M^2 p + iters M^2), plus O(M^2 p) for each move of the origin (see
    _RECENTER), where a loop over the vectors costs O(iters M p); the iterate
    is materialized once, at return.
    """
    mat = as_matrix(vectors)
    alpha = np.asarray(weights, dtype=np.float64)
    frame = _GramFrame(mat, normalized_weights(alpha, mat.shape[0]) @ mat)
    lam = np.zeros(mat.shape[0])
    sq = frame.diag
    if objective_trace is not None:
        objective_trace.append(float(alpha @ np.sqrt(sq)))
    for _ in range(max_iter):
        work = sq
        if (sq <= frame.on_point).any():
            # distances to c + eps * e_0
            first = frame.centered[:, 0]
            work = np.maximum(sq - 2.0 * eps * (first - lam @ first) + eps * eps, 0.0)
        inv = alpha / np.sqrt(work)
        lam_next = inv / inv.sum()
        if frame.sq_step(lam_next - lam) < eps * eps:
            break
        lam = lam_next
        sq = frame.sq_dists(lam)
        close = sq < frame.recenter
        if close.any():
            # lam sums to one, so it names the same iterate in the new frame
            frame = _GramFrame(mat, mat[int(np.argmax(close))])
            sq = frame.sq_dists(lam)
        if objective_trace is not None:
            objective_trace.append(float(alpha @ np.sqrt(sq)))
    return frame.point(lam)


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

    The median is not a weighted average of the inputs, but every later
    iterate is, so the solver runs in a _GramFrame centred at the median
    (lam = 0: the first residuals are the diagonal of G) and keeps only the
    iterate's coefficients. Cost O(M^2 p + iters M^2), where a loop over the
    vectors costs O(iters M p); the iterate is materialized once, at return.
    """
    mat = as_matrix(vectors)
    alpha = np.asarray(weights, dtype=np.float64)
    norm_alpha = normalized_weights(alpha, mat.shape[0])
    frame = _GramFrame(mat, _coordinate_median(mat))
    lam = np.zeros(mat.shape[0])
    for _ in range(max_iter):
        sq = frame.sq_dists(lam)
        sigma = max(float(norm_alpha @ np.sqrt(sq)), 1e-12)
        combined = alpha * np.exp(sq / (-2.0 * sigma * sigma))
        lam_next = combined / combined.sum()
        if frame.sq_step(lam_next - lam) < tol * tol:
            return frame.point(lam_next)
        lam = lam_next
    return frame.point(lam)


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


def aggregate_fltrust(reference, vectors) -> np.ndarray:
    """Trust-score aggregation against a clean reference gradient.

    Each update earns trust ts_m = max(0, cos(g_m, reference)) and is rescaled
    to the reference norm (updates with norm < 1e-12 are left unscaled). The
    output is sum ts_m g~_m / sum ts_m; if every trust score is zero the
    reference itself is returned. Partition weights do not enter the formula.
    """
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


def aggregate(spec: AggregatorSpec, weights, vectors, *, center=None, reference=None) -> np.ndarray:
    """Dispatch to the rule named by spec."""
    if spec.kind == "mean":
        return aggregate_mean(weights, vectors)
    if spec.kind == "median":
        return aggregate_median(vectors)
    if spec.kind == "krum":
        if spec.assumed_byzantine is None:
            raise InvalidField("assumed_byzantine", "krum spec was not resolved: f is None")
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
        return aggregate_fltrust(reference, vectors)
    raise InvalidField("kind", f"unreachable aggregator kind {spec.kind!r}")
