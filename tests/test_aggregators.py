from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzbench.aggregators import (
    aggregate,
    aggregate_cclip,
    aggregate_fltrust,
    aggregate_gm,
    aggregate_krum,
    aggregate_mca,
    aggregate_mean,
    aggregate_median,
)
from byzbench.core import weighted_average
from byzbench.errors import (
    EmptySelection,
    InsufficientClients,
    InvalidField,
    InvalidReference,
    MissingReference,
)
from byzbench.specs import AggregatorSpec


def _unit_weights(m: int) -> np.ndarray:
    return np.full(m, 1.0 / m)


# ----------------------------------------------------------------------- mean


def test_mean_single_client_is_identity():
    v = np.array([2.0, -1.0, 7.0])
    assert np.array_equal(aggregate_mean(np.array([3.0]), [v]), v)


def test_mean_opposite_vectors_cancel():
    v = np.array([1.0, -4.0])
    got = aggregate_mean(np.array([1.0, 1.0]), [v, -v])
    assert np.array_equal(got, np.zeros(2))


def test_mean_hand_example():
    got = aggregate_mean(np.array([0.75, 0.25]), [np.array([4.0, 0.0]), np.array([0.0, 4.0])])
    assert np.allclose(got, [3.0, 1.0], atol=1e-15)


# --------------------------------------------------------------------- median


def test_median_odd_count_picks_middle():
    vs = [np.array([1.0]), np.array([5.0]), np.array([3.0])]
    assert aggregate_median(vs)[0] == 3.0


def test_median_even_count_takes_midpoint():
    vs = [np.array([1.0]), np.array([3.0])]
    assert aggregate_median(vs)[0] == 2.0


def test_median_is_per_coordinate():
    vs = [np.array([1.0, 9.0]), np.array([2.0, 8.0]), np.array([3.0, 7.0])]
    assert np.array_equal(aggregate_median(vs), np.array([2.0, 8.0]))


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, p = rng.integers(1, 9), rng.integers(1, 6)
        mat = rng.normal(size=(m, p))
        got = aggregate_median(mat)
        srt = np.sort(mat, axis=0)
        want = srt[m // 2] if m % 2 else 0.5 * (srt[m // 2 - 1] + srt[m // 2])
        assert np.allclose(got, want, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3, 20])
def test_median_is_bitwise_numpy_median(m):
    rng = np.random.default_rng(m)
    for _ in range(30):
        p = int(rng.integers(1, 600))
        mat = rng.normal(size=(m, p))
        ties = rng.integers(-3, 4, size=(m, p)) * rng.choice([0.1, 1.0, 1e5])
        for candidate in (mat, ties):
            if m > 2:
                candidate[1] = candidate[0]  # a duplicated row
            got = aggregate_median(candidate)
            assert got.tobytes() == np.median(candidate, axis=0).tobytes()


def test_median_empty_rejected():
    with pytest.raises(EmptySelection):
        aggregate_median([])


# ----------------------------------------------------------------------- krum


def _krum_oracle(mat: np.ndarray, f: int) -> int:
    m = len(mat)
    scores = []
    for i in range(m):
        d = np.sort([np.sum((mat[i] - mat[j]) ** 2) for j in range(m) if j != i])
        scores.append(d[: m - f - 2].sum())
    return int(np.argmin(scores))


def test_krum_identical_vectors():
    v = np.array([1.0, 2.0])
    assert np.array_equal(aggregate_krum([v, v, v], 0), v)


def test_krum_never_picks_far_outlier():
    rng = np.random.default_rng(5)
    cluster = [rng.normal(0, 0.1, size=3) for _ in range(5)]
    outlier = np.full(3, 50.0)
    got = aggregate_krum(cluster + [outlier], 1)
    assert not np.array_equal(got, outlier)


def test_krum_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(3, 7))
        p = int(rng.integers(1, 4))
        f = int(rng.integers(0, m - 2))  # keeps m >= f + 3
        mat = rng.normal(size=(m, p))
        got = aggregate_krum(mat, f)
        want = mat[_krum_oracle(mat, f)]
        assert np.array_equal(got, want)


def test_krum_output_is_an_input_bitwise():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(6, 3))
    got = aggregate_krum(mat, 1)
    assert any(np.array_equal(got, row) for row in mat)


def test_krum_requires_f_plus_three():
    with pytest.raises(InsufficientClients):
        aggregate_krum(np.zeros((4, 2)), 2)
    with pytest.raises(InsufficientClients):
        aggregate_krum(np.ones((5, 2)), -1)


def test_krum_memory_stays_linear_in_p():
    m, p = 20, 20_000
    mat = np.random.default_rng(4).normal(size=(m, p))
    tracemalloc.start()
    try:
        aggregate_krum(mat, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a pairwise difference tensor would take m * m * p * 8 bytes = 64 MB
    assert peak < 0.1 * m * m * p * 8


# ------------------------------------------------------------------------- gm


def _gm_objective(weights, mat, c):
    return float(np.sum(weights * np.linalg.norm(mat - c, axis=1)))


def _gm_grid_oracle(weights, mat, resolution=1e-3):
    """Coarse-to-fine 2-D grid argmin of the weighted objective."""
    lo = mat.min(axis=0) - 0.1
    hi = mat.max(axis=0) + 0.1
    best = None
    for _ in range(3):
        xs = np.linspace(lo[0], hi[0], 61)
        ys = np.linspace(lo[1], hi[1], 61)
        gx, gy = np.meshgrid(xs, ys)
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d = np.linalg.norm(grid[:, None, :] - mat[None, :, :], axis=2)
        obj = d @ weights
        best = grid[np.argmin(obj)]
        span = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        lo, hi = best - 2 * span, best + 2 * span
        if span.max() < resolution:
            break
    return best


def test_gm_identical_vectors_fixed_point():
    v = np.array([3.0, -2.0])
    got = aggregate_gm(_unit_weights(4), [v, v, v, v])
    assert np.array_equal(got, v)


def test_gm_equilateral_triangle_centroid():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    got = aggregate_gm(_unit_weights(3), pts)
    assert np.allclose(got, pts.mean(axis=0), atol=1e-4)


def test_gm_one_dimensional_median():
    pts = np.array([[0.0], [0.0], [10.0]])
    got = aggregate_gm(_unit_weights(3), pts)
    assert abs(got[0]) < 1e-3


def test_gm_matches_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        mat = rng.normal(size=(m, 2))
        weights = rng.uniform(0.2, 2.0, size=m)
        got = aggregate_gm(weights, mat)
        oracle = _gm_grid_oracle(weights, mat)
        # near a kink the stop rule leaves ~eps slack, so allow a little either way
        assert _gm_objective(weights, mat, got) <= _gm_objective(weights, mat, oracle) + 1e-4
        assert np.linalg.norm(got - oracle) < 1e-2


def test_gm_objective_trace_is_monotone():
    rng = np.random.default_rng(13)
    mat = rng.normal(size=(8, 4))
    weights = rng.uniform(0.1, 1.0, size=8)
    trace: list[float] = []
    aggregate_gm(weights, mat, objective_trace=trace)
    assert len(trace) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_gm_agrees_with_median_in_one_dimension():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(1, 5)) * 2 + 1  # odd counts
        mat = rng.normal(size=(m, 1))
        gm = aggregate_gm(_unit_weights(m), mat)
        med = aggregate_median(mat)
        assert abs(gm[0] - med[0]) < 1e-3


def test_gm_iterate_coinciding_with_input_is_handled():
    # the weighted mean of these points lands exactly on the middle point
    pts = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    got = aggregate_gm(_unit_weights(3), pts)
    assert np.isfinite(got).all()
    assert abs(got[0]) < 1e-3


# ------------------------------------------------------------------------ mca


def test_mca_identical_vectors_fixed_point():
    v = np.array([1.5, -0.5])
    got = aggregate_mca(_unit_weights(3), [v, v, v])
    assert np.allclose(got, v, atol=1e-12)


def test_mca_symmetric_pair_cancels():
    v = np.array([2.0, -3.0])
    got = aggregate_mca(np.array([1.0, 1.0]), [v, -v])
    assert np.allclose(got, np.zeros(2), atol=1e-12)


def test_mca_downweights_far_outlier():
    vs = [np.array([1.0, 1.0])] * 9 + [np.array([100.0, 100.0])]
    got = aggregate_mca(_unit_weights(10), vs)
    assert np.linalg.norm(got - np.array([1.0, 1.0])) < 0.1


def test_mca_empty_rejected():
    with pytest.raises(EmptySelection):
        aggregate_mca(np.array([]), np.empty((0, 2)))


# -------------------------------------------- gram forms against loop oracles


def _gm_oracle(weights, mat, eps=1e-5, max_iter=1000):
    """Weiszfeld over the vectors themselves: O(M p) per iteration."""
    alpha = np.asarray(weights, dtype=np.float64)
    c = weighted_average(alpha, mat)
    for _ in range(max_iter):
        work = c
        dists = np.linalg.norm(mat - work, axis=1)
        if np.any(dists == 0.0):
            work = c.copy()
            work[0] += eps
            dists = np.linalg.norm(mat - work, axis=1)
        inv = alpha / dists
        c_next = (inv @ mat) / inv.sum()
        if float(np.linalg.norm(c_next - c)) < eps:
            break
        c = c_next
    return c


def _mca_oracle(weights, mat, tol=1e-5, max_iter=1000):
    """The correntropy loop over the vectors themselves: O(M p) per iteration."""
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


def _rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), np.finfo(float).tiny))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(3, 30),
    p=st.integers(1, 300),
    spread=st.sampled_from([1e-3, 1.0, 100.0]),
    offset=st.sampled_from([0.0, 1.0, 100.0]),
    colluders=st.integers(0, 15),
    collude_scale=st.sampled_from([1.0, -3.0, 0.5]),
    mean_row=st.booleans(),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_gram_forms_match_loop_oracles(
    m, p, spread, offset, colluders, collude_scale, mean_row, uniform, seed, data
):
    rng = np.random.default_rng(seed)
    mat = spread * rng.normal(size=(m, p)) + offset * rng.normal(size=p)
    weights = np.full(m, 1.0 / m) if uniform else rng.uniform(0.01, 1.0, size=m)
    block = min(colluders, m // 2)
    if block:
        mat[:block] = collude_scale * mat[m - 1]  # identical colluding copies
    if mean_row:
        mat[block] = mat.mean(axis=0)
    assert _rel_err(aggregate_gm(weights, mat), _gm_oracle(weights, mat)) <= 1e-9
    # 1 and 2 iterations end the loop before it converges.
    max_iter = data.draw(st.sampled_from([1, 2, 1000]), label="max_iter")
    mca = aggregate_mca(weights, mat, max_iter=max_iter)
    assert _rel_err(mca, _mca_oracle(weights, mat, max_iter=max_iter)) <= 1e-9
    f = data.draw(st.integers(0, m - 3), label="f")
    assert np.array_equal(aggregate_krum(mat, f), mat[_krum_oracle(mat, f)])


def test_gm_landing_off_the_median_matches_oracle():
    # the weighted mean lands exactly on the light last point, which is not
    # the geometric median, so the offset start has to lead away from it
    pts = np.array([[-2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
    weights = np.array([1.0, 1.0, 1.0, 0.25])
    assert np.array_equal(weighted_average(weights, pts), pts[3])
    got = aggregate_gm(weights, pts)
    assert got[0] > 0.1
    assert _rel_err(got, _gm_oracle(weights, pts)) <= 1e-9


# ---------------------------------------------------------------------- cclip


def test_cclip_fixed_point_at_center():
    center = np.array([1.0, 2.0])
    got = aggregate_cclip(_unit_weights(3), [center, center, center], center)
    assert np.array_equal(got, center)


def test_cclip_infinite_radius_is_weighted_mean():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 3))
    weights = rng.uniform(0.1, 1.0, size=4)
    weights /= weights.sum()
    got = aggregate_cclip(weights, mat, np.zeros(3), clip_radius=np.inf, iters=1)
    assert np.allclose(got, weights @ mat, atol=1e-12)


def test_cclip_clips_single_far_client():
    got = aggregate_cclip(
        np.array([1.0]), [np.array([10.0, 0.0])], np.zeros(2), clip_radius=1.0, iters=1
    )
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)


def test_cclip_moves_at_most_radius_per_iteration():
    rng = np.random.default_rng(9)
    mat = rng.normal(0, 50, size=(5, 4))
    weights = rng.uniform(0.1, 1.0, size=5)
    weights /= weights.sum()
    center = np.zeros(4)
    for iters in (1, 2, 3):
        got = aggregate_cclip(weights, mat, center, clip_radius=2.0, iters=iters)
        assert np.linalg.norm(got - center) <= iters * 2.0 + 1e-9


# -------------------------------------------------------------------- fltrust


def test_fltrust_parallel_client_rescaled_to_reference_norm():
    ref = np.array([1.0, 0.0])
    got = aggregate_fltrust(ref, [np.array([5.0, 0.0])])
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)


def test_fltrust_antiparallel_client_excluded():
    ref = np.array([1.0, 0.0])
    got = aggregate_fltrust(ref, [np.array([-3.0, 0.0])])
    # zero total trust falls back to the reference itself
    assert np.array_equal(got, ref)


def test_fltrust_hand_example():
    ref = np.array([1.0, 0.0])
    got = aggregate_fltrust(ref, [np.array([2.0, 0.0]), np.array([0.0, 3.0])])
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)


def test_fltrust_zero_reference_rejected():
    with pytest.raises(InvalidReference):
        aggregate_fltrust(np.zeros(2), [np.ones(2)])


# ------------------------------------------------------------------ dispatcher


def test_permutation_invariance_of_non_krum_rules():
    rng = np.random.default_rng(21)
    mat = rng.normal(size=(6, 4))
    weights = rng.uniform(0.1, 1.0, size=6)
    perm = rng.permutation(6)
    for kind in ("mean", "median", "gm", "mca"):
        spec = AggregatorSpec(kind)
        a = aggregate(spec, weights, mat, center=np.zeros(4))
        b = aggregate(spec, weights[perm], mat[perm], center=np.zeros(4))
        assert np.allclose(a, b, atol=1e-10), kind


def test_krum_score_is_permutation_invariant():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(5, 3))
    perm = rng.permutation(5)
    a = aggregate_krum(mat, 1)
    b = aggregate_krum(mat[perm], 1)
    assert np.array_equal(np.sort(a), np.sort(b)) or np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(4, 24),
    p=st.integers(1, 80),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    colluders=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rules_are_permutation_equivariant(m, p, scale, colluders, seed, data):
    """Permuting the client rows and their weights together leaves the output
    unchanged: bitwise for the median and Krum, up to summation order for the
    rules that weight or iterate."""
    rng = np.random.default_rng(seed)
    mat = scale * rng.normal(size=(m, p))
    weights = rng.uniform(0.01, 1.0, size=m)
    center, reference = scale * rng.normal(size=(2, p))
    perm = rng.permutation(m)
    # At f = M - 3 a score is the distance to the nearest neighbour, so the
    # closest pair ties exactly and the lowest id picks a different row.
    f = data.draw(st.integers(0, m - 4), label="f")
    assert np.array_equal(aggregate_krum(mat[perm], f), aggregate_krum(mat, f))

    block = min(colluders, m // 2)
    if block:
        mat[:block] = mat[m - 1]  # identical colluding copies
    assert np.array_equal(aggregate_median(mat[perm]), aggregate_median(mat))
    for kind in ("mean", "gm", "mca", "cclip", "fltrust"):
        spec = AggregatorSpec(kind)
        want = aggregate(spec, weights, mat, center=center, reference=reference)
        got = aggregate(spec, weights[perm], mat[perm], center=center, reference=reference)
        assert _rel_err(got, want) <= 1e-9, kind


def test_dispatcher_requires_center_and_reference():
    mat = np.ones((3, 2))
    weights = _unit_weights(3)
    with pytest.raises(MissingReference):
        aggregate(AggregatorSpec("cclip"), weights, mat)
    with pytest.raises(MissingReference):
        aggregate(AggregatorSpec("fltrust"), weights, mat)
    with pytest.raises(MissingReference):  # a center of the wrong shape
        aggregate_cclip(weights, mat, np.zeros(3))
    with pytest.raises(InvalidField) as info:  # Krum's f is set by RunConfig.resolved_method
        aggregate(AggregatorSpec("krum"), weights, mat)
    assert info.value.field == "assumed_byzantine"


def test_spec_validation():
    with pytest.raises(ValueError):
        AggregatorSpec("bogus")
    with pytest.raises(ValueError):
        AggregatorSpec("gm", tolerance=0.0)
    with pytest.raises(ValueError):
        AggregatorSpec("krum", assumed_byzantine=-1)
    with pytest.raises(ValueError):
        AggregatorSpec("gm", max_iter=0)


def test_labels():
    assert AggregatorSpec("mean").label == "Mean"
    assert AggregatorSpec("median").label == "Median"
    assert AggregatorSpec("krum").label == "Krum"
    assert AggregatorSpec("gm").label == "GM"
    assert AggregatorSpec("mca").label == "MCA"
    assert AggregatorSpec("cclip").label == "CClip"
    assert AggregatorSpec("fltrust").label == "FLTrust"
