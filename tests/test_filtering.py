from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from byzbench import filtering
from byzbench.aggregators import aggregate_mean
from byzbench.errors import (
    DimensionMismatch,
    InvalidField,
    InvalidReference,
    InvalidSelectionSize,
    MissingReference,
)
from byzbench.filtering import (
    build_reference,
    filter_and_aggregate,
    sample_windows,
    select_clients,
    similarity_check,
    window_scores,
)
from byzbench.specs import AggregatorSpec, FilterParams

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vectors = hnp.arrays(np.float64, st.integers(1, 12), elements=finite)


# ----------------------------------------------------------- similarity check


def test_similarity_identity():
    x = np.array([1.0, -2.0, 3.5])
    assert similarity_check(x, x) == 1.0


def test_similarity_single_coordinate():
    assert similarity_check(np.array([1.0]), np.array([3.0])) == pytest.approx(1 / 3, abs=1e-15)


def test_similarity_negation_is_one_third():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(0.1, 5.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        assert similarity_check(x, -x) == pytest.approx(1 / 3, abs=1e-12)


def test_similarity_zero_pair_counts_as_agreement():
    x = np.array([0.0, 2.0])
    assert similarity_check(x, x.copy()) == 1.0


def test_similarity_zero_reference_nonzero_candidate_scores_zero():
    assert similarity_check(np.array([0.0]), np.array([5.0])) == 0.0


@given(vectors)
def test_similarity_self_is_one_for_any_vector(x):
    assert similarity_check(x, x.copy()) == 1.0


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=finite),
    hnp.arrays(np.float64, n, elements=finite),
)))
@settings(max_examples=200)
def test_similarity_bounded(pair):
    x, y = pair
    h = similarity_check(x, y)
    assert 0.0 <= h <= 1.0


def test_similarity_length_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        similarity_check(np.zeros(3), np.zeros(4))


# -------------------------------------------------------------- anomaly score


def _one_client_score(ref, client, rho, tau):
    scores = window_scores(np.asarray(ref), np.asarray([client]), [0], len(ref), rho, tau)
    assert scores.shape == (1, 1)
    return float(scores[0, 0])


def test_anomaly_score_penalty_disabled():
    # client equals reference with unit norm; zero penalty weight leaves the raw ratio
    ref = np.array([1.0, 0.0])
    assert _one_client_score(ref, ref, rho=0.0, tau=1.0) == 1.0


def test_anomaly_score_hand_value():
    # similarity 0.8 with client window norm 2: 0.8 - 10 * max(2, 0.05) = -19.2
    ref = np.array([0.0, 1.2])
    client = np.array([0.0, 2.0])
    assert similarity_check(ref, client) == pytest.approx(0.8, abs=1e-15)
    got = _one_client_score(ref, client, rho=10.0, tau=0.1)
    assert got == pytest.approx(-19.2, abs=1e-12)


def test_anomaly_score_zero_window_is_minus_inf():
    ref = np.array([1.0, 1.0])
    for rho in (0.0, 10.0):
        got = _one_client_score(ref, np.zeros(2), rho=rho, tau=0.1)
        assert got == -np.inf


def test_anomaly_score_penalizes_tiny_windows():
    ref = np.array([1e-6, 0.0])
    got = _one_client_score(ref, ref, rho=1.0, tau=0.1)
    assert got == pytest.approx(1.0 - 0.1 / 1e-6, rel=1e-12)


# ------------------------------------------------------------- window sampling


def test_segments_full_window_when_model_is_small():
    starts, width = sample_windows(10, 10, 5, np.random.default_rng(0))
    assert width == 10 and starts.tolist() == [0] * 5


def test_segments_longer_than_model_degrade_to_full_window():
    starts, width = sample_windows(100, 150, 4, np.random.default_rng(0))
    assert width == 100 and starts.tolist() == [0] * 4


def test_segments_stay_in_bounds():
    starts, width = sample_windows(100, 50, 200, np.random.default_rng(1))
    assert width == 50 and starts.shape == (200,)
    assert np.all((starts >= 0) & (starts <= 50))


def test_segments_deterministic_per_seed():
    a_starts, a_width = sample_windows(1000, 50, 7, np.random.default_rng(42))
    b_starts, b_width = sample_windows(1000, 50, 7, np.random.default_rng(42))
    assert a_width == b_width and np.array_equal(a_starts, b_starts)


def test_segments_reject_degenerate_arguments():
    rng = np.random.default_rng(0)
    for bad in [(0, 5, 1), (10, 0, 1), (10, 5, 0)]:
        with pytest.raises(InvalidSelectionSize):
            sample_windows(*bad, rng)


# ------------------------------------------------------------ window scores


def _per_window_scores(reference, uploads, starts, width, rho, tau):
    """The score formula applied one window slice at a time, as a reference."""
    columns = []
    for start in starts:
        ref_seg = reference[start : start + width]
        seg = uploads[:, start : start + width]
        num = np.abs(ref_seg)
        den = np.abs(seg - ref_seg) + num
        zero = den == 0.0
        ratio = num / np.where(zero, 1.0, den)
        if zero.any():
            ratio = np.where(zero, 1.0, ratio)
        sim = ratio.mean(axis=1)
        norms = np.sqrt(np.einsum("ij,ij->i", seg, seg))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = sim - rho * np.maximum(norms, tau / norms)
        columns.append(np.where(norms == 0.0, -np.inf, scores))
    return np.stack(columns, axis=1)


@st.composite
def _score_cases(draw):
    """Uploads with zero rows and exact or near copies of a reference with zero coordinates."""
    clients = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = rng.normal(size=dim)
    reference[rng.random(dim) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    uploads = rng.normal(size=(clients, dim)) * 10.0 ** rng.integers(-3, 4, size=(clients, 1))
    kind = rng.integers(0, 4, size=clients)  # 0: zero row, 1: copy, 2: near copy, 3: noise
    uploads[kind == 0] = 0.0
    uploads[(kind == 1) | (kind == 2)] = reference
    uploads[kind == 2, rng.integers(0, dim)] += 1.0
    starts, width = sample_windows(dim, draw(st.integers(1, 50)), draw(st.integers(1, 5)), rng)
    rho = draw(st.sampled_from([0.0, 1.0, 10.0]))
    return reference, uploads, starts, width, rho, draw(st.sampled_from([0.1, 1.0]))


@given(_score_cases())
@settings(max_examples=200, deadline=None)
def test_window_scores_match_the_per_window_formula_bitwise(case):
    reference, uploads, starts, width, rho, tau = case
    got = window_scores(reference, uploads, starts, width, rho, tau)
    want = _per_window_scores(reference, uploads, starts, width, rho, tau)
    assert got.shape == (uploads.shape[0], len(starts))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "clients, dim, width, passes",
    [
        (1, 1, 1, 1),
        (7, 210, 50, 3),
        (20, 7818, 50, 3),
        (13, 300, 300, 5),
        (40, 10_000, 2000, 4),  # 320K slab elements: clients in blocks of 16
        (3, 100_000, 70_000, 2),  # one window row per block
    ],
)
def test_window_scores_match_the_per_window_loop_in_every_block(clients, dim, width, passes):
    assert filtering._SLAB_ELEMENTS == 1 << 17  # the sizes above are chosen against it
    rng = np.random.default_rng(clients * dim + width)
    reference = rng.normal(size=dim)
    reference[rng.random(dim) < 0.2] = 0.0
    uploads = rng.normal(size=(clients, dim)) * 10.0 ** rng.integers(-3, 4, size=(clients, 1))
    uploads[:, rng.random(dim) < 0.1] = 0.0
    uploads[clients // 2] = reference
    starts, width = sample_windows(dim, width, passes, rng)
    uploads[-1, starts[0] : starts[0] + width] = 0.0  # an all-zero window scores -inf
    got = window_scores(reference, uploads, starts, width, 10.0, 0.1)
    want = _per_window_scores(reference, uploads, starts, width, 10.0, 0.1)
    assert got[-1, 0] == -np.inf
    assert got.tobytes() == want.tobytes()


def test_window_scores_single_window_is_one_column():
    rng = np.random.default_rng(21)
    reference = rng.normal(size=50)
    reference[15:18] = 0.0
    uploads = rng.normal(size=(7, 50))
    uploads[2] = 0.0
    uploads[3] = reference
    got = window_scores(reference, uploads, np.array([13]), 20, 10.0, 0.1)
    want = _per_window_scores(reference, uploads, [13], 20, 10.0, 0.1)
    assert got.shape == (7, 1) and got.tobytes() == want.tobytes()
    assert got[2, 0] == -np.inf


# ------------------------------------------------------------ one window


def _unchecked(passes=1, segment_len=2, keep=1):
    """Filter knobs that skip FilterParams' own checks, to reach select_clients' checks."""
    return SimpleNamespace(passes=passes, segment_len=segment_len, keep=keep,
                           penalty_weight=0.0, norm_pivot=0.1)


def _whole_vector_pass(ref, uploads, keep, rho=0.0, tau=0.1):
    """Survivors of one window covering the whole vector."""
    params = FilterParams(passes=1, segment_len=len(ref), keep=keep, penalty_weight=rho,
                          norm_pivot=tau)
    selected, windows, survivors = select_clients(
        np.asarray(ref), np.asarray(uploads, dtype=np.float64), params, np.random.default_rng(0)
    )
    assert windows == ((0, len(ref)),)
    assert survivors.shape == (1, keep) and tuple(survivors[0].tolist()) == selected
    return selected


def test_pass_keep_all_selects_everyone():
    ref = np.ones(3)
    uploads = [np.ones(3), -np.ones(3), 5 * np.ones(3)]
    assert _whole_vector_pass(ref, uploads, keep=3) == (0, 1, 2)


def test_pass_orders_by_score():
    ref = np.ones(4)
    uploads = [ref.copy(), -ref, 1.5 * ref]  # similarity 1, 1/3, 2/3
    assert _whole_vector_pass(ref, uploads, keep=2) == (0, 2)


def test_pass_ties_break_to_lower_ids():
    ref = np.ones(2)
    uploads = [ref.copy()] * 5
    assert _whole_vector_pass(ref, uploads, keep=3) == (0, 1, 2)


def test_pass_rejects_out_of_range_keep():
    ref = np.ones(2)
    uploads = np.array([ref, ref])
    for keep in (0, 3):
        with pytest.raises(InvalidSelectionSize):
            select_clients(ref, uploads, _unchecked(keep=keep), np.random.default_rng(0))


def test_pass_selection_monotone_in_keep():
    rng = np.random.default_rng(8)
    ref = rng.normal(size=20)
    uploads = rng.normal(size=(9, 20))
    previous: set[int] = set()
    for keep in range(1, 10):  # one seed, so one window for every keep
        params = FilterParams(passes=1, segment_len=11, keep=keep)
        selected, _, _ = select_clients(ref, uploads, params, np.random.default_rng(3))
        current = set(selected)
        assert previous <= current
        previous = current


def test_pass_scale_covariance_power_of_two_is_bitwise():
    rng = np.random.default_rng(15)
    ref = rng.normal(size=30)
    uploads = rng.normal(size=(6, 30))
    base = window_scores(ref, uploads, [5], 20, 0.0, 0.1)
    scaled = window_scores(4.0 * ref, 4.0 * uploads, [5], 20, 0.0, 0.1)
    assert np.array_equal(base, scaled)


def test_pass_scale_covariance_general_scalar_keeps_selection():
    rng = np.random.default_rng(16)
    ref = rng.normal(size=30)
    uploads = rng.normal(size=(8, 30))
    a = _whole_vector_pass(ref, uploads, keep=4)
    b = _whole_vector_pass(3.0 * ref, 3.0 * uploads, keep=4)
    assert a == b


# ---------------------------------------------------------------- intersection


def _select_by_coordinate(winners, clients, seed):
    """select_clients on 1-wide windows where coordinate c is won by the ids in winners[c].

    Winners copy the all-ones reference (similarity 1), the rest negate it
    (similarity 1/3); with no norm penalty each window keeps exactly its winners.
    """
    dim = len(winners)
    uploads = -np.ones((clients, dim))
    for coord, ids in enumerate(winners):
        uploads[list(ids), coord] = 1.0
    params = FilterParams(passes=dim, segment_len=1, keep=len(winners[0]), penalty_weight=0.0)
    selected, windows, survivors = select_clients(
        np.ones(dim), uploads, params, np.random.default_rng(seed)
    )
    assert sorted(start for start, _ in windows) == list(range(dim))  # one window per coordinate
    for (start, _), row in zip(windows, survivors):
        assert set(row.tolist()) == set(winners[start])
    return selected


def test_intersection_set_algebra():
    assert _select_by_coordinate([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}], clients=6, seed=12) == (3,)


def test_intersection_single_pass_is_identity():
    assert _select_by_coordinate([{0, 4}], clients=5, seed=0) == (0, 4)


def test_intersection_disjoint_passes_is_empty():
    assert _select_by_coordinate([{0}, {1}], clients=3, seed=12) == ()


def test_intersection_requires_at_least_one_pass():
    # with no window every client would meet "hit count == K"
    with pytest.raises(InvalidSelectionSize):
        select_clients(np.ones(2), np.ones((3, 2)), _unchecked(passes=0), np.random.default_rng(0))


def test_intersection_is_subset_of_each_pass():
    rng = np.random.default_rng(19)
    ref = rng.normal(size=40)
    uploads = rng.normal(size=(10, 40))
    params = FilterParams(passes=4, segment_len=12, keep=6)
    selected, _, survivors = select_clients(ref, uploads, params, np.random.default_rng(3))
    assert survivors.shape == (4, 6)
    for row in survivors:
        assert set(selected) <= set(row.tolist())


def test_select_clients_peak_memory_is_about_one_window_buffer():
    rng = np.random.default_rng(31)
    clients, width = 50, 2000
    uploads = rng.standard_normal((clients, 100_000))
    reference = np.ascontiguousarray(uploads[0])
    params = FilterParams(passes=3, segment_len=width, keep=40)
    select_clients(reference, uploads, params, np.random.default_rng(0))
    tracemalloc.start()
    try:
        select_clients(reference, uploads, params, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * clients * width * 8


# ------------------------------------------------------------------ reference# ------------------------------------------------------------------ reference


def test_reference_trusted_singleton_is_that_upload():
    uploads = np.array([[1.0, 2.0], [5.0, 6.0], [9.0, 0.0]])
    got = build_reference("trusted", None, np.array([0.2, 0.5, 0.3]), uploads, trusted=(1,))
    assert np.allclose(got, uploads[1], atol=1e-15)


def test_reference_trusted_renormalizes_weights():
    uploads = np.array([[0.0], [4.0], [100.0]])
    got = build_reference("trusted", None, np.array([0.1, 0.3, 0.6]), uploads, trusted=(0, 1))
    assert np.allclose(got, [3.0], atol=1e-15)


def test_reference_base_aggregator_median():
    uploads = [np.array([1.0]), np.array([5.0]), np.array([3.0])]
    got = build_reference("aggregator", AggregatorSpec("median"), np.full(3, 1 / 3), uploads)
    assert got[0] == 3.0


def test_reference_server_clean_passthrough():
    v = np.array([7.0, -1.0])
    got = build_reference("server_clean", None, np.ones(2), np.zeros((2, 2)), clean_gradient=v)
    assert np.array_equal(got, v)


def test_reference_server_clean_requires_gradient():
    with pytest.raises(MissingReference):
        build_reference("server_clean", None, np.ones(1), np.ones((1, 2)))


# ------------------------------------------------------------ filter pipeline


def test_filter_identical_honest_uploads_keeps_everyone():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    uploads = np.tile(v, (5, 1))
    params = FilterParams(passes=3, segment_len=2, keep=5, penalty_weight=0.0)
    res = filter_and_aggregate(v, uploads, np.full(5, 0.2), params, np.random.default_rng(0))
    assert res.selected == (0, 1, 2, 3, 4)
    assert not res.empty_intersection
    assert np.allclose(res.aggregate, v, atol=1e-15)


def test_filter_excludes_sign_flip_attackers():
    rng = np.random.default_rng(77)
    honest = rng.normal(size=(3, 40))
    payload = -3.0 * honest.sum(axis=0)
    uploads = np.vstack([honest, payload, payload])
    reference = honest.mean(axis=0)
    params = FilterParams(passes=3, segment_len=10, keep=3, penalty_weight=0.0)
    selected, _, _ = select_clients(reference, uploads, params, np.random.default_rng(5))
    assert selected
    assert set(selected) <= {0, 1, 2}


def test_filter_empty_intersection_falls_back_to_reference():
    # two clients each dominate one coordinate; one-wide windows over both
    # coordinates make the per-pass winners disagree
    reference = np.array([1.0, 1.0])
    uploads = np.array([[1.0, 100.0], [100.0, 1.0]])
    params = FilterParams(passes=4, segment_len=1, keep=1, penalty_weight=0.0)
    res = filter_and_aggregate(
        reference, uploads, np.array([0.5, 0.5]), params, np.random.default_rng(0)
    )
    assert {start for start, _ in res.windows} == {0, 1}  # seed 0 draws both windows
    assert res.empty_intersection
    assert res.selected == ()
    assert np.array_equal(res.aggregate, reference)


def test_filter_with_keep_all_matches_plain_mean_bitwise():
    rng = np.random.default_rng(44)
    uploads = rng.normal(size=(7, 25))
    weights = rng.uniform(0.1, 1.0, size=7)
    weights /= weights.sum()
    reference = uploads.mean(axis=0)
    params = FilterParams(passes=3, segment_len=6, keep=7, penalty_weight=0.0)
    res = filter_and_aggregate(reference, uploads, weights, params, np.random.default_rng(2))
    assert res.selected == tuple(range(7))
    assert np.array_equal(res.aggregate, aggregate_mean(weights, uploads))


def test_filter_aggregates_survivors_with_renormalized_weights():
    reference = np.array([1.0, 1.0, 1.0])
    uploads = np.array([[1.0, 1.0, 1.0], [1.1, 0.9, 1.0], [-9.0, 9.0, -9.0]])
    weights = np.array([0.3, 0.3, 0.4])
    params = FilterParams(passes=2, segment_len=3, keep=2, penalty_weight=0.0)
    res = filter_and_aggregate(reference, uploads, weights, params, np.random.default_rng(0))
    assert res.selected == (0, 1)
    want = (0.3 * uploads[0] + 0.3 * uploads[1]) / 0.6
    assert np.allclose(res.aggregate, want, atol=1e-15)


def test_filter_requires_resolved_keep():
    params = FilterParams()  # keep defaults to None
    with pytest.raises(InvalidSelectionSize):
        select_clients(np.ones(4), np.ones((3, 4)), params, np.random.default_rng(0))


def test_filter_rejects_reference_shape_mismatch():
    params = FilterParams(keep=1)
    with pytest.raises(DimensionMismatch):
        filter_and_aggregate(np.ones(3), np.ones((2, 4)), np.ones(2), params, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_filter_rejects_non_finite_reference(bad):
    reference = np.array([1.0, bad, 0.5, 0.0])
    with pytest.raises(InvalidReference):
        filter_and_aggregate(reference, np.ones((3, 4)), np.ones(3), FilterParams(keep=2), np.random.default_rng(0))


def test_filter_params_validation():
    with pytest.raises(ValueError):
        FilterParams(passes=0)
    with pytest.raises(ValueError):
        FilterParams(segment_len=0)
    with pytest.raises(InvalidField):
        FilterParams(keep=0)
    with pytest.raises(ValueError):
        FilterParams(penalty_weight=-1.0)
    with pytest.raises(ValueError):
        FilterParams(norm_pivot=0.0)



# ----------------------------------------------------------------- properties


@st.composite
def _filter_cases(draw):
    """Uploads, reference, params and a window seed; normal draws leave no score ties."""
    clients = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 60))
    params = FilterParams(
        passes=draw(st.integers(1, 5)),
        segment_len=draw(st.integers(1, 30)),
        keep=draw(st.integers(1, clients)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uploads = rng.normal(size=(clients, dim))
    reference = rng.normal(size=dim)
    return uploads, reference, params, draw(st.integers(0, 2**32 - 1))


@given(_filter_cases())
@settings(max_examples=150, deadline=None)
def test_every_pass_keeps_exactly_keep_and_contains_the_intersection(case):
    uploads, reference, params, seed = case
    selected, windows, survivors = select_clients(
        reference, uploads, params, np.random.default_rng(seed)
    )
    starts, width = sample_windows(
        uploads.shape[1], params.segment_len, params.passes, np.random.default_rng(seed)
    )
    assert windows == tuple((int(start), width) for start in starts)
    assert survivors.shape == (params.passes, params.keep)
    assert np.all(np.diff(survivors, axis=1) > 0)  # sorted rows of N distinct ids
    rows = [set(row.tolist()) for row in survivors]
    assert selected == tuple(sorted(set.intersection(*rows)))


@given(_filter_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_selection_is_permutation_equivariant(case, data):
    uploads, reference, params, seed = case
    perm = np.array(data.draw(st.permutations(range(uploads.shape[0]))), dtype=np.int64)
    selected, windows, survivors = select_clients(
        reference, uploads, params, np.random.default_rng(seed)
    )
    moved, moved_windows, moved_survivors = select_clients(
        reference, uploads[perm], params, np.random.default_rng(seed)
    )
    position = np.argsort(perm)  # row perm[i] of uploads is row i of uploads[perm]
    assert moved == tuple(sorted(int(position[i]) for i in selected))
    assert moved_windows == windows
    for row, moved_row in zip(survivors, moved_survivors):
        assert np.array_equal(moved_row, np.sort(position[row]))


@given(_filter_cases())
@settings(max_examples=150, deadline=None)
def test_survivor_average_lies_in_the_survivors_box(case):
    uploads, reference, params, seed = case
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, size=uploads.shape[0])
    res = filter_and_aggregate(reference, uploads, weights, params, np.random.default_rng(seed))
    if res.empty_intersection:
        assert np.array_equal(res.aggregate, reference)
        return
    survivors = uploads[list(res.selected)]
    tol = 1e-12 * (1.0 + np.abs(survivors).max(axis=0))
    assert np.all(res.aggregate >= survivors.min(axis=0) - tol)
    assert np.all(res.aggregate <= survivors.max(axis=0) + tol)
