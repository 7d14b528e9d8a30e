from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzbench.core import (
    RATIO_TOL,
    as_matrix,
    select_byzantine_set,
    substream,
    weighted_average,
)
from byzbench.errors import DimensionMismatch, EmptySelection, InvalidRatio


# ----------------------------------------------------------------- substream


def test_substream_is_reproducible():
    a = substream(7, "batch", 3, 5).standard_normal(8)
    b = substream(7, "batch", 3, 5).standard_normal(8)
    assert np.array_equal(a, b)


def _purpose_words(purpose: str) -> list[int]:
    digest = hashlib.sha256(purpose.encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def test_substream_matches_hand_built_seed_sequence():
    words = _purpose_words("batch")
    for _ in range(2):  # the second call reads the memoized purpose words
        want = np.random.default_rng(np.random.SeedSequence([7, *words, 3, 5]))
        assert np.array_equal(substream(7, "batch", 3, 5).random(8), want.random(8))
    # SeedSequence takes no negative word, and substream takes no negative index
    for index in ((-1,), (0, -1)):
        with pytest.raises(ValueError):
            substream(0, "batch", *index)


_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**40), 2**70 + 3)
_EDGE_INDICES = (0, 1, 2**32 - 1, 2**32, 2**40 + 9, 2**64 + 1)


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
def test_substream_keys_seed_sequence_as_the_int_list_does(seed):
    # The int list is split into 32-bit words by SeedSequence itself; the
    # seed is taken mod 2**64, and a round or client of 2**32 or more spans
    # several words.
    words = list(_purpose_words("attack"))
    for round_index in _EDGE_INDICES:
        for client in _EDGE_INDICES:
            entropy = [seed & (2**64 - 1), *words, round_index, client]
            want = np.random.default_rng(np.random.SeedSequence(entropy)).integers(0, 2**63, 4)
            got = substream(seed, "attack", round_index, client).integers(0, 2**63, 4)
            assert np.array_equal(got, want), (seed, round_index, client)


def test_substream_streams_are_independent_of_draw_order():
    # Drawing client 5's stream before or after client 2's cannot change either.
    first = substream(7, "batch", 0, 5).standard_normal(4)
    _ = substream(7, "batch", 0, 2).standard_normal(100)
    second = substream(7, "batch", 0, 5).standard_normal(4)
    assert np.array_equal(first, second)


@pytest.mark.parametrize(
    "other",
    [
        (8, "batch", 3, 5),
        (7, "attack", 3, 5),
        (7, "batch", 4, 5),
        (7, "batch", 3, 6),
    ],
)
def test_substream_distinct_coordinates_give_distinct_streams(other):
    base = substream(7, "batch", 3, 5).standard_normal(16)
    alt = substream(*other).standard_normal(16)
    assert not np.array_equal(base, alt)


# ------------------------------------------------------------------ as_matrix


def test_as_matrix_stacks_rows():
    mat = as_matrix([np.arange(3.0), np.ones(3)])
    assert mat.shape == (2, 3)
    assert mat.dtype == np.float64
    assert mat.flags["C_CONTIGUOUS"]


def test_as_matrix_rejects_ragged_and_empty():
    with pytest.raises(DimensionMismatch):
        as_matrix([np.zeros(3), np.zeros(4)])
    with pytest.raises(EmptySelection):
        as_matrix([])


# ------------------------------------------------------------ weighted average


def test_weighted_average_matches_manual_dot():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(5, 7))
    weights = rng.uniform(0.1, 2.0, size=5)
    got = weighted_average(weights, vectors)
    want = (weights / weights.sum()) @ vectors
    assert np.allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=9.0), min_size=1, max_size=6),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_weighted_average_is_scale_invariant_in_weights(weights, scale):
    weights = np.asarray(weights)
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(len(weights), 4))
    base = weighted_average(weights, vectors)
    scaled = weighted_average(scale * weights, vectors)
    assert np.allclose(base, scaled, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_weighted_average_stays_in_coordinate_hull(m, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(m, 3))
    weights = rng.uniform(0.01, 1.0, size=m)
    avg = weighted_average(weights, vectors)
    assert np.all(avg >= vectors.min(axis=0) - 1e-12)
    assert np.all(avg <= vectors.max(axis=0) + 1e-12)


def test_weighted_average_rejects_empty_and_zero_weight():
    with pytest.raises(EmptySelection):
        weighted_average(np.array([]), np.empty((0, 3)))
    with pytest.raises(EmptySelection):
        weighted_average(np.zeros(2), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        weighted_average(np.ones(2), np.ones((3, 4)))


# -------------------------------------------------------- byzantine selection


def _selection(weights, ratio, seed=0, exclude=frozenset()):
    return select_byzantine_set(
        np.asarray(weights, dtype=float), ratio, substream(seed, "byzantine"), exclude=exclude
    )


def test_selection_zero_ratio_is_empty():
    mask = _selection(np.full(10, 0.1), 0.0)
    assert mask.members == frozenset()
    assert mask.count == 0
    assert mask.realized_ratio == 0.0


def test_selection_reaches_requested_weight():
    weights = np.full(50, 1.0 / 50)
    mask = _selection(weights, 0.4)
    assert mask.realized_ratio >= 0.4 - RATIO_TOL
    # greedy stops as soon as the ratio is reached
    assert mask.realized_ratio - min(weights[m] for m in mask.members) < 0.4


def test_selection_is_deterministic_per_seed():
    weights = np.random.default_rng(1).uniform(0.5, 2.0, size=12)
    weights /= weights.sum()
    a = _selection(weights, 0.3, seed=5)
    b = _selection(weights, 0.3, seed=5)
    c = _selection(weights, 0.3, seed=6)
    assert a.members == b.members
    assert a.members != c.members or a.realized_ratio == c.realized_ratio


def test_selection_respects_exclusions():
    weights = np.full(10, 0.1)
    mask = _selection(weights, 0.5, exclude=frozenset({0, 1, 2}))
    assert not mask.members & {0, 1, 2}
    assert mask.realized_ratio >= 0.5 - RATIO_TOL


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("weights", [np.full(10, 0.1), np.linspace(1.0, 3.0, 20), np.arange(1.0, 8.0)])
def test_selections_of_one_stream_nest_across_ratios(weights, seed):
    weights = weights / weights.sum()
    exclude = frozenset({1}) if seed % 2 else frozenset()
    masks = [_selection(weights, ratio, seed, exclude) for ratio in (0.0, 0.1, 0.2, 0.4, 0.6)]
    for lower, higher in zip(masks, masks[1:]):
        assert lower.members <= higher.members
        assert lower.realized_ratio <= higher.realized_ratio


def test_selection_rejects_unreachable_and_out_of_range():
    weights = np.full(10, 0.1)
    with pytest.raises(InvalidRatio):
        _selection(weights, 0.9, exclude=frozenset(range(5)))  # only 0.5 reachable
    with pytest.raises(InvalidRatio):
        _selection(weights, 1.0)
    with pytest.raises(InvalidRatio):
        _selection(weights, -0.1)
    with pytest.raises(EmptySelection):
        _selection(np.array([]), 0.2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=0.0, max_value=0.85),
    st.integers(min_value=0, max_value=10**6),
)
def test_selection_realized_ratio_is_sum_of_member_weights(m, ratio, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, size=m)
    weights /= weights.sum()
    mask = select_byzantine_set(weights, ratio, substream(seed, "byzantine"))
    assert mask.realized_ratio == pytest.approx(sum(weights[i] for i in mask.members), abs=1e-12)
    assert mask.realized_ratio >= ratio - RATIO_TOL
