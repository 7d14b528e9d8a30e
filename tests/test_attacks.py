from __future__ import annotations

import numpy as np
import pytest

from byzbench.attacks import (
    attack_foe,
    attack_gaussian,
    attack_lie,
    attack_negated_mean,
    attack_signflip,
    byzantine_payloads,
)
from byzbench.errors import EmptySelection, InsufficientClients, InvalidRatio
from byzbench.specs import AttackSpec


# ------------------------------------------------------------------- gaussian


def test_gaussian_moments():
    rng = np.random.default_rng(0)
    payload = attack_gaussian(1_000_000, 90.0, rng)
    sigma = np.sqrt(90.0)
    assert abs(payload.mean()) < 4 * sigma / 1e3
    assert abs(payload.var() - 90.0) < 2.0


def test_gaussian_deterministic_per_seed():
    a = attack_gaussian(100, 90.0, np.random.default_rng(7))
    b = attack_gaussian(100, 90.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


# ------------------------------------------------------------------- signflip


def test_signflip_single_honest():
    got = attack_signflip([np.array([1.0, -2.0])])
    assert np.array_equal(got, np.array([-3.0, 6.0]))


def test_signflip_two_honest():
    got = attack_signflip([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.array_equal(got, np.array([-3.0, -3.0]))


def test_signflip_zero_sum_gives_zero_payload():
    v = np.array([2.0, -5.0])
    got = attack_signflip([v, -v])
    assert np.array_equal(got, np.zeros(2))


def test_signflip_rejects_empty_honest_set():
    with pytest.raises(EmptySelection):
        attack_signflip([])


# ------------------------------------------------------------------------ lie


def test_lie_hand_example():
    got = attack_lie([np.array([0.0]), np.array([2.0])], offset=0.7)
    assert got[0] == pytest.approx(1.7, abs=1e-15)


def test_lie_identical_honest_is_identity():
    v = np.array([3.0, -1.0])
    got = attack_lie([v, v, v])
    assert np.allclose(got, v, atol=1e-15)


def test_lie_zero_offset_is_honest_mean():
    honest = [np.array([1.0, 5.0]), np.array([3.0, 1.0])]
    got = attack_lie(honest, offset=0.0)
    assert np.allclose(got, [2.0, 3.0], atol=1e-15)


def test_lie_needs_two_honest():
    with pytest.raises(InsufficientClients):
        attack_lie([np.ones(3)])


# ------------------------------------------------------------------------ foe


def test_foe_small_scale_is_scaled_honest_mean():
    honest = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    got = attack_foe(honest, scale=-0.1, n_clients=4, n_byzantine=2)
    assert np.allclose(got, [-0.1, -0.1], atol=1e-15)


def test_foe_amplified_scale_equals_signflip_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = int(rng.integers(4, 12))
        b = int(rng.integers(1, m - 1))
        honest = rng.normal(size=(m - b, 17))
        foe = attack_foe(honest, scale=-3.0 * (m - b), n_clients=m, n_byzantine=b)
        flip = attack_signflip(honest)
        assert np.array_equal(foe, flip)


def test_foe_zero_sum_gives_zero_payload():
    v = np.array([1.0, 2.0])
    got = attack_foe([v, -v], scale=-0.1, n_clients=4, n_byzantine=2)
    assert np.array_equal(got, np.zeros(2))


def test_foe_rejects_all_byzantine():
    with pytest.raises(InvalidRatio):
        attack_foe([np.ones(2)], scale=-0.1, n_clients=3, n_byzantine=3)


# --------------------------------------------------------------- negated mean


def test_negated_mean_of_identical_honest():
    g = np.array([1.0, -4.0])
    got = attack_negated_mean([g, g, g], n_clients=5, n_byzantine=2)
    assert np.allclose(got, -g, atol=1e-15)


def test_negated_mean_hand_example():
    honest = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    got = attack_negated_mean(honest, n_clients=4, n_byzantine=2)
    assert np.allclose(got, [-1.0, -1.0], atol=1e-15)


def test_negated_mean_norm_matches_honest_mean_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(3, 10))
        b = int(rng.integers(1, m - 1))
        honest = rng.normal(size=(m - b, 9))
        payload = attack_negated_mean(honest, n_clients=m, n_byzantine=b)
        mean = honest.sum(axis=0) / (m - b)
        assert np.linalg.norm(payload) == np.linalg.norm(mean)


def test_negated_mean_rejects_all_byzantine():
    with pytest.raises(InvalidRatio):
        attack_negated_mean([np.ones(2)], n_clients=2, n_byzantine=2)


# ----------------------------------------------------------- formula recheck


def test_payload_formulas_match_independent_recomputation():
    rng = np.random.default_rng(99)
    for _ in range(50):
        m = int(rng.integers(4, 15))
        b = int(rng.integers(1, m - 2))
        honest = rng.normal(size=(m - b, 12))
        total = honest.sum(axis=0)
        assert np.allclose(attack_signflip(honest), -3.0 * total, atol=1e-12)
        assert np.allclose(
            attack_lie(honest, 0.7),
            honest.mean(axis=0) + 0.7 * honest.std(axis=0),
            atol=1e-12,
        )
        q = float(rng.uniform(-5.0, -0.01))
        assert np.allclose(attack_foe(honest, q, m, b), q * total / (m - b), atol=1e-12)
        assert np.allclose(attack_negated_mean(honest, m, b), -total / (m - b), atol=1e-12)


# ----------------------------------------------------------------- dispatcher


def _client_rng(master: int):
    return lambda m: np.random.default_rng((master, m))


def test_collusive_attacks_share_one_payload():
    rng = np.random.default_rng(5)
    honest = rng.normal(size=(4, 8))
    for kind in ("signflip", "lie", "foe", "negated_mean"):
        spec = AttackSpec(kind, foe_scale=-0.1)
        payloads = byzantine_payloads(spec, honest, [4, 5, 6], 7, _client_rng(0))
        assert set(payloads) == {4, 5, 6}
        base = payloads[4]
        assert all(np.array_equal(base, p) for p in payloads.values()), kind


def test_gaussian_attackers_draw_independently():
    honest = np.random.default_rng(5).normal(size=(3, 50))
    payloads = byzantine_payloads(AttackSpec("gaussian"), honest, [3, 4], 5, _client_rng(1))
    assert not np.array_equal(payloads[3], payloads[4])
    again = byzantine_payloads(AttackSpec("gaussian"), honest, [3, 4], 5, _client_rng(1))
    assert np.array_equal(payloads[3], again[3])


def test_an_unset_foe_scale_is_minus_a_tenth():
    honest = np.random.default_rng(3).normal(size=(3, 5))
    unset = byzantine_payloads(AttackSpec("foe"), honest, [3], 4, _client_rng(0))
    tenth = byzantine_payloads(AttackSpec("foe", foe_scale=-0.1), honest, [3], 4, _client_rng(0))
    assert np.array_equal(unset[3], tenth[3])
    assert np.array_equal(unset[3], attack_foe(honest, -0.1, 4, 1))


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("bogus")
    with pytest.raises(ValueError):
        AttackSpec("gaussian", variance=0.0)


def test_attack_labels():
    assert AttackSpec("gaussian").label == "Gaussian"
    assert AttackSpec("signflip").label == "SignFlip"
    assert AttackSpec("lie").label == "LIE"
    assert AttackSpec("foe").label == "FoE"
    assert AttackSpec("negated_mean").label == "NegatedMean"
