from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from byzbench import flsim
from byzbench.aggregators import AggregatorSpec
from byzbench.attacks import AttackSpec
from byzbench.errors import (
    InsufficientClients,
    InvalidSelectionSize,
    MissingReference,
)
from byzbench.filtering import FilterParams
from byzbench.models import ModelSpec
from byzbench.flsim import (
    CleanSpec,
    DatasetSpec,
    LRSchedule,
    MethodSpec,
    RunConfig,
    Simulation,
    ceil_ratio,
    run_to_result,
)


def _cfg(**overrides) -> RunConfig:
    base = dict(
        dataset=DatasetSpec(n=600, dim=8, classes=3, separation=4.0),
        clients=5,
        batch_size=16,
        rounds=3,
        beta=0.6,
        min_client_size=16,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def _records_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.train_loss != rb.train_loss or ra.test_accuracy != rb.test_accuracy:
            return False
        if ra.selected != rb.selected or ra.aggregate_norm != rb.aggregate_norm:
            return False
        if ra.pass_segments != rb.pass_segments:
            return False
    return True


# ---------------------------------------------------------------- ceil_ratio


def test_ceil_ratio_grid_values():
    assert ceil_ratio(0.07, 100) == 7
    assert ceil_ratio(0.14, 50) == 7
    assert ceil_ratio(0.55, 100) == 55
    assert ceil_ratio(0.4, 20) == 8
    assert ceil_ratio(0.0, 37) == 0


def test_ceil_ratio_matches_exact_arithmetic():
    for hundredths in range(0, 100):
        for count in (10, 20, 37, 50, 100):
            want = math.ceil(Fraction(hundredths, 100) * count)
            assert ceil_ratio(hundredths / 100, count) == want, (hundredths, count)


# ------------------------------------------------------------------ schedule


def test_lr_schedule_formula():
    lr = LRSchedule(eta0=0.2, decay=0.006)
    assert lr.rate(0) == 0.2
    assert lr.rate(10) == pytest.approx(0.2 / 1.06, abs=1e-15)
    rates = [lr.rate(t) for t in range(50)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert all(r > 0 for r in rates)


def test_lr_schedule_validation():
    with pytest.raises(ValueError):
        LRSchedule(eta0=0.0)
    with pytest.raises(ValueError):
        LRSchedule(decay=-0.1)


# ---------------------------------------------------------------- validation


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DatasetSpec(kind="imaginary")
    with pytest.raises(ValueError):
        DatasetSpec(classes=1)
    with pytest.raises(ValueError):
        DatasetSpec(kind="idx")  # missing paths
    with pytest.raises(ValueError):
        CleanSpec("server", fraction=0.0)
    with pytest.raises(ValueError):
        CleanSpec("trusted")
    with pytest.raises(ValueError):
        MethodSpec(filtered=False)  # bare method without a base
    with pytest.raises(ValueError):
        MethodSpec(filtered=True)  # aggregator reference without a base
    with pytest.raises(ValueError):
        MethodSpec(filtered=True, reference="bogus")
    with pytest.raises(ValueError):
        RunConfig(requested_ratio=0.3)  # ratio without an attack
    with pytest.raises(ValueError):
        RunConfig(rounds=-1)
    with pytest.raises(ValueError):
        RunConfig(beta=0.0)


def test_method_labels():
    assert MethodSpec(base=AggregatorSpec("gm")).label == "GM"
    assert MethodSpec(filtered=True, base=AggregatorSpec("gm")).label == "H+GM"
    assert MethodSpec(filtered=True, base=AggregatorSpec("mca")).label == "H+MCA"
    assert MethodSpec(filtered=True, reference="server_clean").label == "H+Clean data"
    assert MethodSpec(filtered=True, reference="trusted").label == "H+Trusted"


# -------------------------------------------------------------- resolution


def test_krum_default_f_comes_from_ratio():
    cfg = _cfg(
        clients=20,
        dataset=DatasetSpec(n=2000, dim=8, classes=3, separation=4.0),
        requested_ratio=0.2,
        attack=AttackSpec("signflip"),
        method=MethodSpec(base=AggregatorSpec("krum")),
    )
    sim = Simulation(cfg)
    assert sim.method.base.assumed_byzantine == 4


def test_krum_rejects_too_few_clients():
    cfg = _cfg(
        requested_ratio=0.6,
        attack=AttackSpec("signflip"),
        method=MethodSpec(base=AggregatorSpec("krum")),
    )  # f = 3 needs 6 clients, config has 5
    with pytest.raises(InsufficientClients):
        Simulation(cfg)


def test_filter_keep_defaults_to_complement_of_ratio():
    cfg = _cfg(
        clients=20,
        dataset=DatasetSpec(n=2000, dim=8, classes=3, separation=4.0),
        requested_ratio=0.4,
        attack=AttackSpec("signflip"),
        method=MethodSpec(filtered=True, base=AggregatorSpec("mean")),
    )
    sim = Simulation(cfg)
    assert sim.filter_params.keep == 12


def test_filter_keep_out_of_range_rejected():
    cfg = _cfg(
        method=MethodSpec(filtered=True, base=AggregatorSpec("mean")),
        filter_params=FilterParams(keep=9),  # only 5 clients
    )
    with pytest.raises(InvalidSelectionSize):
        Simulation(cfg)


def test_foe_scale_resolution_depends_on_victim():
    kwargs = dict(requested_ratio=0.4, attack=AttackSpec("foe"))
    vs_mca = Simulation(_cfg(method=MethodSpec(base=AggregatorSpec("mca")), **kwargs))
    assert vs_mca.attack.foe_scale == -3.0 * (5 - vs_mca.mask.count)
    vs_gm = Simulation(_cfg(method=MethodSpec(base=AggregatorSpec("gm")), **kwargs))
    assert vs_gm.attack.foe_scale == -0.1


def test_clean_gradient_requirements():
    with pytest.raises(MissingReference):
        Simulation(_cfg(method=MethodSpec(filtered=True, reference="server_clean")))
    with pytest.raises(MissingReference):
        Simulation(_cfg(method=MethodSpec(base=AggregatorSpec("fltrust"))))
    with pytest.raises(MissingReference):
        Simulation(_cfg(method=MethodSpec(filtered=True, base=AggregatorSpec("fltrust"))))
    with pytest.raises(MissingReference):
        Simulation(_cfg(method=MethodSpec(filtered=True, reference="trusted")))


def test_trusted_clients_never_compromised():
    cfg = _cfg(
        clean=CleanSpec("trusted", clients=(0, 1)),
        requested_ratio=0.4,
        attack=AttackSpec("signflip"),
        method=MethodSpec(filtered=True, reference="trusted"),
    )
    sim = Simulation(cfg)
    assert not (set(sim.mask.members) & {0, 1})


# ------------------------------------------------------------------ training


def test_zero_rounds_reports_initial_accuracy():
    result = run_to_result(_cfg(rounds=0))
    assert result.records == []
    assert result.max_accuracy == result.final_accuracy == result.initial_accuracy
    assert not result.diverged


def test_rerun_is_bitwise_identical():
    cfg = _cfg(rounds=4, requested_ratio=0.2, attack=AttackSpec("lie"))
    a = run_to_result(cfg)
    b = run_to_result(cfg)
    assert _records_equal(a.records, b.records)
    assert a.max_accuracy == b.max_accuracy
    assert a.byzantine.members == b.byzantine.members


def _same_result(a, b) -> bool:
    return (
        _records_equal(a.records, b.records)
        and [r.filter_precision for r in a.records] == [r.filter_precision for r in b.records]
        and (a.initial_accuracy, a.max_accuracy, a.final_accuracy, a.diverged, a.keep)
        == (b.initial_accuracy, b.max_accuracy, b.final_accuracy, b.diverged, b.keep)
        and a.byzantine == b.byzantine
    )


@pytest.mark.parametrize(
    "first",
    [
        # the same environment, another method: B reuses A's environment
        dict(method=MethodSpec(base=AggregatorSpec("median"))),
        # another environment: B's replaces A's
        dict(seed=7, beta=0.3, method=MethodSpec(filtered=True, base=AggregatorSpec("mca"))),
    ],
    ids=["same-environment", "other-environment"],
)
def test_a_cell_after_another_equals_the_cell_alone(monkeypatch, first):
    b = _cfg(rounds=4, requested_ratio=0.4, attack=AttackSpec("signflip"),
             method=MethodSpec(filtered=True, base=AggregatorSpec("gm")))
    a = replace(b, **first)
    monkeypatch.setattr(flsim, "_cached", None)
    alone = run_to_result(b)
    monkeypatch.setattr(flsim, "_cached", None)
    run_to_result(a)
    after = run_to_result(b)
    assert _same_result(after, alone)


def test_environment_is_keyed_on_everything_but_the_method(monkeypatch):
    builds = []
    build = flsim.build_environment
    monkeypatch.setattr(flsim, "build_environment", lambda key: builds.append(key) or build(key))
    monkeypatch.setattr(flsim, "_cached", None)
    cfg = _cfg(requested_ratio=0.4, attack=AttackSpec("signflip"))
    first = flsim.environment(cfg)
    h_gm = MethodSpec(filtered=True, base=AggregatorSpec("gm"))
    assert flsim.environment(replace(cfg, method=h_gm)) is first
    assert len(builds) == 1 and builds[0].method is None
    for changed in (dict(rounds=4), dict(seed=1), dict(attack=AttackSpec("lie"))):
        assert flsim.environment(replace(cfg, **changed)) is not first
    assert len(builds) == 4


def test_environment_arrays_reject_writes(monkeypatch):
    monkeypatch.setattr(flsim, "_cached", None)
    env = flsim.environment(_cfg(clean=CleanSpec("server", fraction=0.1)))
    arrays = [env.train.features, env.train.labels, env.test.features, env.test.labels,
              env.shard, env.alpha, *(part.indices for part in env.partitions)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        env.partitions.append(env.partitions[0])


def test_single_mean_round_is_one_sgd_step():
    cfg = _cfg(rounds=1)
    sim = Simulation(cfg)
    params0 = sim.params.copy()
    honest_grads = []
    for m in sim.honest:
        batch = sim._client_batch(0, m)
        _, grad = sim.model.loss_and_gradient(
            params0, sim.train.features[batch], sim.train.labels[batch]
        )
        honest_grads.append(grad)
    want = params0 - cfg.lr.rate(0) * (sim.alpha @ np.stack(honest_grads))
    sim.run_round(0)
    assert np.allclose(sim.params, want, atol=1e-12)


def test_ragged_round_calls_the_model_once_per_client(monkeypatch):
    cfg = _cfg(rounds=1, batch_size=64, min_client_size=8)
    sim = Simulation(cfg)
    batches = [sim._client_batch(0, m) for m in sim.honest]
    assert len({batch.size for batch in batches}) > 1  # some partition is below batch_size
    want = np.stack(
        [
            sim.model.loss_and_gradient(
                sim.params, sim.train.features[batch], sim.train.labels[batch]
            )[1]
            for batch in batches
        ]
    )
    seen = {}
    model_call, aggregate = sim.model.loss_and_gradient, flsim.aggregate

    def counted(*args):
        seen["calls"] = seen.get("calls", 0) + 1
        return model_call(*args)

    def spy(spec, weights, uploads, **kwargs):
        seen["uploads"] = uploads.copy()
        return aggregate(spec, weights, uploads, **kwargs)

    monkeypatch.setattr(sim.model, "loss_and_gradient", counted)
    monkeypatch.setattr(flsim, "aggregate", spy)
    sim.run_round(0)
    assert seen["calls"] == len(sim.honest)
    assert np.array_equal(seen["uploads"][list(sim.honest)], want)


@pytest.mark.parametrize(
    "method, phases",
    [
        (MethodSpec(base=AggregatorSpec("mean")), {"aggregate"}),
        (MethodSpec(base=AggregatorSpec("fltrust")), {"clean", "aggregate"}),
        (MethodSpec(filtered=True, base=AggregatorSpec("median")), {"reference", "filter"}),
        (MethodSpec(filtered=True, reference="server_clean"), {"clean", "reference", "filter"}),
        (MethodSpec(filtered=True, base=AggregatorSpec("fltrust")), {"clean", "reference", "filter"}),
    ],
)
def test_round_wall_times_every_phase(method, phases):
    cfg = _cfg(
        rounds=1,
        clean=CleanSpec("server", fraction=0.05),
        requested_ratio=0.2,
        attack=AttackSpec("signflip"),
        method=method,
    )
    wall = run_to_result(cfg).records[0].wall
    assert set(wall) == {"batches", "gradients", "attack", "step", "eval", "total"} | phases
    assert sum(v for key, v in wall.items() if key != "total") <= wall["total"]


def test_signflip_hurts_bare_mean():
    control = run_to_result(_cfg(rounds=5))
    attacked = run_to_result(
        _cfg(rounds=5, requested_ratio=0.4, attack=AttackSpec("signflip"))
    )
    if not attacked.diverged:
        assert attacked.records[-1].train_loss > control.records[-1].train_loss


def test_divergence_yields_partial_result():
    # softmax gradients are bounded, so blow-up needs the mlp's compounding
    cfg = _cfg(
        rounds=40,
        model=ModelSpec("mlp1", hidden=16),
        requested_ratio=0.4,
        attack=AttackSpec("signflip"),
        lr=LRSchedule(eta0=5000.0, decay=0.0),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_to_result(cfg)
        assert result.diverged
        assert len(result.records) < 40


def test_filtered_mean_with_filter_disabled_matches_bare_mean():
    bare = run_to_result(_cfg(rounds=3))
    filtered = run_to_result(
        _cfg(
            rounds=3,
            method=MethodSpec(filtered=True, base=AggregatorSpec("mean")),
            filter_params=FilterParams(keep=5, penalty_weight=0.0),
        )
    )
    for ra, rb in zip(bare.records, filtered.records):
        assert ra.train_loss == rb.train_loss
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.aggregate_norm == rb.aggregate_norm
    assert filtered.records[-1].selected == (0, 1, 2, 3, 4)


def test_eval_interval_skips_rounds():
    result = run_to_result(_cfg(rounds=7, eval_interval=3))
    evaluated = [r.round_index for r in result.records if r.test_accuracy is not None]
    assert evaluated == [2, 5, 6]  # every third round plus the final one


def test_round_record_fields_are_sane():
    cfg = _cfg(
        rounds=2,
        requested_ratio=0.2,
        attack=AttackSpec("gaussian"),
        method=MethodSpec(filtered=True, base=AggregatorSpec("median")),
    )
    result = run_to_result(cfg)
    for rec in result.records:
        assert 0.0 <= rec.filter_precision <= 1.0
        assert 0.0 <= rec.filter_recall <= 1.0
        assert rec.realized_ratio == result.byzantine.realized_ratio
        assert rec.aggregate_norm >= 0.0
        assert len(rec.pass_segments) == cfg.filter_params.passes
        assert rec.wall_ms >= 0.0
        assert rec.n_selected == len(rec.selected)


def test_result_labels():
    control = run_to_result(_cfg(rounds=1))
    assert control.method_label == "Mean"
    assert control.attack_label == "None"
    attacked = run_to_result(
        _cfg(
            rounds=1,
            requested_ratio=0.2,
            attack=AttackSpec("negated_mean"),
            method=MethodSpec(filtered=True, base=AggregatorSpec("gm")),
        )
    )
    assert attacked.method_label == "H+GM"
    assert attacked.attack_label == "NegatedMean"


def test_server_clean_shard_feeds_reference():
    cfg = _cfg(
        rounds=2,
        clean=CleanSpec("server", fraction=0.05),
        requested_ratio=0.4,
        attack=AttackSpec("signflip"),
        method=MethodSpec(filtered=True, reference="server_clean"),
    )
    sim = Simulation(cfg)
    assert sim.shard is not None and sim.shard.size > 0
    claimed = np.concatenate([p.indices for p in sim.partitions])
    assert not np.intersect1d(claimed, sim.shard).size
    result = run_to_result(cfg)
    assert all(r.filter_precision == 1.0 for r in result.records)


def test_control_keeps_learning():
    result = run_to_result(replace(_cfg(), rounds=30))
    assert result.max_accuracy > 0.9
    assert result.max_accuracy > result.initial_accuracy
