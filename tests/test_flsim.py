from __future__ import annotations

import ctypes
import glob
import math
import os
import struct
import time
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from byzbench import data as datamod
from byzbench import filtering, flsim, models
from byzbench.aggregators import aggregate
from byzbench.core import substream
from byzbench.errors import ConfigError, DivergenceDetected, InvalidField
from byzbench.flsim import Simulation, run_to_result
from byzbench.specs import (
    AggregatorSpec,
    AttackSpec,
    CleanSpec,
    DatasetSpec,
    FilterParams,
    LRSchedule,
    MethodSpec,
    ModelSpec,
    RunConfig,
    ceil_ratio,
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


# Some partitions are below batch_size, so each client's batch is its own stack.
_RAGGED = _cfg(rounds=3, batch_size=64, min_client_size=8)


def _oracle_batches(cfg: RunConfig, pool, purpose: str, *coords) -> np.ndarray:
    """The batch-draw contract: one keyed stream per pool draws a (rounds,
    pool size) block of uniform keys at once, and round t's batch is the
    samples with the smallest keys of row t, in key order (a full sort)."""
    keys = substream(cfg.seed, purpose, *coords).random((cfg.rounds, pool.size))
    return pool[np.argsort(keys, axis=1, kind="stable")[:, : min(cfg.batch_size, pool.size)]]


def _oracle_batch(cfg: RunConfig, part, round_index: int, client: int) -> np.ndarray:
    """Client `client`'s batch in round `round_index`, drawn from its one stream."""
    return _oracle_batches(cfg, part, "batches", 0, client)[round_index]


@dataclass
class _TrainLocal:
    """A run's setup as built from a shuffled copy of the data set: train and
    test taken from that copy, and every index a position in the train split.
    `generated` is the whole data set in generation order, which the sample
    ids of a data level (partitions, shard) name."""

    generated: datamod.LabeledDataset
    train: datamod.LabeledDataset
    test: datamod.LabeledDataset
    shard: np.ndarray | None
    partitions: list
    alpha: np.ndarray
    batches: list  # batches[t][k]: train positions of honest client k in round t
    server_batches: list  # server_batches[t]: train positions of the shard batch


def _train_local_setup(cfg: RunConfig, honest) -> _TrainLocal:
    """Rebuild `cfg`'s setup the dataset-copying way, from the same draws."""
    spec = cfg.dataset
    generated, _ = datamod.synth_classification(
        spec.n, spec.dim, spec.classes, spec.separation, substream(cfg.seed, "data")
    )
    full = datamod.take(generated, substream(cfg.seed, "shuffle").permutation(spec.n))
    train_idx, test_idx = datamod.stratified_holdout(
        full.labels, full.n_classes, spec.test_fraction, substream(cfg.seed, "split")
    )
    train, test = datamod.take(full, train_idx), datamod.take(full, test_idx)
    shard = None
    if cfg.clean is not None and cfg.clean.kind == "server":
        shard = datamod.carve_clean_shard(
            train.labels, train.n_classes, cfg.clean.fraction, substream(cfg.seed, "shard")
        )
    partitions = datamod.dirichlet_partition(
        train.labels, train.n_classes, cfg.clients, cfg.beta,
        cfg.min_client_size or 2 * cfg.batch_size, substream(cfg.seed, "partition"),
        exclude=shard,
    )
    sizes = np.array([part.size for part in partitions])
    alpha = sizes / sizes.sum()  # the exact size ratios S_m / sum(S)
    batches = [[_oracle_batch(cfg, partitions[m], t, m) for m in honest] for t in range(cfg.rounds)]
    server_batches = [] if shard is None else list(_oracle_batches(cfg, shard, "server_batches"))
    return _TrainLocal(generated, train, test, shard, partitions, alpha, batches, server_batches)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_rows_match(sim: Simulation, old: _TrainLocal):
    """Every sample and every row the run names holds the data the
    train-local index names: partitions and shard name samples of the
    generated data set, batches name rows of the data level's features."""
    data = sim.data

    def same_data(features, labels, positions) -> bool:
        return _same_bits(features, old.train.features[positions]) and _same_bits(
            labels, old.train.labels[positions]
        )

    def same_samples(ids, positions) -> bool:
        return same_data(old.generated.features[ids], old.generated.labels[ids], positions)

    def same_rows(rows, positions) -> bool:
        return same_data(data.features[rows], data.labels[rows], positions)

    assert _same_bits(data.test.features, old.test.features)
    assert _same_bits(data.test.labels, old.test.labels)
    assert data.n_classes == old.test.n_classes == old.train.n_classes
    assert _same_bits(data.alpha, old.alpha) and abs(data.alpha.sum() - 1.0) < 1e-12
    for part, old_part in zip(data.partitions, old.partitions, strict=True):
        assert same_samples(part, old_part)
    assert (data.shard is None) == (old.shard is None)
    assert data.shard is None or same_samples(data.shard, old.shard)
    assert len(sim.batches) == len(old.batches)
    for stacks, old_batches in zip(sim.batches, old.batches):
        rows = [row for stack in stacks for row in stack]
        for row, positions in zip(rows, old_batches, strict=True):
            assert same_rows(row, positions)
    assert (data.server_batches is None) == (old.shard is None)
    for t, positions in enumerate(old.server_batches):
        assert same_rows(data.server_batches[t], positions)


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
    with pytest.raises(InvalidField, match="builds no reference") as info:
        MethodSpec(base=AggregatorSpec("gm"), reference="trusted")  # a bare method
    assert info.value.field == "reference"
    with pytest.raises(ValueError):
        RunConfig(requested_ratio=0.3)  # ratio without an attack
    with pytest.raises(ValueError):
        RunConfig(rounds=-1)
    with pytest.raises(ValueError):
        RunConfig(beta=0.0)


@pytest.mark.parametrize("reference", ["server_clean", "trusted"])
def test_method_rejects_a_base_its_reference_never_runs(reference):
    with pytest.raises(InvalidField) as info:
        MethodSpec(filtered=True, reference=reference, base=AggregatorSpec("krum"))
    assert info.value.field == "base"


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
    with pytest.raises(InvalidField) as info:
        _cfg(
            requested_ratio=0.6,
            attack=AttackSpec("signflip"),
            method=MethodSpec(base=AggregatorSpec("krum")),
        )  # f = 3 needs 6 clients, config has 5
    assert info.value.field == "method"


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
    with pytest.raises(InvalidField) as info:
        _cfg(
            method=MethodSpec(filtered=True, base=AggregatorSpec("mean")),
            filter_params=FilterParams(keep=9),  # only 5 clients
        )
    assert info.value.field == "filter_params"


def test_foe_payload_does_not_depend_on_the_victim(monkeypatch):
    # Given the same parameters each round, an MCA and a GM run that differ
    # only in method must aggregate the same uploads, payloads included.
    uploads = {"mca": [], "gm": []}

    def recording(spec, weights, vectors, **kwargs):
        uploads[spec.kind].append(vectors.copy())
        return aggregate(spec, weights, vectors, **kwargs)

    monkeypatch.setattr(flsim, "aggregate", recording)
    kwargs = dict(requested_ratio=0.4, attack=AttackSpec("foe"), rounds=4)
    vs_mca = Simulation(_cfg(method=MethodSpec(base=AggregatorSpec("mca")), **kwargs))
    vs_gm = Simulation(_cfg(method=MethodSpec(base=AggregatorSpec("gm")), **kwargs))
    assert vs_mca.mask.count > 0
    for t in range(4):
        vs_gm.params = vs_mca.params.copy()
        vs_mca.run_round(t)
        vs_gm.run_round(t)
    assert len(uploads["mca"]) == len(uploads["gm"]) == 4
    for mca, gm in zip(uploads["mca"], uploads["gm"]):
        assert np.array_equal(mca, gm)


def test_clean_gradient_requirements():
    for method in (
        MethodSpec(filtered=True, reference="server_clean"),
        MethodSpec(base=AggregatorSpec("fltrust")),
        MethodSpec(filtered=True, base=AggregatorSpec("fltrust")),
        MethodSpec(filtered=True, reference="trusted"),
    ):
        with pytest.raises(InvalidField, match="needs clean.kind"):
            _cfg(method=method)


_HIGH_RATIO = dict(requested_ratio=0.9, attack=AttackSpec("signflip"))


@pytest.mark.parametrize(
    "field, overrides",
    [
        pytest.param(
            "method",
            dict(clean=CleanSpec("server"), method=MethodSpec(filtered=True, reference="trusted")),
            id="clean-kind",
        ),
        pytest.param(
            "clean.clients[1]", dict(clean=CleanSpec("trusted", clients=(0, 5))), id="trusted-id"
        ),
        pytest.param(
            "requested_ratio",
            dict(_HIGH_RATIO, method=MethodSpec(filtered=True, base=AggregatorSpec("mean"))),
            id="default-N<1",
        ),
        pytest.param(
            "method",
            dict(method=MethodSpec(base=AggregatorSpec("krum", assumed_byzantine=3))),
            id="krum-f",
        ),
    ],
)
def test_run_config_rejects_runs_that_could_never_run(field, overrides):
    with pytest.raises(InvalidField) as info:
        _cfg(**overrides)  # 5 clients
    assert info.value.field == field


def test_run_config_defaults_of_n_and_f():
    attacked = dict(requested_ratio=0.4, attack=AttackSpec("signflip"))
    assert _cfg(**attacked).keep == 5 - 2
    assert _cfg(**attacked, filter_params=FilterParams(keep=4)).keep == 4
    assert _cfg(**attacked).resolved_method == _cfg().method
    krum = MethodSpec(filtered=True, base=AggregatorSpec("krum"))
    assert _cfg(**attacked, method=krum).resolved_method.base.assumed_byzantine == 2
    given = MethodSpec(base=AggregatorSpec("krum", assumed_byzantine=1))
    assert _cfg(**attacked, method=given).resolved_method == given
    # a bare method at a ratio whose default N is 0 still runs
    bare = _cfg(clients=8, min_client_size=8, rounds=1, **_HIGH_RATIO)
    assert bare.keep == 8 - 8
    assert run_to_result(bare).byzantine.count == 7


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


def test_zero_rounds_report_no_accuracy():
    result = run_to_result(_cfg(rounds=0))
    assert result.records == []
    assert result.max_accuracy is None and result.final_accuracy is None
    assert not result.diverged


def test_rerun_is_bitwise_identical():
    cfg = _cfg(rounds=4, requested_ratio=0.2, attack=AttackSpec("lie"))
    a = run_to_result(cfg)
    b = run_to_result(cfg)
    assert _records_equal(a.records, b.records)
    assert a.max_accuracy == b.max_accuracy
    assert a.byzantine.members == b.byzantine.members
    # run_to_result scores; a bare loop of rounds only trains
    sim = Simulation(cfg)
    bare = [sim.run_round(t) for t in range(cfg.rounds)]
    assert [replace(r, wall={}) for r in bare] == [
        replace(r, test_accuracy=None, wall={}) for r in a.records
    ]


def _same_result(a, b) -> bool:
    return (
        _records_equal(a.records, b.records)
        and [r.filter_precision for r in a.records] == [r.filter_precision for r in b.records]
        and (a.max_accuracy, a.final_accuracy, a.diverged)
        == (b.max_accuracy, b.final_accuracy, b.diverged)
        and a.byzantine == b.byzantine
    )


@pytest.mark.parametrize(
    "first",
    [
        # another method: B reuses A's data level
        dict(method=MethodSpec(base=AggregatorSpec("median"))),
        # other data: B's data level replaces A's
        dict(seed=7, beta=0.3, method=MethodSpec(filtered=True, base=AggregatorSpec("mca"))),
        # the same data, another attack and ratio: B shares A's data level
        dict(attack=AttackSpec("lie"), requested_ratio=0.2,
             method=MethodSpec(base=AggregatorSpec("median"))),
    ],
    ids=["same-environment", "other-environment", "same-data"],
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


def test_data_level_is_keyed_on_the_fields_the_draws_read(monkeypatch):
    builds = []
    build = flsim.build_client_data
    monkeypatch.setattr(flsim, "build_client_data", lambda key: builds.append(key) or build(key))
    monkeypatch.setattr(flsim, "_cached", None)
    cfg = _cfg(requested_ratio=0.4, attack=AttackSpec("signflip"))
    first = Simulation(cfg).data
    h_gm = MethodSpec(filtered=True, base=AggregatorSpec("gm"))
    for same in (dict(method=h_gm), dict(attack=AttackSpec("lie")), dict(requested_ratio=0.2),
                 dict(attack=None, requested_ratio=0.0), dict(model=ModelSpec("mlp1")),
                 dict(lr=LRSchedule(eta0=0.1)), dict(eval_interval=2),
                 dict(filter_params=FilterParams(penalty_weight=0.0))):
        assert Simulation(replace(cfg, **same)).data is first
    assert builds == [cfg.draw_key]
    changes = (dict(rounds=4), dict(seed=1), dict(beta=0.3), dict(clients=4),
               dict(batch_size=8), dict(dataset=replace(cfg.dataset, n=601)),
               dict(clean=CleanSpec("server", fraction=0.1)))
    for changed in changes:
        assert Simulation(replace(cfg, **changed)).data is not first
    assert len(builds) == 1 + len(changes)


def test_a_simulation_pins_the_heap_before_it_builds_anything(monkeypatch):
    calls = []
    build = flsim.build_client_data
    monkeypatch.setattr(flsim, "_cached", None)
    monkeypatch.setattr(flsim, "pin_heap_thresholds", lambda: calls.append("pin"))
    monkeypatch.setattr(flsim, "build_client_data", lambda key: calls.append("build") or build(key))
    Simulation(RunConfig(rounds=0))
    assert calls == ["pin", "build"]


@pytest.mark.parametrize(
    "n, classes, test_fraction, clean",
    [
        (600, 3, 0.2, None),
        (601, 3, 0.2, None),
        (1003, 7, 0.15, CleanSpec("server", fraction=0.1)),
        (997, 10, 0.33, CleanSpec("server", fraction=0.02)),
        (50, 4, 0.5, CleanSpec("server", fraction=0.3)),
    ],
)
def test_partition_rows_counts_the_pool_the_build_partitions(n, classes, test_fraction, clean):
    dataset = DatasetSpec(n=n, dim=4, classes=classes, separation=4.0, test_fraction=test_fraction)
    cfg = _cfg(dataset=dataset, clean=clean, min_client_size=1)
    data = flsim.build_client_data(cfg.draw_key)
    # per class: the partitions hold exactly the pools that `validate` counts
    partitioned = datamod.class_labels(n, classes)[np.concatenate(data.partitions)]
    pools = cfg.partition_pools(cfg.dataset.train_counts)
    assert np.bincount(partitioned, minlength=classes).tolist() == pools


def test_environment_arrays_reject_writes(monkeypatch):
    monkeypatch.setattr(flsim, "_cached", None)
    for cfg in (_cfg(clean=CleanSpec("server", fraction=0.1)), _RAGGED):
        sim = Simulation(cfg)
        data = sim.data
        arrays = [data.features, data.labels, data.test.features, data.test.labels,
                  data.alpha, *data.partitions, *data.batches]
        if data.shard is not None:
            arrays += [data.shard, data.server_batches]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(AttributeError):
            data.partitions.append(data.partitions[0])
        with pytest.raises(TypeError):
            sim.batches[0] = sim.batches[0]


@pytest.mark.parametrize(
    "cfg, ragged",
    [
        (_cfg(rounds=4), False),
        (_RAGGED, True),
        (_cfg(rounds=4, requested_ratio=0.4, attack=AttackSpec("signflip")), False),
        (_cfg(rounds=4, clean=CleanSpec("trusted", clients=(0, 2)), requested_ratio=0.2,
              attack=AttackSpec("lie")), False),
        (_cfg(rounds=4, clean=CleanSpec("server", fraction=0.1), requested_ratio=0.2,
              attack=AttackSpec("gaussian")), False),
    ],
    ids=["equal", "ragged", "attacked", "trusted", "server"],
)
def test_environment_batches_follow_the_draw_contract(monkeypatch, cfg, ragged):
    monkeypatch.setattr(flsim, "_cached", None)
    sim = Simulation(cfg)
    data, old = sim.data, _train_local_setup(cfg, sim.honest)

    def names(rows, samples) -> bool:  # rows of the data level hold these samples
        return _same_bits(data.features[rows], old.generated.features[samples]) and _same_bits(
            data.labels[rows], old.generated.labels[samples]
        )

    assert len(sim.batches) == cfg.rounds
    for t, stacks in enumerate(sim.batches):
        want = [_oracle_batch(cfg, data.partitions[m], t, m) for m in sim.honest]
        assert len(stacks) == (len(want) if ragged else 1)
        got = [row for stack in stacks for row in stack]
        assert len(got) == len(want)
        for row, batch in zip(got, want):
            assert row.dtype == batch.dtype and names(row, batch)
    if data.shard is not None:
        want = _oracle_batches(cfg, data.shard, "server_batches")
        for rows, batch in zip(data.server_batches, want, strict=True):
            assert names(rows, batch)
    # the data level holds the rows its batches read and no other
    read = [*data.batches, *([] if data.shard is None else [data.server_batches])]
    assert np.array_equal(np.unique(np.concatenate([b.ravel() for b in read])),
                          np.arange(len(data.features)))
    _assert_rows_match(sim, old)


def test_environment_holds_the_test_split_feature_major():
    data = flsim.build_client_data(_cfg().draw_key)
    assert data.test.features.shape == (data.test.n, data.features.shape[1])
    assert data.test.features.T.flags.c_contiguous
    assert not data.test.features.flags.writeable


def _write_idx_pair(directory, name, pixels, labels):
    images, label_file = directory / f"{name}-images.idx", directory / f"{name}-labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, *pixels.shape) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, labels.size) + labels.tobytes())
    return str(images), str(label_file)


def test_idx_environment_holds_its_test_split_feature_major(tmp_path):
    rng = np.random.default_rng(4)
    paths = {}
    # "unseen" holds a class the train split never has
    for name, n, classes in (("train", 300, 3), ("test", 90, 3), ("unseen", 90, 4)):
        pixels = rng.integers(0, 256, size=(n, 3, 4), dtype=np.uint8)
        labels = (np.arange(n) % classes).astype(np.uint8)
        paths[name] = _write_idx_pair(tmp_path, name, pixels, labels)
    spec = DatasetSpec(kind="idx", train_images=paths["train"][0], train_labels=paths["train"][1],
                       test_images=paths["test"][0], test_labels=paths["test"][1])
    cfg = _cfg(dataset=spec)
    data = flsim.build_client_data(cfg.draw_key)
    loaded, _ = datamod.load_idx(*paths["test"])
    assert data.test.features.T.flags.c_contiguous
    assert _same_bits(data.test.features, loaded.features)
    assert _same_bits(data.test.labels, loaded.labels)
    # the batch rows are the images load_idx converts, bitwise
    train, _ = datamod.load_idx(*paths["train"])
    for m, part in enumerate(data.partitions):
        for t in range(cfg.rounds):
            samples = _oracle_batch(cfg, part, t, m)
            rows = data.batches[m][t]
            assert _same_bits(data.features[rows], train.features[samples])
            assert _same_bits(data.labels[rows], train.labels[samples])
    # a config built in code reads no files before the run, so the build checks the classes
    unseen = replace(spec, test_images=paths["unseen"][0], test_labels=paths["unseen"][1])
    with pytest.raises(ConfigError) as info:
        flsim.build_client_data(_cfg(dataset=unseen).draw_key)
    assert info.value.path == "dataset"


def test_dataset_rejects_an_empty_test_split():
    with pytest.raises(InvalidField) as info:
        DatasetSpec(n=20, dim=3, classes=10)  # 2 per class: int(0.2 * 2 + 0.5) = 0
    assert info.value.field == "test_fraction"
    with pytest.raises(InvalidField):
        DatasetSpec(n=40, classes=4, test_fraction=0.04)
    assert DatasetSpec(n=30, dim=3, classes=10)  # 3 per class: one test row each
    assert DatasetSpec(n=21, dim=3, classes=10, test_fraction=0.17)  # one class of 3


def test_environment_build_peaks_below_two_copies_of_the_data():
    cfg = RunConfig(dataset=DatasetSpec(n=20000, dim=50), clean=CleanSpec("server", fraction=0.02))
    matrix_bytes = 20000 * 50 * 8
    tracemalloc.start()
    try:
        data = flsim.build_client_data(cfg.draw_key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.features.shape[0] < 20000  # only the rows some batch reads
    assert peak <= 1.6 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the feature matrix"


def test_a_short_run_builds_well_below_its_data_set():
    # setup-heavy's cells: 10 rounds read about a fifth of the 32,000 train rows
    key = RunConfig(dataset=DatasetSpec(n=40000, dim=50), clean=CleanSpec("server", fraction=0.02),
                    rounds=10).draw_key
    matrix_bytes = 40000 * 50 * 8
    flsim.build_client_data(key)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        data = flsim.build_client_data(key)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 0.51x and 0.38x when written; building the whole matrix peaks at 1.36x and holds 1.24x
    assert peak <= 0.6 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the n x d matrix"
    assert held <= 0.45 * matrix_bytes, f"holds {held / matrix_bytes:.2f}x the n x d matrix"
    assert data.features.shape[0] < 0.25 * 32000


def test_a_new_data_set_replaces_the_held_one_before_it_is_built(monkeypatch):
    cfg = RunConfig(dataset=DatasetSpec(n=20000, dim=50), clean=CleanSpec("server", fraction=0.02))
    matrix_bytes = 20000 * 50 * 8
    monkeypatch.setattr(flsim, "_cached", None)
    tracemalloc.start()
    try:
        flsim.client_data(cfg)
        flsim.client_data(replace(cfg, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the feature matrix"


def test_a_wide_round_holds_few_upload_matrices():
    # wide-model's shape: mlp1 with d = 50 and 128 hidden units, p = 7,818,
    # 20 clients. Its GM control cells peaked highest of its first 36 cells
    # (4.47x when the honest stack was built three times and held through
    # the aggregator; 2.52x with the stack written in place and dropped).
    cfg = _cfg(
        dataset=DatasetSpec(n=5000, dim=50, classes=10, separation=4.0),
        model=ModelSpec(kind="mlp1", hidden=128), clients=20, batch_size=32, rounds=4,
        method=MethodSpec(base=AggregatorSpec("gm")),
    )
    sim = Simulation(cfg)
    assert sim.model.n_params == 7818 and len(sim.honest) == 20
    sim.run_round(0)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        for t in range(1, cfg.rounds):
            sim.run_round(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    upload_bytes = cfg.clients * sim.model.n_params * 8
    assert peak < 3 * upload_bytes, f"peak {peak / upload_bytes:.2f}x the upload matrix"


def test_batches_are_drawn_once_per_environment(monkeypatch):
    draws = {}
    draw = flsim.substream

    def counted(seed, purpose, *coords):
        draws[purpose] = draws.get(purpose, 0) + 1
        return draw(seed, purpose, *coords)

    monkeypatch.setattr(flsim, "substream", counted)
    # At the headline's sizes a build derives one data stream and 20 batch
    # streams, one per client, plus one per server shard, whatever its rounds:
    # a stream per round would count 2,000 at 100 rounds.
    build = {"shuffle": 1, "split": 1, "partition": 1, "data": 1, "batches": 20}
    for rounds in (1, 100):
        headline = RunConfig(rounds=rounds)
        draws.clear()
        flsim.build_client_data(headline.draw_key)
        assert draws == build
        draws.clear()
        flsim.build_client_data(replace(headline, clean=CleanSpec("server", fraction=0.02)).draw_key)
        assert draws == {**build, "shard": 1, "server_batches": 1}

    cfg = _cfg(rounds=4, clean=CleanSpec("server", fraction=0.1), requested_ratio=0.4,
               attack=AttackSpec("lie"))
    draws.clear()
    monkeypatch.setattr(flsim, "_cached", None)
    # the build draws every client's batches, the compromised ones' too, since
    # the control run of the same data trains them
    assert len(Simulation(cfg).honest) < cfg.clients
    once = {"data": 1, "batches": cfg.clients, "server_batches": 1}
    assert {purpose: draws[purpose] for purpose in once} == once
    methods = [
        MethodSpec(base=AggregatorSpec("mean")),
        MethodSpec(base=AggregatorSpec("median")),
        MethodSpec(base=AggregatorSpec("fltrust")),
        MethodSpec(filtered=True, base=AggregatorSpec("gm")),
        MethodSpec(filtered=True, base=AggregatorSpec("mca")),
        MethodSpec(filtered=True, reference="server_clean"),
    ]
    for method in methods:
        result = run_to_result(replace(cfg, method=method))
        assert len(result.records) == cfg.rounds
    # the control and another attack and ratio on the same data draw none either
    run_to_result(replace(cfg, attack=None, requested_ratio=0.0))
    run_to_result(replace(cfg, attack=AttackSpec("signflip"), requested_ratio=0.2,
                          method=MethodSpec(base=AggregatorSpec("fltrust"))))
    assert {purpose: draws[purpose] for purpose in once} == once


@pytest.mark.parametrize(
    "cfg, ragged",
    [(_cfg(rounds=100, clean=CleanSpec("server", fraction=0.1)), False),
     (replace(_RAGGED, rounds=100, clean=CleanSpec("server", fraction=0.1)), True)],
    ids=["equal", "ragged"],
)
def test_a_shorter_data_level_draws_a_prefix_of_the_batches(monkeypatch, cfg, ragged):
    short = flsim.build_client_data(replace(cfg, rounds=40).draw_key)
    monkeypatch.setattr(flsim, "_KEY_BLOCK", 1000)  # draw the keys a few rounds at a time
    long = flsim.build_client_data(cfg.draw_key)
    spec = cfg.dataset
    generated, _ = datamod.synth_classification(
        spec.n, spec.dim, spec.classes, spec.separation, substream(cfg.seed, "data")
    )

    def samples(data, rows):
        return data.features[rows].tobytes(), data.labels[rows].tobytes()

    assert (len({rows.shape[1] for rows in long.batches}) > 1) == ragged
    streams = [(part, ("batches", 0, m), short.batches[m], long.batches[m])
               for m, part in enumerate(long.partitions)]
    streams.append((long.shard, ("server_batches",), short.server_batches, long.server_batches))
    for pool, stream, rows, long_rows in streams:
        assert rows.shape == (40, long_rows.shape[1])
        assert samples(short, rows) == samples(long, long_rows[:40])
        # every row is its stream's smallest keys in key order, as a full sort gives
        want = _oracle_batches(cfg, pool, *stream)
        assert samples(long, long_rows) == (
            generated.features[want].tobytes(), generated.labels[want].tobytes()
        )


def test_single_mean_round_is_one_sgd_step():
    cfg = _cfg(rounds=1)
    sim = Simulation(cfg)
    old = _train_local_setup(cfg, sim.honest)
    params0 = sim.params.copy()
    honest_grads = []
    for batch in old.batches[0]:
        _, grad = sim.model.loss_and_gradient(
            params0, old.train.features[batch], old.train.labels[batch]
        )
        honest_grads.append(grad)
    want = params0 - cfg.lr.rate(0) * (sim.data.alpha @ np.stack(honest_grads))
    sim.run_round(0)
    assert np.allclose(sim.params, want, atol=1e-12)


def test_ragged_round_calls_the_model_once_per_client(monkeypatch):
    cfg = replace(_RAGGED, rounds=1)
    sim = Simulation(cfg)
    old = _train_local_setup(cfg, sim.honest)
    batches = old.batches[0]
    assert len({batch.size for batch in batches}) > 1  # some partition is below batch_size
    want = np.stack(
        [
            sim.model.loss_and_gradient(
                sim.params, old.train.features[batch], old.train.labels[batch]
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
def test_round_wall_times_every_phase(monkeypatch, method, phases):
    cfg = _cfg(
        rounds=1,
        clean=CleanSpec("server", fraction=0.05),
        requested_ratio=0.2,
        attack=AttackSpec("signflip"),
        method=method,
    )
    selections = []
    select = filtering.select_clients

    def timed_select(*args):
        start = time.perf_counter()
        result = select(*args)
        selections.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(filtering, "select_clients", timed_select)
    wall = run_to_result(cfg).records[0].wall
    assert set(wall) == {"batches", "gradients", "attack", "step", "eval", "total"} | phases
    assert all(v > 0.0 for v in wall.values())
    assert sum(v for key, v in wall.items() if key != "total") == pytest.approx(wall["total"])
    if "filter" in phases:  # the whole filter call, not only its selection
        assert wall["filter"] > selections[0]


def test_signflip_hurts_bare_mean():
    control = run_to_result(_cfg(rounds=5))
    attacked = run_to_result(
        _cfg(rounds=5, requested_ratio=0.4, attack=AttackSpec("signflip"))
    )
    if not attacked.diverged:
        assert attacked.records[-1].train_loss > control.records[-1].train_loss


def test_divergence_yields_partial_result(monkeypatch):
    # softmax gradients are bounded, so blow-up needs the mlp's compounding
    cfg = _cfg(
        rounds=40,
        model=ModelSpec("mlp1", hidden=16),
        requested_ratio=0.4,
        attack=AttackSpec("signflip"),
        lr=LRSchedule(eta0=5000.0, decay=0.0),
    )
    # Blocks of 128 // 16 = 8 rounds: the rounds held when a round diverges
    # are scored all the same.
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_to_result(cfg)
        assert result.diverged
        assert len(result.records) < 40
        assert len(result.records) % 8  # the divergence found rounds held
        monkeypatch.setattr(flsim, "_EVAL_ROUNDS", 1)
        one_by_one = run_to_result(cfg)
    assert [r.test_accuracy for r in result.records] == [
        r.test_accuracy for r in one_by_one.records
    ]
    assert None not in [r.test_accuracy for r in result.records]
    assert result.max_accuracy == max(r.test_accuracy for r in result.records)
    last = result.records[-1].wall
    assert last["eval"] > 0.0 and sum(v for k, v in last.items() if k != "total") <= last["total"]
    # a step of 1e308 overflows the parameters themselves in round 0
    cfg = RunConfig(
        lr=LRSchedule(eta0=1e308), requested_ratio=0.2, attack=AttackSpec("signflip"), rounds=5, seed=1
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceDetected, match="^parameters diverged in round 0$"):
            Simulation(cfg).run_round(0)
        result = run_to_result(cfg)
    assert result.diverged and result.records == [] and result.max_accuracy is None


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


# A test split of 2,100 rows of d = 64: blocks of min(16, 128 // 4) = 16
# rounds of a 4-class softmax per call.
_BLOCKED = _cfg(dataset=DatasetSpec(n=6000, dim=64, classes=4, separation=4.0, test_fraction=0.35))
# The softmax sweeps' test split: 1,000 rows of d = 20, not a multiple of 16,
# in blocks of 128 // 10 = 12 rounds of a 10-class softmax.
_SWEEP_SPLIT = _cfg(dataset=DatasetSpec(n=5000, dim=20, classes=10, separation=4.0))


def _count_rows_per_call(monkeypatch, cls) -> list:
    calls = []
    accuracy = cls.accuracy
    monkeypatch.setattr(cls, "accuracy", lambda self, params, *a:
                        calls.append(np.atleast_2d(params).shape[0]) or accuracy(self, params, *a))
    return calls


@pytest.mark.parametrize(
    "base, rounds, eval_interval, rows_per_call",
    [
        # full blocks, then a partial one at the last round
        pytest.param(_BLOCKED, 20, 1, [16, 4], id="20-1"),
        pytest.param(_BLOCKED, 52, 3, [16, 2], id="52-3"),
        pytest.param(_SWEEP_SPLIT, 26, 1, [12, 12, 2], id="sweep-split-26-1"),
    ],
)
def test_blocked_eval_gives_the_records_of_one_round_per_call(
    monkeypatch, base, rounds, eval_interval, rows_per_call
):
    cfg = replace(base, rounds=rounds, eval_interval=eval_interval,
                  requested_ratio=0.2, attack=AttackSpec("signflip"),
                  method=MethodSpec(filtered=True, base=AggregatorSpec("median")))
    assert flsim._eval_block(Simulation(cfg).model) == rows_per_call[0]
    calls = _count_rows_per_call(monkeypatch, models.SoftmaxRegression)
    blocked = run_to_result(cfg)
    assert calls == rows_per_call
    evaluated = [r.round_index for r in blocked.records if r.test_accuracy is not None]
    assert evaluated == [t for t in range(rounds) if (t + 1) % eval_interval == 0 or t == rounds - 1]
    block_ends = [evaluated[i - 1] for i in np.cumsum(rows_per_call)]
    assert [r.round_index for r in blocked.records if "eval" in r.wall] == block_ends
    monkeypatch.setattr(flsim, "_EVAL_ROUNDS", 1)
    calls.clear()
    one_by_one = run_to_result(cfg)
    assert calls == [1] * len(evaluated)
    assert _records_equal(blocked.records, one_by_one.records)
    assert (blocked.max_accuracy, blocked.final_accuracy) == (
        one_by_one.max_accuracy, one_by_one.final_accuracy
    )


@pytest.mark.parametrize(
    "cfg, cls, rows_per_call",
    [
        # however small the test split, a narrow first layer is scored in blocks
        pytest.param(_SWEEP_SPLIT, models.SoftmaxRegression, [12, 2], id="softmax-1000-test-rows"),
        # first layers 128 wide or wider are scored one round per call
        pytest.param(replace(_BLOCKED, model=ModelSpec("mlp1", hidden=128)), models.OneHiddenMLP,
                     [1] * 14, id="mlp1-128"),
        pytest.param(replace(_BLOCKED, model=ModelSpec("mlp1", hidden=200)), models.OneHiddenMLP,
                     [1] * 14, id="mlp1-200"),
    ],
)
def test_eval_blocks_follow_the_first_layer_width(monkeypatch, cfg, cls, rows_per_call):
    cfg = replace(cfg, rounds=14)
    calls = _count_rows_per_call(monkeypatch, cls)
    result = run_to_result(cfg)
    assert calls == rows_per_call
    assert all(r.test_accuracy is not None for r in result.records)
    assert [r.round_index for r in result.records if "eval" in r.wall] == [
        i - 1 for i in np.cumsum(rows_per_call)
    ]


def test_a_second_simulation_does_not_pin_the_heap_again(monkeypatch):
    calls = []

    class _Libc:
        def mallopt(self, param, value):
            calls.append((param, value))

    monkeypatch.setattr(flsim.ctypes, "CDLL", lambda name: _Libc())
    flsim.pin_heap_thresholds.cache_clear()
    try:
        Simulation(_cfg(rounds=0))
        Simulation(_cfg(rounds=0, seed=1))
    finally:
        monkeypatch.undo()
        flsim.pin_heap_thresholds.cache_clear()
        flsim.pin_heap_thresholds()
    assert calls == [(flsim._M_MMAP_THRESHOLD, 4 << 20), (flsim._M_TRIM_THRESHOLD, 8 << 20)]


def test_a_simulation_runs_numpy_blas_on_one_thread():
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*"))
    if not paths:
        pytest.skip("numpy bundles no OpenBLAS here")
    blas = ctypes.CDLL(paths[0])
    blas.scipy_openblas_set_num_threads64_(2)
    flsim.pin_blas_threads.cache_clear()
    Simulation(_cfg(rounds=0))
    assert blas.scipy_openblas_get_num_threads64_() == 1


def test_a_bare_server_step_selects_every_client():
    rng = np.random.default_rng(0)
    uploads, alpha, center = rng.normal(size=(5, 7)), np.full(5, 0.2), rng.normal(size=7)
    phases = []
    result = flsim.server_step(
        MethodSpec(base=AggregatorSpec("cclip")), FilterParams(), alpha, uploads, phases.append,
        trusted=(), clean_gradient=None, center=center, segments=None,
    )
    want = aggregate(AggregatorSpec("cclip"), alpha, uploads, center=center)
    assert _same_bits(result.aggregate, want) and phases == ["aggregate"]
    assert result.selected == tuple(range(5)) and result.windows == () and not result.survivors.size


def test_eval_interval_skips_rounds():
    result = run_to_result(_cfg(rounds=7, eval_interval=3))
    evaluated = [r.round_index for r in result.records if r.test_accuracy is not None]
    assert evaluated == [2, 5, 6]  # every third round plus the final one


def test_round_record_fields_are_sane(monkeypatch):
    cfg = _cfg(
        rounds=2,
        requested_ratio=0.2,
        attack=AttackSpec("gaussian"),
        method=MethodSpec(filtered=True, base=AggregatorSpec("median")),
        filter_params=FilterParams(segment_len=5),  # windows narrower than p = 27
    )
    steps = []
    server_step = flsim.server_step

    def captured(*args, **kwargs):
        result = server_step(*args, **kwargs)
        steps.append((args, kwargs, result))
        return result

    monkeypatch.setattr(flsim, "server_step", captured)
    result = run_to_result(cfg)
    for rec in result.records:
        assert 0.0 <= rec.filter_precision <= 1.0
        assert 0.0 <= rec.filter_recall <= 1.0
        assert rec.aggregate_norm >= 0.0
        assert len(rec.pass_segments) == cfg.filter_params.passes
        assert rec.wall_ms >= 0.0
        assert rec.n_selected == len(rec.selected)
    # The server's rule replays outside the Simulation, on a fresh window stream.
    assert len(steps) == len(result.records)
    for rec, (args, kwargs, seen) in zip(result.records, steps):
        args = (*args[:4], lambda phase: None)
        segments = substream(cfg.seed, "segments", rec.round_index)
        replay = server_step(*args, **{**kwargs, "segments": segments})
        assert _same_bits(replay.aggregate, seen.aggregate)
        assert np.linalg.norm(replay.aggregate) == rec.aggregate_norm
        assert replay.selected == rec.selected and replay.windows == rec.pass_segments
        assert np.array_equal(replay.survivors, seen.survivors)


def test_result_labels():
    control = _cfg(rounds=1)
    run_to_result(control)
    assert control.method.label == "Mean"
    assert control.attack_label == "None"
    attacked = _cfg(
        rounds=1,
        requested_ratio=0.2,
        attack=AttackSpec("negated_mean"),
        method=MethodSpec(filtered=True, base=AggregatorSpec("gm")),
    )
    run_to_result(attacked)
    assert attacked.method.label == "H+GM"
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
    assert sim.data.shard is not None and sim.data.shard.size > 0
    claimed = np.concatenate(sim.data.partitions)
    assert not np.intersect1d(claimed, sim.data.shard).size
    old = _train_local_setup(cfg, sim.honest)
    for t, batch in enumerate(old.server_batches):
        _, want = sim.model.loss_and_gradient(
            sim.params, old.train.features[batch], old.train.labels[batch]
        )
        assert _same_bits(sim._clean_gradient(t), want)
    result = run_to_result(cfg)
    assert all(r.filter_precision == 1.0 for r in result.records)


def test_control_keeps_learning():
    result = run_to_result(replace(_cfg(), rounds=30))
    assert result.max_accuracy > 0.9
