"""Single-machine federated training simulator.

Each round: honest clients compute one minibatch gradient at the current
parameters, compromised clients substitute attack payloads, the server builds
its aggregate (optionally through the segment filter) and takes one SGD step.
Every random draw comes from a keyed substream of the run seed, so reruns are
bitwise identical and independent of execution order.

Ground truth about which clients are compromised lives only in this module
and the records it emits; aggregation and filtering code never sees it.

The setup draws that do not depend on the method (data, split, clean shard,
partition, compromised set, and every round's client batch indices) form an
`Environment`. Each process keeps the last one it built, so consecutive runs
in one process that differ only in method build it, and draw their batches,
once; a parallel sweep hands each environment's runs to one worker, apart
from the sweep's tail (see `harness.sweep`). A run's result does not depend
on which runs came before it.

An environment holds one feature matrix, generated once and never copied,
and every index it holds (partitions, clean shard, batches) is a row of that
matrix. The data shuffle is not applied to the features but composed into
the indices, and only the test split is gathered into an array of its own,
feature-major for evaluation (see `data.take`), so a build peaks at about
1.5x the matrix's bytes, never at two copies of the data set. The batches
cost rounds x H x batch_size x 8 bytes of indices (H honest clients), never
the gathered features: about 0.5 MB for 100 rounds of 20 clients at B = 32.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import data as datamod
from .aggregators import AggregatorSpec, aggregate
from .attacks import AttackSpec, byzantine_payloads
from .core import ByzantineMask, select_byzantine_set, substream, weighted_average
from .errors import (
    ConfigError,
    DivergenceDetected,
    InsufficientClients,
    InvalidField,
)
from .filtering import FilterParams, build_reference, filter_and_aggregate
from .models import ModelSpec, build_model


def ceil_ratio(ratio: float, count: int) -> int:
    """ceil(ratio * count) robust to float fuzz on grid values like 0.55 * 100."""
    return math.ceil(ratio * count - 1e-9)


@dataclass(frozen=True)
class LRSchedule:
    """Decaying step size eta_t = eta0 / (decay * t + 1)."""

    eta0: float = 0.2
    decay: float = 0.006

    def __post_init__(self):
        if self.eta0 <= 0.0:
            raise InvalidField("eta0", "eta0 must be positive")
        if self.decay < 0.0:
            raise InvalidField("decay", "decay must be >= 0")

    def rate(self, round_index: int) -> float:
        return self.eta0 / (self.decay * round_index + 1.0)


_SYNTHETIC = {"kinds": ("synthetic",)}
_IDX = {"kinds": ("idx",)}


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic Gaussian clusters or an IDX file pair per split."""

    kind: str = "synthetic"
    n: int = field(default=5000, metadata=_SYNTHETIC)
    dim: int = field(default=20, metadata=_SYNTHETIC)
    classes: int = field(default=10, metadata=_SYNTHETIC)
    separation: float = field(default=4.0, metadata=_SYNTHETIC)
    test_fraction: float = field(default=0.2, metadata=_SYNTHETIC)
    train_images: str | None = field(default=None, metadata=_IDX)
    train_labels: str | None = field(default=None, metadata=_IDX)
    test_images: str | None = field(default=None, metadata=_IDX)
    test_labels: str | None = field(default=None, metadata=_IDX)

    def __post_init__(self):
        if self.kind == "synthetic":
            for name, low in (("n", 1), ("dim", 1), ("classes", 2)):
                if getattr(self, name) < low:
                    raise InvalidField(name, f"synthetic dataset needs {name} >= {low}")
            if self.n < self.classes:
                raise InvalidField("n", f"synthetic dataset needs n >= classes ({self.classes})")
            if self.separation <= 0.0:
                raise InvalidField("separation", "separation must be positive")
            if not 0.0 < self.test_fraction < 1.0:
                raise InvalidField("test_fraction", "test_fraction must lie in (0, 1)")
            largest = int(datamod.class_counts(self.n, self.classes)[0])
            if datamod.class_share(self.test_fraction, largest) == 0:
                raise InvalidField(
                    "test_fraction",
                    f"test_fraction {self.test_fraction} of {largest} samples per class "
                    "rounds to an empty test split",
                )
        elif self.kind == "idx":
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                if getattr(self, name) is None:
                    raise InvalidField(name, f"idx dataset needs {name}")
        else:
            raise InvalidField("kind", f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class CleanSpec:
    """Clean-data regime: a server-held shard or a trusted client set."""

    kind: str
    fraction: float = field(default=0.02, metadata={"kinds": ("server",)})
    clients: tuple[int, ...] = field(default=(), metadata={"kinds": ("trusted",)})

    def __post_init__(self):
        if self.kind not in ("server", "trusted"):
            raise InvalidField("kind", f"unknown clean kind {self.kind!r}")
        if self.kind == "server" and not 0.0 < self.fraction < 1.0:
            raise InvalidField("fraction", "server shard fraction must lie in (0, 1)")
        if self.kind == "trusted" and not self.clients:
            raise InvalidField("clients", "trusted clean spec needs at least one client id")


@dataclass(frozen=True)
class MethodSpec:
    """An aggregation method: a bare baseline or the filter over a reference.

    filtered=False runs `base` directly. filtered=True scores uploads against
    a reference drawn from `reference`: "aggregator" (run `base` over all
    uploads), "server_clean" (gradient on the server shard), or "trusted"
    (average of trusted clients' uploads).
    """

    filtered: bool = False
    base: AggregatorSpec | None = None
    reference: str = "aggregator"

    def __post_init__(self):
        if self.reference not in ("aggregator", "server_clean", "trusted"):
            raise InvalidField("reference", f"unknown reference {self.reference!r}")
        if not self.filtered and self.base is None:
            raise InvalidField("base", "bare method needs a base aggregator")
        if not self.filtered and self.reference != "aggregator":
            raise InvalidField("reference", "a bare method builds no reference")
        if self.filtered and self.reference == "aggregator" and self.base is None:
            raise InvalidField("base", "filtered aggregator reference needs a base aggregator")
        if self.filtered and self.reference != "aggregator" and self.base is not None:
            raise InvalidField("base", f"a {self.reference} reference runs no base aggregator")

    @property
    def label(self) -> str:
        if not self.filtered:
            return self.base.label
        if self.reference == "aggregator":
            return f"H+{self.base.label}"
        return "H+Clean data" if self.reference == "server_clean" else "H+Trusted"

    @property
    def clean_kind(self) -> str | None:
        """The CleanSpec kind this method reads, or None.

        "server": the gradient on the server shard, which feeds FLTrust (bare
        or as the filter's aggregator reference) and the server_clean
        reference. "trusted": the trusted clients' uploads.
        """
        if self.filtered and self.reference != "aggregator":
            return {"server_clean": "server", "trusted": "trusted"}[self.reference]
        return "server" if self.base.kind == "fltrust" else None


@dataclass(frozen=True)
class TrainingProtocol:
    """What a sweep and every one of its cells share."""

    dataset: DatasetSpec = DatasetSpec()
    model: ModelSpec = ModelSpec()
    clients: int = 20
    batch_size: int = 32
    rounds: int = 100
    lr: LRSchedule = LRSchedule()
    clean: CleanSpec | None = None
    eval_interval: int = 1
    min_client_size: int | None = None

    def __post_init__(self):
        for name, low in (("clients", 1), ("batch_size", 1), ("rounds", 0), ("eval_interval", 1)):
            if getattr(self, name) < low:
                raise InvalidField(name, f"{name} must be >= {low}")
        if self.min_client_size is not None and self.min_client_size < 1:
            raise InvalidField("min_client_size", "min_client_size must be >= 1")
        if self.dataset.kind == "synthetic" and self.clients * self.min_size > self.partition_rows:
            raise InvalidField(
                "min_client_size",
                f"clients ({self.clients}) x min_client_size ({self.min_size}) exceeds the "
                f"{self.partition_rows} samples left to partition",
            )

    @property
    def min_size(self) -> int:
        """The fewest samples a client's partition holds: min_client_size, else 2 * batch_size."""
        return 2 * self.batch_size if self.min_client_size is None else self.min_client_size

    @property
    def partition_rows(self) -> int:
        """The samples a synthetic dataset's partition draws from: n minus the
        test split minus the server shard."""
        ds = self.dataset
        shard = self.clean.fraction if self.clean is not None and self.clean.kind == "server" else 0.0
        return datamod.partition_pool_size(ds.n, ds.classes, ds.test_fraction, shard)


@dataclass(frozen=True)
class RunConfig(TrainingProtocol):
    """Full declarative description of one training run.

    With `method` None it describes no run but the environment that the runs
    differing from it only in method share (see `environment`). It checks
    every rule that relates its fields, so a run fails only on what its drawn
    environment alone shows (an infeasible partition, say).
    """

    beta: float = 0.6
    requested_ratio: float = field(default=0.0, metadata={"key": "ratio"})
    attack: AttackSpec | None = None
    method: MethodSpec = MethodSpec(base=AggregatorSpec("mean"))
    filter_params: FilterParams = field(default=FilterParams(), metadata={"key": "hplus"})
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not self.beta > 0.0:
            raise InvalidField("beta", "beta must be positive")
        if not 0.0 <= self.requested_ratio < 1.0:
            raise InvalidField("requested_ratio", "requested_ratio must lie in [0, 1)")
        if self.requested_ratio > 0.0 and self.attack is None:
            raise InvalidField("attack", "requested_ratio > 0 needs an attack")
        if self.keep > self.clients:
            raise InvalidField("filter_params", f"N must be <= clients ({self.clients})")
        clean_kind = None if self.clean is None else self.clean.kind
        for i, client in enumerate(self.clean.clients if clean_kind == "trusted" else ()):
            if not 0 <= client < self.clients:
                raise InvalidField(f"clean.clients[{i}]", f"must lie in [0, {self.clients})")
        method = self.resolved_method
        if method is None:
            return
        if method.clean_kind not in (None, clean_kind):
            raise InvalidField("method", f"{method.label!r} needs clean.kind = {method.clean_kind}")
        if method.filtered and self.keep < 1:
            raise InvalidField("requested_ratio", f"{method.label} would keep N = {self.keep}")
        f = method.base.assumed_byzantine if method.base is not None else None
        if f is not None and method.base.kind == "krum" and self.clients < f + 3:
            raise InvalidField("method", f"krum needs clients >= f + 3 = {f + 3}")

    @property
    def attack_label(self) -> str:
        return self.attack.label if self.attack is not None else "None"

    @property
    def default_byzantine(self) -> int:
        """ceil(C * M): the compromised count that N and Krum's f assume unless set."""
        return ceil_ratio(self.requested_ratio, self.clients)

    @property
    def keep(self) -> int:
        """N, the clients the filter keeps per window: hplus.N, else M - ceil(C * M)."""
        return self.filter_params.keep or self.clients - self.default_byzantine

    @property
    def resolved_method(self) -> MethodSpec | None:
        """`method` with Krum's f set: as given, else ceil(C * M)."""
        base = None if self.method is None else self.method.base
        if base is None or base.kind != "krum" or base.assumed_byzantine is not None:
            return self.method
        return replace(self.method, base=replace(base, assumed_byzantine=self.default_byzantine))


@dataclass
class RoundRecord:
    """Everything observable about one round.

    `wall` holds seconds per phase, and the phases add up to within a few
    per cent of "total": "batches" (gathering the environment's pre-drawn
    batch rows), "gradients" (honest gradients and the upload matrix),
    "attack", "clean" (server-shard gradient), then "reference" and "filter"
    (the window draw and the whole `filter_and_aggregate` call, survivor
    average included) for a filtered method or "aggregate" for a bare one,
    "step", "eval".
    """

    round_index: int
    train_loss: float
    test_accuracy: Optional[float]
    selected: tuple[int, ...]
    filter_precision: float
    filter_recall: float
    aggregate_norm: float
    pass_segments: tuple[tuple[int, int], ...]
    wall: dict = field(default_factory=dict)

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    @property
    def empty_intersection(self) -> bool:
        """No client survived every window; a bare method selects every client."""
        return not self.selected

    @property
    def wall_ms(self) -> float:
        return 1000.0 * self.wall.get("total", 0.0)


@dataclass
class ExperimentResult:
    """A run's rounds and outcome.

    max_accuracy and final_accuracy are the best and the last evaluated
    round's test accuracy, None when no round was evaluated (zero rounds, or
    a divergence in round 0). `byzantine` is the compromised set the run drew.
    """

    records: list[RoundRecord]
    max_accuracy: float | None
    final_accuracy: float | None
    diverged: bool
    byzantine: ByzantineMask


@dataclass(frozen=True)
class Environment:
    """What a run draws before its method matters: data, split, clean shard,
    partition, compromised set and client batches.

    Every index is a row of `features` (and of `labels`): the partitions
    (`partitions[m]` holds client m's rows), the clean `shard` and the
    batches. `alpha[m]` is client m's share of the partitioned rows. The
    rows of the test split are in `features` too, but no index names them;
    `test` holds them gathered, its (n_test, d) features the transpose view
    of a C-contiguous (d, n_test) array, the layout evaluation scores
    fastest. Gathering them per evaluation instead would cost more than the
    evaluation itself.

    `batches[t]` holds round t's honest batch rows, in `honest` order, as
    index stacks for one gradient call each: one (H, B) stack when every
    honest client draws B = min(batch_size, partition size) rows of the
    same size, else one (1, b_m) stack per client (a ragged environment;
    partition sizes are fixed, so every round is ragged or none is). They
    take rounds x H x B x 8 bytes.

    Every array is read-only, because one environment serves every run that
    differs from it only in method (see `environment`).
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    test: datamod.LabeledDataset
    shard: np.ndarray | None
    trusted: tuple[int, ...]
    partitions: tuple[np.ndarray, ...]
    alpha: np.ndarray
    mask: ByzantineMask
    honest: tuple[int, ...]
    batches: tuple[tuple[np.ndarray, ...], ...]


def _read_only(*arrays: np.ndarray | None):
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


def build_environment(config: RunConfig) -> Environment:
    """Draw `config`'s environment. It must not, and cannot, read the method:
    `environment` passes the config with `method` blanked."""
    seed = config.seed
    m_clients = config.clients

    if config.dataset.kind == "synthetic":
        data, order = datamod.synth_classification(
            config.dataset.n,
            config.dataset.dim,
            config.dataset.classes,
            config.dataset.separation,
            substream(seed, "data"),
        )
        train_idx, test_idx = datamod.stratified_holdout(
            data.labels[order], data.n_classes, config.dataset.test_fraction,
            substream(seed, "split"),
        )
        # Position i of the shuffled data set is row order[i] of `data`, so
        # the train split is rows[i] and the test split is gathered directly.
        rows = order[train_idx]
        test = datamod.take(data, order[test_idx])
    else:
        data = datamod.load_idx(config.dataset.train_images, config.dataset.train_labels)
        test = datamod.load_idx(config.dataset.test_images, config.dataset.test_labels)
        if test.n_classes > data.n_classes:
            raise ConfigError("dataset", "test split contains unseen classes")
        test = datamod.take(test, np.arange(test.n))  # feature-major, as in the synthetic branch
        rows = np.arange(data.n)

    # The shard and the partition are drawn over train positions, as in the
    # shuffled train split, and then mapped to rows of `data`.
    train_labels = data.labels[rows]
    shard: np.ndarray | None = None
    trusted: tuple[int, ...] = ()
    if config.clean is not None:
        if config.clean.kind == "server":
            shard = datamod.carve_clean_shard(
                train_labels, data.n_classes, config.clean.fraction, substream(seed, "shard")
            )
        else:
            trusted = tuple(sorted(set(config.clean.clients)))

    partitions = tuple(
        rows[part]
        for part in datamod.dirichlet_partition(
            train_labels, data.n_classes, m_clients, config.beta, config.min_size,
            substream(seed, "partition"), exclude=shard,
        )
    )
    if shard is not None:
        shard = rows[shard]
    sizes = np.array([part.size for part in partitions], dtype=np.float64)
    alpha = sizes / sizes.sum()
    shard_size = 0 if shard is None else shard.size
    selection_weights = sizes / (sizes.sum() + shard_size)

    mask = select_byzantine_set(
        selection_weights,
        config.requested_ratio,
        substream(seed, "byzantine"),
        exclude=frozenset(trusted),
    )
    honest = tuple(m for m in range(m_clients) if m not in mask.members)
    if config.attack is not None and not honest:
        raise InsufficientClients("attack requires at least one honest client")

    # Drawn here, once per environment, so every method trains on the same
    # batches without drawing them again. `choice` picks positions from the
    # length of the partition alone, so drawing from its rows gives the rows
    # of the positions a train-local partition would give.
    batch_sizes = [min(config.batch_size, partitions[m].size) for m in honest]
    ragged = len(set(batch_sizes)) > 1
    batches = []
    for t in range(config.rounds):
        drawn = [
            substream(seed, "batch", t, m).choice(partitions[m], size=size, replace=False)
            for m, size in zip(honest, batch_sizes)
        ]
        batches.append(tuple(batch[None] for batch in drawn) if ragged else (np.stack(drawn),))

    _read_only(data.features, data.labels, test.features, test.labels, shard, alpha)
    _read_only(*partitions)
    _read_only(*(stack for stacks in batches for stack in stacks))
    return Environment(
        data.features, data.labels, data.n_classes, test, shard, trusted, partitions,
        alpha, mask, honest, tuple(batches),
    )


def environment_key(config: RunConfig) -> RunConfig:
    """What `config`'s environment depends on: the whole config with `method`
    blanked, so runs that differ only in method share one environment, and
    every other field, one added later included, keys it."""
    return replace(config, method=None)


# The one environment this process holds: (its key, the environment).
_cached: tuple[RunConfig, Environment] | None = None


def environment(config: RunConfig) -> Environment:
    """`config`'s environment, from a one-entry cache per process, keyed by
    `environment_key`.

    The old entry is dropped before the new one is built, so a process never
    holds two datasets. IDX files are read once per key.
    """
    global _cached
    key = environment_key(config)
    if _cached is None or _cached[0] != key:
        _cached = None
        _cached = (key, build_environment(key))
    return _cached[1]


class Simulation:
    """Materialized state for one run of `run_to_result`."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.env = env = environment(config)
        self.model = build_model(config.model, env.features.shape[1], env.n_classes)
        self.params = self.model.init_params(substream(config.seed, "init"))
        self.prev_aggregate = np.zeros(self.model.n_params)

        self.method = config.resolved_method
        self.attack = self._resolve_attack(config.attack)
        filtered = self.method.filtered
        self.filter_params = replace(config.filter_params, keep=config.keep) if filtered else None
        # Where the honest gradients go in the upload matrix, and the weights
        # of their losses in the round's train loss.
        self.honest_rows = np.array(env.honest, dtype=np.intp)
        honest_alpha = env.alpha[self.honest_rows]
        self.honest_weights = honest_alpha / honest_alpha.sum()

    @property
    def mask(self) -> ByzantineMask:
        """The environment's compromised set, as `tests/test_acceptance.py` reads it."""
        return self.env.mask

    def _resolve_attack(self, attack: AttackSpec | None) -> AttackSpec | None:
        if attack is None or attack.kind != "foe" or attack.foe_scale is not None:
            return attack
        base = self.method.base
        victim_is_correntropy = base is not None and base.kind == "mca"
        honest = self.config.clients - self.env.mask.count
        scale = -3.0 * honest if victim_is_correntropy else -0.1
        return replace(attack, foe_scale=scale)

    # ------------------------------------------------------------------ round

    def _clean_gradient(self, round_index: int) -> np.ndarray:
        env = self.env
        rng = substream(self.config.seed, "server_batch", round_index)
        size = min(self.config.batch_size, env.shard.size)
        batch = rng.choice(env.shard, size=size, replace=False)
        _, grad = self.model.loss_and_gradient(self.params, env.features[batch], env.labels[batch])
        return grad

    def run_round(self, round_index: int) -> RoundRecord:
        cfg, env = self.config, self.env
        t_start = time.perf_counter()
        wall: dict[str, float] = {}

        # `take` gathers the batch rows in about half the time indexing takes.
        features, labels = env.features, env.labels
        inputs = [(features.take(idx, axis=0), labels[idx]) for idx in env.batches[round_index]]
        wall["batches"] = time.perf_counter() - t_start

        t_mark = time.perf_counter()
        results = [self.model.loss_and_gradient(self.params, x, y) for x, y in inputs]
        losses, honest_stack = (np.concatenate(parts) for parts in zip(*results))
        uploads = np.empty((cfg.clients, self.model.n_params))
        uploads[self.honest_rows] = honest_stack
        train_loss = float(self.honest_weights @ losses)
        wall["gradients"] = time.perf_counter() - t_mark

        t_mark = time.perf_counter()
        if self.attack is not None and env.mask.count:
            payloads = byzantine_payloads(
                self.attack,
                honest_stack,
                env.mask.members,
                cfg.clients,
                lambda m: substream(cfg.seed, "attack", round_index, m),
            )
            uploads[list(payloads)] = list(payloads.values())
        if not np.isfinite(uploads).all():
            raise DivergenceDetected(f"non-finite client upload in round {round_index}")
        wall["attack"] = time.perf_counter() - t_mark

        clean_grad = None
        if self.method.clean_kind == "server":
            t_mark = time.perf_counter()
            clean_grad = self._clean_gradient(round_index)
            wall["clean"] = time.perf_counter() - t_mark

        if self.method.filtered:
            t_mark = time.perf_counter()
            reference = build_reference(
                self.method.reference,
                self.method.base,
                env.alpha,
                uploads,
                trusted=env.trusted,
                clean_gradient=clean_grad,
                center=self.prev_aggregate,
            )
            wall["reference"] = time.perf_counter() - t_mark
            t_mark = time.perf_counter()
            result = filter_and_aggregate(
                reference,
                uploads,
                env.alpha,
                self.filter_params,
                substream(cfg.seed, "segments", round_index),
            )
            wall["filter"] = time.perf_counter() - t_mark
            agg, selected, windows = result.aggregate, result.selected, result.windows
        else:
            t_mark = time.perf_counter()
            agg = aggregate(
                self.method.base,
                env.alpha,
                uploads,
                center=self.prev_aggregate,
                reference=clean_grad,
            )
            selected = tuple(range(cfg.clients))
            windows = ()
            wall["aggregate"] = time.perf_counter() - t_mark

        honest_selected = sum(1 for m in selected if m not in env.mask.members)
        precision = honest_selected / len(selected) if selected else 1.0
        recall = honest_selected / len(env.honest)

        t_mark = time.perf_counter()
        self.params = self.params - cfg.lr.rate(round_index) * agg
        self.prev_aggregate = agg
        if not np.isfinite(self.params).all():
            raise DivergenceDetected(f"parameters diverged in round {round_index}")
        wall["step"] = time.perf_counter() - t_mark

        test_accuracy = None
        if (round_index + 1) % cfg.eval_interval == 0 or round_index == cfg.rounds - 1:
            t_mark = time.perf_counter()
            test_accuracy = self.model.accuracy(self.params, env.test.features, env.test.labels)
            wall["eval"] = time.perf_counter() - t_mark

        wall["total"] = time.perf_counter() - t_start
        return RoundRecord(
            round_index=round_index,
            train_loss=train_loss,
            test_accuracy=test_accuracy,
            selected=selected,
            filter_precision=precision,
            filter_recall=recall,
            aggregate_norm=float(np.linalg.norm(agg)),
            pass_segments=windows,
            wall=wall,
        )


def run_to_result(config: RunConfig) -> ExperimentResult:
    """Run all rounds; on divergence, return the rounds finished with diverged=True."""
    sim = Simulation(config)
    records: list[RoundRecord] = []
    diverged = False
    try:
        for t in range(config.rounds):
            records.append(sim.run_round(t))
    except DivergenceDetected:
        diverged = True
    accs = [r.test_accuracy for r in records if r.test_accuracy is not None]
    return ExperimentResult(
        records=records,
        max_accuracy=max(accs) if accs else None,
        final_accuracy=accs[-1] if accs else None,
        diverged=diverged,
        byzantine=sim.env.mask,
    )
