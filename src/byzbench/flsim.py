"""Single-machine federated training simulator.

Each round: honest clients compute one minibatch gradient at the current
parameters, compromised clients substitute attack payloads, the server builds
its aggregate (optionally through the segment filter) and takes one SGD step.
Every random draw comes from a keyed substream of the run seed, so reruns are
bitwise identical and independent of execution order.

Ground truth about which clients are compromised lives only in this module
and the records it emits; aggregation and filtering code never sees it.

The setup draws that do not depend on the method (data, split, clean shard,
partition, compromised set) form an `Environment`. Each process keeps the
last one it built, so consecutive runs that differ only in method build it
once; a run's result does not depend on which runs came before it.
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
    InvalidSelectionSize,
    MissingReference,
)
from .filtering import FilterParams, FilterResult, build_reference, filter_and_aggregate
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
            if self.separation <= 0.0:
                raise InvalidField("separation", "separation must be positive")
            if not 0.0 < self.test_fraction < 1.0:
                raise InvalidField("test_fraction", "test_fraction must lie in (0, 1)")
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
        if self.filtered and self.reference == "aggregator" and self.base is None:
            raise InvalidField("base", "filtered aggregator reference needs a base aggregator")

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


@dataclass(frozen=True)
class RunConfig(TrainingProtocol):
    """Full declarative description of one training run.

    With `method` None it describes no run but the environment that the runs
    differing from it only in method share (see `environment`).
    """

    beta: float = 0.6
    requested_ratio: float = field(default=0.0, metadata={"key": "ratio"})
    attack: AttackSpec | None = None
    method: MethodSpec = MethodSpec(base=AggregatorSpec("mean"))
    filter_params: FilterParams = field(default=FilterParams(), metadata={"key": "hplus"})
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.beta <= 0.0:
            raise InvalidField("beta", "beta must be positive")
        if not 0.0 <= self.requested_ratio < 1.0:
            raise InvalidField("requested_ratio", "requested_ratio must lie in [0, 1)")
        if self.requested_ratio > 0.0 and self.attack is None:
            raise InvalidField("attack", "requested_ratio > 0 needs an attack")

    @property
    def attack_label(self) -> str:
        return self.attack.label if self.attack is not None else "None"


@dataclass
class RoundRecord:
    """Everything observable about one round."""

    round_index: int
    train_loss: float
    test_accuracy: Optional[float]
    selected: tuple[int, ...]
    empty_intersection: bool
    filter_precision: float
    filter_recall: float
    realized_ratio: float
    aggregate_norm: float
    pass_segments: tuple[tuple[int, int], ...]
    wall: dict = field(default_factory=dict)

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    @property
    def wall_ms(self) -> float:
        return 1000.0 * self.wall.get("total", 0.0)


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    initial_accuracy: float
    max_accuracy: float
    final_accuracy: float
    diverged: bool
    byzantine: ByzantineMask
    keep: int | None  # clients the filter keeps per window; None for a bare method
    method_label: str
    attack_label: str


@dataclass(frozen=True)
class Environment:
    """What a run draws before its method matters: data, split, clean shard,
    partition and compromised set.

    Every array is read-only, because one environment serves every run that
    differs from it only in method (see `environment`).
    """

    train: datamod.LabeledDataset
    test: datamod.LabeledDataset
    shard: np.ndarray | None
    trusted: tuple[int, ...]
    partitions: tuple[datamod.ClientPartition, ...]
    alpha: np.ndarray
    mask: ByzantineMask
    honest: tuple[int, ...]


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
        full = datamod.synth_classification(
            config.dataset.n,
            config.dataset.dim,
            config.dataset.classes,
            config.dataset.separation,
            substream(seed, "data"),
        )
        train_idx, test_idx = datamod.stratified_holdout(
            full, config.dataset.test_fraction, substream(seed, "split")
        )
        train = datamod.take(full, train_idx)
        test = datamod.take(full, test_idx)
        del full
    else:
        train = datamod.load_idx(config.dataset.train_images, config.dataset.train_labels)
        test = datamod.load_idx(config.dataset.test_images, config.dataset.test_labels)
        if test.n_classes > train.n_classes:
            raise ConfigError("dataset", "test split contains unseen classes")

    shard: np.ndarray | None = None
    trusted: tuple[int, ...] = ()
    if config.clean is not None:
        if config.clean.kind == "server":
            shard = datamod.carve_clean_shard(
                train, config.clean.fraction, substream(seed, "shard")
            )
        else:
            trusted = tuple(sorted(set(config.clean.clients)))
            if any(c < 0 or c >= m_clients for c in trusted):
                raise ConfigError("clean.clients", f"ids must lie in [0, {m_clients})")

    min_size = config.min_client_size
    if min_size is None:
        min_size = 2 * config.batch_size
    partitions = tuple(
        datamod.dirichlet_partition(
            train, m_clients, config.beta, min_size, substream(seed, "partition"), exclude=shard
        )
    )
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

    _read_only(train.features, train.labels, test.features, test.labels, shard, alpha)
    _read_only(*(part.indices for part in partitions))
    return Environment(train, test, shard, trusted, partitions, alpha, mask, honest)


# The one environment this process holds: (its key, the environment).
_cached: tuple[RunConfig, Environment] | None = None


def environment(config: RunConfig) -> Environment:
    """`config`'s environment, from a one-entry cache per process.

    The key is the whole config with `method` blanked, so runs that differ only
    in method share one environment, and every other field, one added later
    included, keys it. The old entry is dropped before the new one is built,
    so a process never holds two datasets. IDX files are read once per key.
    """
    global _cached
    key = replace(config, method=None)
    if _cached is None or _cached[0] != key:
        _cached = None
        _cached = (key, build_environment(key))
    return _cached[1]


class Simulation:
    """Materialized state for one run of `run_to_result`."""

    def __init__(self, config: RunConfig):
        self.config = config
        env = environment(config)
        self.train, self.test, self.shard = env.train, env.test, env.shard
        self.trusted, self.partitions, self.alpha = env.trusted, env.partitions, env.alpha
        self.mask, self.honest = env.mask, env.honest

        self.model = build_model(config.model, self.train.dim, self.train.n_classes)
        self.params = self.model.init_params(substream(config.seed, "init"))
        self.prev_aggregate = np.zeros(self.model.n_params)

        self.method = self._resolve_method(config.method)
        self.attack = self._resolve_attack(config.attack)
        self.filter_params = self._resolve_filter(config.filter_params)
        needed = self.method.clean_kind
        if needed is not None and (config.clean is None or config.clean.kind != needed):
            raise MissingReference(f"{self.method.label} needs clean.kind = {needed}")

    def _resolve_method(self, method: MethodSpec) -> MethodSpec:
        base = method.base
        if base is None or base.kind != "krum":
            return method
        if base.assumed_byzantine is None:
            f = ceil_ratio(self.config.requested_ratio, self.config.clients)
            base = replace(base, assumed_byzantine=f)
        if self.config.clients < base.assumed_byzantine + 3:
            raise InsufficientClients(
                f"krum needs clients >= f + 3 = {base.assumed_byzantine + 3}, got {self.config.clients}"
            )
        return replace(method, base=base)

    def _resolve_attack(self, attack: AttackSpec | None) -> AttackSpec | None:
        if attack is None or attack.kind != "foe" or attack.foe_scale is not None:
            return attack
        base = self.method.base
        victim_is_correntropy = base is not None and base.kind == "mca"
        scale = -3.0 * (self.config.clients - self.mask.count) if victim_is_correntropy else -0.1
        return replace(attack, foe_scale=scale)

    def _resolve_filter(self, params: FilterParams) -> FilterParams:
        keep = params.keep
        if keep is None:
            keep = self.config.clients - ceil_ratio(self.config.requested_ratio, self.config.clients)
        if not 1 <= keep <= self.config.clients:
            raise InvalidSelectionSize(f"keep={keep} outside [1, {self.config.clients}]")
        return replace(params, keep=keep)

    # ------------------------------------------------------------------ round

    def _client_batch(self, round_index: int, client: int) -> np.ndarray:
        part = self.partitions[client]
        rng = substream(self.config.seed, "batch", round_index, client)
        size = min(self.config.batch_size, part.size)
        return rng.choice(part.indices, size=size, replace=False)

    def _clean_gradient(self, round_index: int) -> np.ndarray:
        rng = substream(self.config.seed, "server_batch", round_index)
        size = min(self.config.batch_size, self.shard.size)
        batch = rng.choice(self.shard, size=size, replace=False)
        _, grad = self.model.loss_and_gradient(
            self.params, self.train.features[batch], self.train.labels[batch]
        )
        return grad

    def run_round(self, round_index: int) -> RoundRecord:
        cfg = self.config
        t_start = time.perf_counter()
        wall: dict[str, float] = {}

        batches = [self._client_batch(round_index, m) for m in self.honest]
        # Equal batches make one (H, B) stack and one gradient call. A
        # partition smaller than batch_size gives a ragged round: one stack
        # of one batch, and one call, per client.
        if len({batch.size for batch in batches}) == 1:
            stacks = [np.stack(batches)]
        else:
            stacks = [batch[None] for batch in batches]
        inputs = [(self.train.features[idx], self.train.labels[idx]) for idx in stacks]
        wall["batches"] = time.perf_counter() - t_start

        t_mark = time.perf_counter()
        results = [self.model.loss_and_gradient(self.params, x, y) for x, y in inputs]
        losses = np.concatenate([loss for loss, _ in results])
        honest_stack = np.concatenate([grad for _, grad in results])
        wall["gradients"] = time.perf_counter() - t_mark

        uploads = np.empty((cfg.clients, self.model.n_params))
        uploads[list(self.honest)] = honest_stack
        honest_alpha = self.alpha[list(self.honest)]
        train_loss = float((honest_alpha / honest_alpha.sum()) @ losses)

        t_mark = time.perf_counter()
        if self.attack is not None and self.mask.count:
            payloads = byzantine_payloads(
                self.attack,
                honest_stack,
                self.mask.members,
                cfg.clients,
                lambda m: substream(cfg.seed, "attack", round_index, m),
            )
            for m, payload in payloads.items():
                uploads[m] = payload
        if not np.isfinite(uploads).all():
            raise DivergenceDetected(f"non-finite client upload in round {round_index}")
        wall["attack"] = time.perf_counter() - t_mark

        clean_grad = None
        if self.method.clean_kind == "server":
            t_mark = time.perf_counter()
            clean_grad = self._clean_gradient(round_index)
            wall["clean"] = time.perf_counter() - t_mark

        selected: tuple[int, ...]
        if self.method.filtered:
            t_mark = time.perf_counter()
            reference = build_reference(
                self.method.reference,
                self.method.base,
                self.alpha,
                uploads,
                trusted=self.trusted,
                clean_gradient=clean_grad,
                center=self.prev_aggregate,
            )
            wall["reference"] = time.perf_counter() - t_mark
            result: FilterResult = filter_and_aggregate(
                reference,
                uploads,
                self.alpha,
                self.filter_params,
                substream(cfg.seed, "segments", round_index),
            )
            agg = result.aggregate
            selected = tuple(sorted(result.selected))
            empty_intersection = result.empty_intersection
            segments = tuple((p.segment.start, p.segment.length) for p in result.passes)
            wall["filter"] = result.select_seconds
        else:
            t_mark = time.perf_counter()
            agg = aggregate(
                self.method.base,
                self.alpha,
                uploads,
                center=self.prev_aggregate,
                reference=clean_grad,
            )
            selected = tuple(range(cfg.clients))
            empty_intersection = False
            segments = ()
            wall["aggregate"] = time.perf_counter() - t_mark

        honest_selected = sum(1 for m in selected if m not in self.mask.members)
        precision = honest_selected / len(selected) if selected else 1.0
        recall = honest_selected / len(self.honest)

        t_mark = time.perf_counter()
        self.params = self.params - cfg.lr.rate(round_index) * agg
        self.prev_aggregate = agg
        if not np.isfinite(self.params).all():
            raise DivergenceDetected(f"parameters diverged in round {round_index}")
        wall["step"] = time.perf_counter() - t_mark

        test_accuracy = None
        if (round_index + 1) % cfg.eval_interval == 0 or round_index == cfg.rounds - 1:
            t_mark = time.perf_counter()
            test_accuracy = self.model.accuracy(self.params, self.test.features, self.test.labels)
            wall["eval"] = time.perf_counter() - t_mark

        wall["total"] = time.perf_counter() - t_start
        return RoundRecord(
            round_index=round_index,
            train_loss=train_loss,
            test_accuracy=test_accuracy,
            selected=selected,
            empty_intersection=empty_intersection,
            filter_precision=precision,
            filter_recall=recall,
            realized_ratio=self.mask.realized_ratio,
            aggregate_norm=float(np.linalg.norm(agg)),
            pass_segments=segments,
            wall=wall,
        )


def run_to_result(config: RunConfig) -> ExperimentResult:
    """Run all rounds; on divergence, return the rounds finished with diverged=True."""
    sim = Simulation(config)
    initial = sim.model.accuracy(sim.params, sim.test.features, sim.test.labels)
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
        initial_accuracy=initial,
        max_accuracy=max([initial, *accs]),
        final_accuracy=accs[-1] if accs else initial,
        diverged=diverged,
        byzantine=sim.mask,
        keep=sim.filter_params.keep if config.method.filtered else None,
        method_label=config.method.label,
        attack_label=config.attack_label,
    )
