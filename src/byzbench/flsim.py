"""Single-machine federated training simulator.

Each round: honest clients compute one minibatch gradient at the current
parameters, compromised clients substitute attack payloads, the server builds
its aggregate (optionally through the segment filter) and takes one SGD step.
Every random draw comes from a keyed substream of the run seed, so reruns are
bitwise identical and independent of execution order.

Ground truth about which clients are compromised lives only in this module
and the records it emits; aggregation and filtering code never sees it.

The setup draws come in two levels. The data level (`ClientData`: data,
split, clean shard, partition, and each client's batch indices for every
round) depends on neither the method, the attack nor the ratio
(`RunConfig.data_key`). An `Environment` adds what the attack and ratio
decide: the compromised set, and the honest clients' batches gathered from
the data level. Each process keeps the last environment it built, and with
it one data level, so consecutive runs in one process that differ only in
method build the environment once, and runs on the same data (a sweep's
control and attacked rows of one seed) build the data and draw each
client's batches once; a parallel sweep hands each environment's runs to
one worker, apart from the sweep's tail (see `harness.sweep`). A run's
result does not depend on which runs came before it: every draw is keyed
by (seed, purpose, round, client) and never by what was drawn before.

A data level holds one feature matrix, generated once and never copied,
and every index it holds (partitions, clean shard, batches) is a row of that
matrix. The data shuffle is not applied to the features but composed into
the indices, and only the test split is gathered into an array of its own,
feature-major for evaluation (see `data.take`), so a build peaks at about
1.5x the matrix's bytes, never at two copies of the data set. The batches
cost rounds x H x batch_size x 8 bytes of indices (H honest clients), never
the gathered features: about 0.5 MB for 100 rounds of 20 clients at B = 32,
once in the data level and once stacked in the environment.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import data as datamod
from .aggregators import aggregate
from .attacks import byzantine_payloads
from .core import ByzantineMask, select_byzantine_set, substream
from .errors import ConfigError, DivergenceDetected, InsufficientClients
from .filtering import build_reference, filter_and_aggregate
from .models import build_model

# CleanSpec and MethodSpec are unused here: tests/test_acceptance.py reads them.
from .specs import CleanSpec, MethodSpec, RunConfig


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
class ClientData:
    """What a run draws before its method, attack and ratio matter: data,
    split, clean shard, partition and client batches. Every environment of
    one `RunConfig.data_key` shares it (see `environment`).

    Every index is a row of `features` (and of `labels`): the partitions
    (`partitions[m]` holds client m's rows), the clean `shard` and the
    batches. `alpha[m]` is client m's share of the partitioned rows. The
    rows of the test split are in `features` too, but no index names them;
    `test` holds them gathered, its (n_test, d) features the transpose view
    of a C-contiguous (d, n_test) array, the layout evaluation scores
    fastest. Gathering them per evaluation instead would cost more than the
    evaluation itself.

    `draws[m]` holds client m's batch rows, one row per round, drawn the
    first time an environment needs m as honest (`client_batches`). Every
    array is read-only, because one data level serves many runs.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    test: datamod.LabeledDataset
    shard: np.ndarray | None
    trusted: tuple[int, ...]
    partitions: tuple[np.ndarray, ...]
    alpha: np.ndarray
    draws: dict[int, np.ndarray]

    def client_batches(self, config: RunConfig, client: int) -> np.ndarray:
        """Client `client`'s (rounds, min(batch_size, partition size)) batch
        rows. `choice` picks positions from the length of the partition
        alone, so drawing from its rows gives the rows of the positions a
        train-local partition would give."""
        if client not in self.draws:
            part = self.partitions[client]
            rows = np.empty((config.rounds, min(config.batch_size, part.size)), dtype=part.dtype)
            for t in range(config.rounds):
                rng = substream(config.seed, "batch", t, client)
                rows[t] = rng.choice(part, size=rows.shape[1], replace=False)
            _read_only(rows)
            self.draws[client] = rows
        return self.draws[client]


@dataclass(frozen=True)
class Environment(ClientData):
    """What a run draws before its method matters: its data level, plus the
    compromised set `mask`, the `honest` clients and their batches.

    `batches[t]` holds round t's honest batch rows, in `honest` order, as
    index stacks for one gradient call each: one (H, B) stack when every
    honest client draws B = min(batch_size, partition size) rows of the
    same size, else one (1, b_m) stack per client (a ragged environment;
    partition sizes are fixed, so every round is ragged or none is). They
    take rounds x H x B x 8 bytes, on top of the data level's draws.

    Every array is read-only, because one environment serves every run that
    differs from it only in method (see `environment`).
    """

    mask: ByzantineMask
    honest: tuple[int, ...]
    batches: tuple[tuple[np.ndarray, ...], ...]


def _read_only(*arrays: np.ndarray | None):
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


def build_client_data(config: RunConfig) -> ClientData:
    """Draw `config`'s data level. It must not, and cannot, read the method,
    attack or ratio: `build_environment` passes `config.data_key`."""
    seed = config.seed

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
            train_labels, data.n_classes, config.clients, config.beta, config.min_size,
            substream(seed, "partition"), exclude=shard,
        )
    )
    if shard is not None:
        shard = rows[shard]
    sizes = np.array([part.size for part in partitions], dtype=np.float64)
    alpha = sizes / sizes.sum()

    _read_only(data.features, data.labels, test.features, test.labels, shard, alpha)
    _read_only(*partitions)
    return ClientData(
        data.features, data.labels, data.n_classes, test, shard, trusted, partitions, alpha, {}
    )


def build_environment(config: RunConfig) -> Environment:
    """Draw `config`'s environment. It must not, and cannot, read the method:
    `environment` passes the config with `method` blanked.

    It draws its own data level (`build_client_data`), unless the
    environment this process holds (`environment`) has the same data key;
    then it shares that one's data level, batch draws included. The draws
    are keyed as before, so either way the environment is the same.
    """
    if _cached is not None and _cached[0].data_key == config.data_key:
        data: ClientData = _cached[1]
    else:
        data = build_client_data(config.data_key)
    shared = {f.name: getattr(data, f.name) for f in fields(ClientData)}

    sizes = np.array([part.size for part in data.partitions], dtype=np.float64)
    shard_size = 0 if data.shard is None else data.shard.size
    mask = select_byzantine_set(
        sizes / (sizes.sum() + shard_size),
        config.requested_ratio,
        substream(config.seed, "byzantine"),
        exclude=frozenset(data.trusted),
    )
    honest = tuple(m for m in range(config.clients) if m not in mask.members)
    if config.attack is not None and not honest:
        raise InsufficientClients("attack requires at least one honest client")

    # Gathered here, once per environment, so every method trains on the
    # same batches without gathering them again.
    drawn = [data.client_batches(config, m) for m in honest]
    if len({rows.shape[1] for rows in drawn}) > 1:  # ragged
        batches = tuple(tuple(rows[t : t + 1] for rows in drawn) for t in range(config.rounds))
    else:
        stack = np.stack(drawn, axis=1)
        _read_only(stack)
        batches = tuple((stack[t],) for t in range(config.rounds))
    return Environment(**shared, mask=mask, honest=honest, batches=batches)


# The one environment this process holds, and through it the one data level:
# (its key, the environment).
_cached: tuple[RunConfig, Environment] | None = None


def environment(config: RunConfig) -> Environment:
    """`config`'s environment, from a one-entry cache per process, keyed by
    `RunConfig.environment_key`.

    A new environment on the held one's data (`RunConfig.data_key`) shares
    its data level. On new data, the old entry, data level included, is
    dropped before the new one is built, so a process never holds two data
    sets. IDX files are read once per data key.
    """
    global _cached
    key = config.environment_key
    if _cached is None or _cached[0] != key:
        if _cached is not None and _cached[0].data_key != key.data_key:
            _cached = None
        _cached = (key, build_environment(key))
    return _cached[1]


# glibc's mallopt parameters, and the size from which an allocation gets its own mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_OWN_MAPPING_BYTES = 4 << 20


def pin_heap_thresholds() -> None:
    """Serve allocations below 4 MB from the heap, and give larger ones their
    own mapping (glibc only, process-wide; elsewhere it does nothing). Every
    `Simulation` calls it first, so rounds allocate alike in a sweep, a
    library call or a test.

    glibc's mmap threshold starts at 128 KB and rises only when a mapped
    block is freed, so unpinned, a round's arrays of about 1 MB (an mlp1
    gradient stack, say) may be mapped, faulted in and unmapped on every
    call. Pinned, they reuse heap pages: wide-model sweeps (mlp1, p = 7,818,
    108 cells) took 3.86-4.79 s with the pin and 5.28-6.62 s without it, in 6
    of 6 interleaved runs on 2 vCPUs, while setup-heavy's peak RSS was the
    same either way (56.3-56.7 MB over 6 seeds). The trim threshold keeps
    glibc's own ratio of twice the mmap threshold.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _OWN_MAPPING_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _OWN_MAPPING_BYTES)


class Simulation:
    """Materialized state for one run of `run_to_result`. Building one pins
    the heap first (`pin_heap_thresholds`), whoever builds it."""

    def __init__(self, config: RunConfig):
        pin_heap_thresholds()
        self.config = config
        self.env = env = environment(config)
        self.model = build_model(config.model, env.features.shape[1], env.n_classes)
        self.params = self.model.init_params(substream(config.seed, "init"))
        self.prev_aggregate = np.zeros(self.model.n_params)

        self.method = config.resolved_method
        self.filter_params = config.resolved_filter_params
        # Where the honest gradients go in the upload matrix, and the weights
        # of their losses in the round's train loss.
        self.honest_rows = np.array(env.honest, dtype=np.intp)
        honest_alpha = env.alpha[self.honest_rows]
        self.honest_weights = honest_alpha / honest_alpha.sum()

    @property
    def mask(self) -> ByzantineMask:
        """The environment's compromised set, as `tests/test_acceptance.py` reads it."""
        return self.env.mask

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
        if cfg.attack is not None and env.mask.count:
            payloads = byzantine_payloads(
                cfg.attack,
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
