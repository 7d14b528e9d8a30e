"""Single-machine federated training simulator.

Each round: honest clients compute one minibatch gradient at the current
parameters, compromised clients substitute attack payloads, the server builds
its aggregate (`server_step`, optionally through the filter) and takes one SGD step.
Every random draw comes from a keyed substream of the run seed, so reruns are
bitwise identical and independent of execution order.

A round holds one (M, p) upload matrix. The honest (H, p) gradient stack
comes from one `loss_and_gradient` call (one per client, then concatenated,
when batch sizes differ), is copied into the uploads, and is dropped once
the attack has read it, so the server's rule runs beside the uploads alone.

Ground truth about which clients are compromised lives only in this module
and the records it emits; aggregation and filtering code never sees it.

A run's setup draws come in two parts. The data level (`ClientData`: data,
split, clean shard, partition, and every client's and the server's batch
indices for every round) is built from the run's `DrawKey` alone. Each
process keeps the last data level it built, so the runs of one draw key in
one process (a sweep's control and attacked rows of one seed, every method)
build the data and draw the batches once; a parallel sweep hands each draw
key's runs to one worker, apart from the sweep's tail (see `harness.sweep`).
On top of it each `Simulation` draws what its attack and ratio decide: the
compromised set, and the honest clients' batches gathered from the data
level. A run's result does not depend on which runs came before it: every
draw is keyed by (seed, purpose, round, client) and never by what was drawn
before.

A data level holds the features a run reads, not the data set. Its build
first draws, from the labels alone, all that picks samples: shuffle, split,
shard, partition, and every round's batches from one stream per client and
one for the server shard. Then it makes features, in one synthetic pass or
converting only the IDX images it needs: the samples some batch reads, as
one row-major matrix that every batch index points into, and the test
split, feature-major for evaluation (see `data.take`). So a data level grows
with rounds x clients x batch size and the test split, not with n: a
10-round build at n = 40,000, d = 50 peaks at 0.51x the n x d matrix and
holds 0.38x of it. The batch indices cost rounds x clients x batch_size x 8
bytes: about 0.5 MB for 100 rounds of 20 clients at B = 32, once in the
data level and once stacked in the run.

A `Simulation` only trains: its `run_round` returns every record with
`test_accuracy` None. `run_to_result` scores the evaluated rounds. It holds
their parameters and scores the held rounds, from one `accuracy` call on
their stack, whenever `_eval_block(model)` of them are held (a number the
model alone decides), and once more after the last round or a divergence.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import data as datamod
from .aggregators import aggregate
from .attacks import byzantine_payloads
from .core import ByzantineMask, select_byzantine_set, substream
from .errors import ConfigError, DivergenceDetected, InsufficientClients
from .filtering import FilterResult, build_reference, filter_and_aggregate
from .models import build_model

# CleanSpec is unused here: tests/test_acceptance.py reads it.
from .specs import CleanSpec, DrawKey, FilterParams, MethodSpec, RunConfig


@dataclass
class RoundRecord:
    """Everything observable about one round.

    `wall` holds seconds per phase, timed back to back by one `lap_clock`, so
    the phases add up to "total": "batches" (gathering the run's pre-drawn
    batch rows), "gradients" (honest gradients and the upload matrix),
    "attack", "clean" (server-shard gradient), then the phases of
    `server_step`, the server's rule: "reference" and "filter" (the window
    draw and the whole `filter_and_aggregate` call, survivor average
    included) for a filtered method or "aggregate" for a bare one, then
    "step", "eval". `run_to_result` scores evaluated rounds in blocks and
    fills in their `test_accuracy`; a record from `Simulation.run_round`
    alone keeps None. "eval" is a block's whole scoring time, and only the
    last round of the block has it, added to its "total".
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
    split, clean shard, partition, and every batch of every round. Every run
    of one `DrawKey` shares it (see `client_data`).

    The partitions (`partitions[m]` holds client m's samples) and the clean
    `shard` are sample ids of the generated (or loaded) data set. `alpha[m]`
    is client m's share of the partitioned samples. Of the samples, only the
    ones some batch reads are held: `features` and `labels` hold them, in
    sample order, and every batch index is a row of them. `batches[m]` holds
    client m's batch rows, one row per round, for every client, since a
    control run trains them all; `server_batches` holds the clean shard's,
    one row per round (None without a shard), each from a stream of its own
    (`_draw_batches`). `test` holds the test split, its (n_test, d) features
    the transpose view of a C-contiguous (d, n_test) array, the layout
    evaluation scores fastest. Every array is read-only, because one data
    level serves many runs.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    test: datamod.LabeledDataset
    shard: np.ndarray | None
    trusted: tuple[int, ...]
    partitions: tuple[np.ndarray, ...]
    alpha: np.ndarray
    batches: tuple[np.ndarray, ...]
    server_batches: np.ndarray | None


def _read_only(*arrays: np.ndarray | None):
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


_KEY_BLOCK = 1 << 16  # keys `_draw_batches` holds at once, so long runs build small


def _draw_batches(key: DrawKey, pool: np.ndarray, purpose: str, *coords) -> np.ndarray:
    """(rounds, b) samples of `pool`, b = min(batch_size, pool size), all
    drawn from the one stream (seed, purpose, *coords). Row t of a (rounds,
    pool size) block of uniform keys, drawn _KEY_BLOCK keys at a time, gives
    round t's batch: the samples at its b smallest keys, in key order. So
    fewer rounds draw a prefix of these batches. The keys pick positions by
    the length of the pool alone, so drawing from sample ids gives the
    samples of the positions a train-local pool would give."""
    rng, size = substream(key.seed, purpose, *coords), min(key.batch_size, pool.size)
    drawn = np.empty((key.rounds, size), dtype=np.int64)
    step = max(1, _KEY_BLOCK // pool.size)
    for lo in range(0, key.rounds, step):
        keys = rng.random((min(step, key.rounds - lo), pool.size))
        smallest = np.argpartition(keys, size - 1, axis=1)[:, :size]
        in_order = np.take_along_axis(keys, smallest, axis=1).argsort(axis=1)
        drawn[lo : lo + keys.shape[0]] = pool[np.take_along_axis(smallest, in_order, axis=1)]
    return drawn


def _split(key: DrawKey) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Every sample's label, the class count, and the samples of the train
    and the test split, in the order of the shuffled data set. Reads no
    features: a synthetic data set is shuffled from a stream of its own."""
    seed, spec = key.seed, key.dataset
    if spec.kind == "synthetic":
        labels = datamod.class_labels(spec.n, spec.classes)
        order = substream(seed, "shuffle").permutation(spec.n)
        train_idx, test_idx = datamod.stratified_holdout(
            labels[order], spec.classes, spec.test_fraction, substream(seed, "split")
        )
        return labels, spec.classes, order[train_idx], order[test_idx]
    labels = datamod.idx_labels(spec.train_images, spec.train_labels)
    test_labels = datamod.idx_labels(spec.test_images, spec.test_labels)
    n_classes = int(labels.max()) + 1 if labels.size else 0
    if test_labels.size and test_labels.max() >= n_classes:
        raise ConfigError("dataset", "test split contains unseen classes")
    return labels, n_classes, np.arange(labels.size), np.arange(test_labels.size)


def _read(key: DrawKey, keep: np.ndarray, test_rows: np.ndarray):
    """The samples `keep` marks, row-major, and the test split, feature-major."""
    spec = key.dataset
    if spec.kind == "synthetic":
        return datamod.synth_classification(
            spec.n, spec.dim, spec.classes, spec.separation, substream(key.seed, "data"),
            keep, test_rows,
        )
    data, _ = datamod.load_idx(spec.train_images, spec.train_labels, keep)
    _, test = datamod.load_idx(
        spec.test_images, spec.test_labels, np.zeros(test_rows.size, dtype=bool), test_rows
    )
    return data, test


def build_client_data(key: DrawKey) -> ClientData:
    """Draw the data level of `key`, which holds every field the build
    reads, so the build cannot read one it is not keyed on.

    Every draw that picks samples comes first, from the labels alone:
    shuffle, split, shard, partition and every batch. Only then are features
    made, for the samples some batch reads and for the test split."""
    seed = key.seed
    labels, n_classes, rows, test_rows = _split(key)

    # The shard and the partition are drawn over train positions, as in the
    # shuffled train split, and then mapped to samples.
    train_labels = labels[rows]
    shard: np.ndarray | None = None
    trusted: tuple[int, ...] = ()
    if key.clean is not None:
        if key.clean.kind == "server":
            shard = datamod.carve_clean_shard(
                train_labels, n_classes, key.clean.fraction, substream(seed, "shard")
            )
        else:
            trusted = tuple(sorted(set(key.clean.clients)))

    partitions = tuple(
        rows[part]
        for part in datamod.dirichlet_partition(
            train_labels, n_classes, key.clients, key.beta, key.min_size,
            substream(seed, "partition"), exclude=shard,
        )
    )
    if shard is not None:
        shard = rows[shard]
    sizes = np.array([part.size for part in partitions], dtype=np.float64)
    alpha = sizes / sizes.sum()

    batches = [_draw_batches(key, part, "batches", 0, m) for m, part in enumerate(partitions)]
    server_batches = None if shard is None else _draw_batches(key, shard, "server_batches")
    # The samples some batch reads, and the row of `features` each one gets.
    drawn = batches if server_batches is None else [*batches, server_batches]
    keep = np.zeros(labels.size, dtype=bool)
    for samples in drawn:
        keep[samples] = True
    row_of = np.cumsum(keep) - 1
    for samples in drawn:
        np.take(row_of, samples, out=samples)

    data, test = _read(key, keep, test_rows)
    _read_only(data.features, data.labels, test.features, test.labels, shard, alpha, server_batches)
    _read_only(*partitions, *batches)
    return ClientData(
        data.features, data.labels, n_classes, test, shard, trusted, partitions, alpha,
        tuple(batches), server_batches,
    )


# The one data level this process holds: (its key, the data level).
_cached: tuple[DrawKey, ClientData] | None = None


def client_data(config: RunConfig) -> ClientData:
    """`config`'s data level, from a one-entry cache per process keyed by
    its `DrawKey`. On new data the held entry is dropped before the new one
    is built, so a process never holds two data sets, and IDX files are read
    once per draw key."""
    global _cached
    key = config.draw_key
    if _cached is None or _cached[0] != key:
        _cached = None
        _cached = (key, build_client_data(key))
    return _cached[1]


# glibc's mallopt parameters, and the size from which an allocation gets its own mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_OWN_MAPPING_BYTES = 4 << 20


@functools.cache
def pin_heap_thresholds() -> None:
    """Serve allocations below 4 MB from the heap, and give larger ones their
    own mapping (glibc only, process-wide; elsewhere it does nothing). Every
    `Simulation` calls it first, so rounds allocate alike in a sweep, a
    library call or a test. It sets the thresholds once per process; later
    calls return at once.

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


@functools.cache
def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread (process-wide; where numpy
    bundles none, as off its Linux wheels, it does nothing). Every
    `Simulation` calls it first, as it does `pin_heap_thresholds`.

    The library is opened by path: the process's global symbols do not hold
    it. Results do not depend on the thread count, but time does: a block of
    evaluated rounds is a product large enough for OpenBLAS to start a
    thread per vCPU in every sweep worker. The shipped headline through the
    CLI at --parallel 2 on 2 vCPUs took 23-32 s unpinned and 9.5-11.6 s
    pinned, and 15-16 s either way at --parallel 1 (3 interleaved runs each).
    """
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


# Evaluated rounds one `accuracy` call scores, at most, and the widest stack
# of first layers it computes at once (see `_eval_block`).
_EVAL_ROUNDS = 16
_EVAL_ROWS = 128


def _eval_block(model) -> int:
    """How many evaluated rounds `run_to_result` scores in one `accuracy` call:
    min(16, 128 // width) for a first layer `width` wide, at least 1.

    A stack of first layers turns R products of (width, d) @ (d, n) into
    one of (R * width, d) @ (d, cols) per chunk of test columns, which BLAS
    runs at a higher rate, on large and small test splits alike: 171-176 us
    against 337 us a round for a softmax with 10 classes on 8,000 test rows
    of d = 50; 100 rounds on 1,000 test rows of d = 20, in blocks of 12,
    took 4.24-4.32 ms a cell against 5.13-5.36 ms a round at a time (median
    eval phase of a softmax-sweep's 99 cells, three alternating runs; one
    thread, 2-vCPU Xeon, OpenBLAS 0.3.31). A first layer 128 wide or wider
    is already a product of 128 rows.
    """
    return max(1, min(_EVAL_ROUNDS, _EVAL_ROWS // model.widths[1]))


class Simulation:
    """Materialized state for one run of `run_to_result`: its shared data
    level (`data`), the compromised set it draws on it (`mask`), its `honest`
    clients and their `batches`, and the model. Building one pins BLAS to one
    thread and the heap first (`pin_blas_threads`, `pin_heap_thresholds`),
    whoever builds it."""

    def __init__(self, config: RunConfig):
        pin_blas_threads()
        pin_heap_thresholds()
        self.config = config
        self.data = data = client_data(config)

        sizes = np.array([part.size for part in data.partitions], dtype=np.float64)
        shard_size = 0 if data.shard is None else data.shard.size
        self.mask = select_byzantine_set(
            sizes / (sizes.sum() + shard_size),
            config.requested_ratio,
            substream(config.seed, "byzantine"),
            exclude=frozenset(data.trusted),
        )
        self.honest = tuple(m for m in range(config.clients) if m not in self.mask.members)
        if config.attack is not None and not self.honest:
            raise InsufficientClients("attack requires at least one honest client")
        # Round t's honest batch rows, in `honest` order, as index stacks for
        # one gradient call each: one (H, B) stack, else one (1, b_m) stack per
        # client when partition sizes make B differ (then every round does).
        drawn = [data.batches[m] for m in self.honest]
        if len({rows.shape[1] for rows in drawn}) > 1:  # ragged
            self.batches = tuple(tuple(r[t : t + 1] for r in drawn) for t in range(config.rounds))
        else:
            stack = np.stack(drawn, axis=1)
            self.batches = tuple((stack[t],) for t in range(config.rounds))

        self.model = build_model(config.model, data.features.shape[1], data.n_classes)
        self.params = self.model.init_params(substream(config.seed, "init"))
        self.prev_aggregate = np.zeros(self.model.n_params)

        self.method = config.resolved_method
        self.filter_params = config.resolved_filter_params
        # Where the honest gradients go in the upload matrix, and the weights
        # of their losses in the round's train loss.
        self.honest_rows = np.array(self.honest, dtype=np.intp)
        honest_alpha = data.alpha[self.honest_rows]
        self.honest_weights = honest_alpha / honest_alpha.sum()

    # ------------------------------------------------------------------ round

    def _clean_gradient(self, round_index: int) -> np.ndarray:
        data = self.data
        batch = data.server_batches[round_index]
        _, grad = self.model.loss_and_gradient(self.params, data.features[batch], data.labels[batch])
        return grad

    def run_round(self, round_index: int) -> RoundRecord:
        """Run round `round_index` and return its record, `test_accuracy`
        None: `run_to_result` scores evaluated rounds."""
        cfg, data, method = self.config, self.data, self.method
        wall: dict[str, float] = {}
        lap = lap_clock(wall)

        # `take` gathers the batch rows in about half the time indexing takes.
        features, labels = data.features, data.labels
        inputs = [(features.take(idx, axis=0), labels[idx]) for idx in self.batches[round_index]]
        lap("batches")

        results = [self.model.loss_and_gradient(self.params, x, y) for x, y in inputs]
        del inputs
        if len(results) == 1:  # one (H, B) stack: its arrays are taken as they are
            losses, honest_stack = results[0]
        else:
            losses, honest_stack = (np.concatenate(parts) for parts in zip(*results))
        del results
        uploads = np.empty((cfg.clients, self.model.n_params))
        uploads[self.honest_rows] = honest_stack
        train_loss = float(self.honest_weights @ losses)
        lap("gradients")

        if cfg.attack is not None and self.mask.count:
            ids, rows = byzantine_payloads(
                cfg.attack, honest_stack, self.mask.members, cfg.clients,
                lambda m: substream(cfg.seed, "attack", round_index, m),
            )
            uploads[ids] = rows
            del rows
        # The round holds only the upload matrix from here on.
        del honest_stack
        if not np.isfinite(uploads).all():
            raise DivergenceDetected(f"non-finite client upload in round {round_index}")
        lap("attack")

        clean_grad = None
        if method.clean_kind == "server":
            clean_grad = self._clean_gradient(round_index)
            lap("clean")

        result = server_step(
            method, self.filter_params, data.alpha, uploads, lap, trusted=data.trusted,
            clean_gradient=clean_grad, center=self.prev_aggregate,
            segments=substream(cfg.seed, "segments", round_index) if method.filtered else None,
        )
        selected, agg = result.selected, result.aggregate
        honest_selected = sum(1 for m in selected if m not in self.mask.members)
        self.params = self.params - cfg.lr.rate(round_index) * agg
        self.prev_aggregate = agg
        if not np.isfinite(self.params).all():
            raise DivergenceDetected(f"parameters diverged in round {round_index}")
        lap("step")

        return RoundRecord(
            round_index=round_index,
            train_loss=train_loss,
            test_accuracy=None,
            selected=selected,
            filter_precision=honest_selected / len(selected) if selected else 1.0,
            filter_recall=honest_selected / len(self.honest),
            aggregate_norm=float(np.linalg.norm(agg)),
            pass_segments=result.windows,
            wall=wall,
        )


def lap_clock(wall: dict[str, float]) -> Callable[[str], None]:
    """`lap(phase)` stores the seconds since the last lap (or since the clock
    was made) in `wall[phase]` and adds them to `wall["total"]`."""
    last = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        wall[phase] = now - last
        wall["total"] = wall.get("total", 0.0) + wall[phase]
        last = now

    return lap


def server_step(
    method: MethodSpec, filter_params: FilterParams, alpha: np.ndarray, uploads: np.ndarray,
    lap: Callable[[str], None], *, trusted: tuple[int, ...], clean_gradient: np.ndarray | None,
    center: np.ndarray, segments: np.random.Generator | None,
) -> FilterResult:
    """The server's rule on one round's (M, p) `uploads`: a bare method's
    aggregator over every upload ("aggregate" phase; every client selected,
    no windows, no survivors), or a filtered method's reference ("reference")
    and filter on windows drawn from `segments` ("filter"). `center` is the
    last aggregate; `clean_gradient` the server shard's, or None. It reads no
    more of a run, so training, replay and attacks that simulate the defence
    can share it."""
    if not method.filtered:
        agg = aggregate(method.base, alpha, uploads, center=center, reference=clean_gradient)
        lap("aggregate")
        return FilterResult(tuple(range(len(uploads))), agg, (), np.empty((0, 0), dtype=np.intp))
    reference = build_reference(method.reference, method.base, alpha, uploads, trusted=trusted,
                                clean_gradient=clean_gradient, center=center)
    lap("reference")
    result = filter_and_aggregate(reference, uploads, alpha, filter_params, segments)
    lap("filter")
    return result


def _score(sim: Simulation, held: list[tuple[RoundRecord, np.ndarray]]) -> None:
    """Fill in the held rounds' test accuracy from one `accuracy` call on
    the stack of their parameters, and empty `held`. The call's time is the
    last held round's "eval" and is added to its "total"."""
    if not held:
        return
    lap = lap_clock(held[-1][0].wall)
    records, params = zip(*held)
    test = sim.data.test
    accs = sim.model.accuracy(np.stack(params), test.features, test.labels)
    for record, acc in zip(records, accs.tolist()):
        record.test_accuracy = acc
    held.clear()
    lap("eval")


def run_to_result(config: RunConfig) -> ExperimentResult:
    """Run all rounds; on divergence, return the rounds finished with
    diverged=True. Each evaluated round is held with its parameters, which
    no later step changes (a step binds a new array), and scored in blocks
    of `_eval_block(model)` rounds; the rounds still held after the last
    round or a divergence are scored then."""
    sim = Simulation(config)
    block = _eval_block(sim.model)
    records: list[RoundRecord] = []
    held: list[tuple[RoundRecord, np.ndarray]] = []
    diverged = False
    try:
        for t in range(config.rounds):
            records.append(sim.run_round(t))
            if (t + 1) % config.eval_interval == 0 or t == config.rounds - 1:
                held.append((records[-1], sim.params))
                if len(held) == block:
                    _score(sim, held)
    except DivergenceDetected:
        diverged = True
    _score(sim, held)
    accs = [r.test_accuracy for r in records if r.test_accuracy is not None]
    return ExperimentResult(
        records=records,
        max_accuracy=max(accs) if accs else None,
        final_accuracy=accs[-1] if accs else None,
        diverged=diverged,
        byzantine=sim.mask,
    )
