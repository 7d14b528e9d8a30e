"""Every spec of a run, and the rules they check, without numpy.

A spec is a frozen dataclass that describes one part of a run: the dataset,
the model, the attack, the aggregator, the method, the filter's knobs (K, r,
N, rho, tau), the clean data and the learning-rate schedule. `RunConfig`
puts them together and checks every rule that relates its fields. Each
field's metadata gives its JSON key when that differs from its name, the
kinds it belongs to (see `harness.config`), and its range: the `choices` of a
string, the limits `gt`, `ge` and `lt` of a number or of each item of a
tuple. Every spec checks each of its fields against its range on
construction (`_Spec`), whatever the spec's kind; a float must also be
finite unless its metadata allows `infinite`, so NaN fails every field.

The per-run rules live here too: the defaults a run fills in (N, Krum's f)
and what its environment and its data depend on (`environment_key`,
`data_key`).

This module imports nothing but the standard library and `errors`, so that
parsing and validating a config, IDX headers included, loads no numpy and no
engine module. Import specs from here; the engine modules keep only the
aliases that `tests/test_acceptance.py` and `benchmarks/micro.py` read.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace

from .errors import FormatError, InvalidField


def ceil_ratio(ratio: float, count: int) -> int:
    """ceil(ratio * count) robust to float fuzz on grid values like 0.55 * 100."""
    return math.ceil(ratio * count - 1e-9)


# ------------------------------------------------------------ synthetic data


def class_counts(n: int, n_classes: int) -> list[int]:
    """Per-class sample counts of a synthetic data set: balanced within one
    sample, the first n % n_classes classes one larger."""
    return [n // n_classes + (c < n % n_classes) for c in range(n_classes)]


def class_share(fraction: float, count: int) -> int:
    """How many of a class's `count` samples a holdout or shard `fraction` takes."""
    return int(fraction * count + 0.5)


# ------------------------------------------------------------ field ranges


_LIMITS = (("gt", operator.gt, ">"), ("ge", operator.ge, ">="), ("lt", operator.lt, "<"))


@functools.cache
def _field_ranges(cls) -> tuple:
    """(name, (choices, limits as (test, bound) pairs, whether it may be
    infinite, the limits as text)) for each field of spec class `cls` that
    declares a range or may hold a float. Cached, since `validate` builds
    every RunConfig of a sweep."""
    ranges = []
    for f in fields(cls):
        meta = f.metadata
        limits = tuple((test, meta[key]) for key, test, _ in _LIMITS if key in meta)
        # f.type is the annotation, a string such as "float | None" here.
        if limits or "choices" in meta or "float" in str(f.type):
            text = " and ".join(f"{sign} {meta[key]:g}" for key, _, sign in _LIMITS if key in meta)
            ranges.append((f.name, (meta.get("choices"), limits, meta.get("infinite", False), text)))
    return tuple(ranges)


def _check_field(name: str, value, choices, limits, infinite: bool, text: str):
    if value is None:  # a default: N and Krum's f filled in per run, FoE's scale -0.1
        return
    if choices is not None and value not in choices:
        raise InvalidField(name, f"unknown {name} {value!r}: expected one of {', '.join(choices)}")
    if isinstance(value, float) and not (infinite or math.isfinite(value)):
        raise InvalidField(name, f"{name} must be finite")
    for test, bound in limits:
        if not test(value, bound):  # NaN fails every limit
            raise InvalidField(name, f"{name} must be {text}")


class _Spec:
    """Base of every spec: construction checks each field against its range,
    each item of a tuple field at "name[i]"."""

    def __post_init__(self):
        for name, rule in _field_ranges(type(self)):
            value = getattr(self, name)
            if type(value) is tuple:
                for i, item in enumerate(value):
                    _check_field(f"{name}[{i}]", item, *rule)
            else:
                _check_field(name, value, *rule)


# -------------------------------------------------------- rules and attacks


_AGGREGATOR_LABELS = {
    "mean": "Mean",
    "median": "Median",
    "krum": "Krum",
    "gm": "GM",
    "mca": "MCA",
    "cclip": "CClip",
    "fltrust": "FLTrust",
}
AGGREGATOR_KINDS = tuple(_AGGREGATOR_LABELS)


@dataclass(frozen=True)
class AggregatorSpec(_Spec):
    """Which baseline rule to run, plus the knobs of the kinds that have them.

    assumed_byzantine is Krum's f; when None, RunConfig.resolved_method fills
    in ceil(requested_ratio * M).
    """

    kind: str = field(metadata={"choices": AGGREGATOR_KINDS})
    assumed_byzantine: int | None = field(default=None, metadata={"kinds": ("krum",), "ge": 0})
    tolerance: float = field(default=1e-5, metadata={"kinds": ("gm", "mca"), "gt": 0.0})
    max_iter: int = field(default=1000, metadata={"kinds": ("gm", "mca"), "ge": 1})
    # An infinite radius clips nothing (`aggregate_cclip`).
    clip_radius: float = field(
        default=10.0, metadata={"kinds": ("cclip",), "gt": 0.0, "infinite": True}
    )
    clip_iters: int = field(default=3, metadata={"kinds": ("cclip",), "ge": 1})

    @property
    def label(self) -> str:
        return _AGGREGATOR_LABELS[self.kind]


_ATTACK_LABELS = {
    "gaussian": "Gaussian",
    "signflip": "SignFlip",
    "lie": "LIE",
    "foe": "FoE",
    "negated_mean": "NegatedMean",
}
ATTACK_KINDS = tuple(_ATTACK_LABELS)


@dataclass(frozen=True)
class AttackSpec(_Spec):
    """Which attack to run, plus the knobs of the kinds that have them.

    foe_scale None means -0.1 against every method (`byzantine_payloads`).
    """

    kind: str = field(metadata={"choices": ATTACK_KINDS})
    variance: float = field(default=90.0, metadata={"kinds": ("gaussian",), "gt": 0.0})
    lie_offset: float = field(default=0.7, metadata={"key": "offset", "kinds": ("lie",)})
    # None, not -0.1: `to_json` writes every set field, so a default of -0.1
    # would move every FoE cell's fingerprint and seed.
    foe_scale: float | None = field(default=None, metadata={"key": "scale", "kinds": ("foe",)})

    def __post_init__(self):
        super().__post_init__()
        # -0.1 sends the unset scale's payload: stored as None, both forms are
        # one spec with one fingerprint.
        if self.foe_scale == -0.1:
            object.__setattr__(self, "foe_scale", None)

    @property
    def label(self) -> str:
        return _ATTACK_LABELS[self.kind]


@dataclass(frozen=True)
class FilterParams(_Spec):
    """Filter hyperparameters.

    passes: number of windows (K). segment_len: window width (r). keep: clients
    kept per window (N); None lets RunConfig.keep default it to M - ceil(C * M).
    penalty_weight and norm_pivot shape the norm penalty (rho, tau).
    """

    passes: int = field(default=3, metadata={"key": "K", "ge": 1})
    segment_len: int = field(default=50, metadata={"key": "r", "ge": 1})
    keep: int | None = field(default=None, metadata={"key": "N", "ge": 1})
    penalty_weight: float = field(default=10.0, metadata={"key": "rho", "ge": 0.0})
    norm_pivot: float = field(default=0.1, metadata={"key": "tau", "gt": 0.0})


# ------------------------------------------------------------- the training


@dataclass(frozen=True)
class ModelSpec(_Spec):
    kind: str = field(default="softmax", metadata={"choices": ("softmax", "mlp1")})
    hidden: int = field(default=32, metadata={"kinds": ("mlp1",), "ge": 1})


@dataclass(frozen=True)
class LRSchedule(_Spec):
    """Decaying step size eta_t = eta0 / (decay * t + 1)."""

    eta0: float = field(default=0.2, metadata={"gt": 0.0})
    decay: float = field(default=0.006, metadata={"ge": 0.0})

    def rate(self, round_index: int) -> float:
        return self.eta0 / (self.decay * round_index + 1.0)


# Per IDX file kind: its magic number and its header's length in bytes.
_IDX_HEADERS = {"image": (0x00000803, 16), "label": (0x00000801, 8)}


def idx_counts(path, kind: str, n_images: int | None = None) -> tuple[int, ...]:
    """The counts in the header of IDX file `path` (big-endian, MNIST-style):
    (n, rows, cols) for kind "image", (n,) for kind "label".

    Reads the header alone. Raises FormatError unless the magic number is
    `kind`'s, a label file holds `n_images` labels (when given), and the file
    is as long as its header and the uint8 payload the header promises.
    """
    expected_magic, head = _IDX_HEADERS[kind]
    with open(path, "rb") as handle:
        buf = handle.read(head)
        size = os.fstat(handle.fileno()).st_size
    if len(buf) < head:
        raise FormatError(f"{path}: truncated, wanted {head} bytes, have {size}")
    magic, *counts = (int.from_bytes(buf[i : i + 4], "big") for i in range(0, head, 4))
    if magic != expected_magic:
        raise FormatError(f"{path}: bad {kind} magic 0x{magic:08x}")
    if n_images is not None and counts[0] != n_images:
        raise FormatError(f"{path}: {counts[0]} labels for {n_images} images")
    wanted = head + math.prod(counts)
    if size < wanted:
        raise FormatError(f"{path}: truncated, wanted {wanted} bytes, have {size}")
    return tuple(counts)


_SYNTHETIC = {"kinds": ("synthetic",)}
_IDX = {"kinds": ("idx",)}


@dataclass(frozen=True)
class DatasetSpec(_Spec):
    """Synthetic Gaussian clusters or an IDX file pair per split."""

    kind: str = field(default="synthetic", metadata={"choices": ("synthetic", "idx")})
    n: int = field(default=5000, metadata={**_SYNTHETIC, "ge": 1})
    dim: int = field(default=20, metadata={**_SYNTHETIC, "ge": 1})
    classes: int = field(default=10, metadata={**_SYNTHETIC, "ge": 2})
    separation: float = field(default=4.0, metadata={**_SYNTHETIC, "gt": 0.0})
    test_fraction: float = field(default=0.2, metadata={**_SYNTHETIC, "gt": 0.0, "lt": 1.0})
    train_images: str | None = field(default=None, metadata=_IDX)
    train_labels: str | None = field(default=None, metadata=_IDX)
    test_images: str | None = field(default=None, metadata=_IDX)
    test_labels: str | None = field(default=None, metadata=_IDX)

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "synthetic":
            if self.n < self.classes:
                raise InvalidField("n", f"synthetic dataset needs n >= classes ({self.classes})")
            largest = class_counts(self.n, self.classes)[0]
            if class_share(self.test_fraction, largest) == 0:
                raise InvalidField(
                    "test_fraction",
                    f"test_fraction {self.test_fraction} of {largest} samples per class "
                    "rounds to an empty test split",
                )
        else:
            for name in ("train_images", "train_labels", "test_images", "test_labels"):
                if getattr(self, name) is None:
                    raise InvalidField(name, f"idx dataset needs {name}")

    @property
    def train_counts(self) -> list[int]:
        """Per class, the samples of a synthetic train split: the class's count
        less its `stratified_holdout` test share."""
        return [
            count - class_share(self.test_fraction, count)
            for count in class_counts(self.n, self.classes)
        ]


@dataclass(frozen=True)
class CleanSpec(_Spec):
    """Clean-data regime: a server-held shard or a trusted client set."""

    kind: str = field(metadata={"choices": ("server", "trusted")})
    fraction: float = field(default=0.02, metadata={"kinds": ("server",), "gt": 0.0, "lt": 1.0})
    clients: tuple[int, ...] = field(default=(), metadata={"kinds": ("trusted",), "ge": 0})

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "trusted" and not self.clients:
            raise InvalidField("clients", "trusted clean spec needs at least one client id")


@dataclass(frozen=True)
class MethodSpec(_Spec):
    """An aggregation method: a bare baseline or the filter over a reference.

    filtered=False runs `base` directly. filtered=True scores uploads against
    a reference drawn from `reference`: "aggregator" (run `base` over all
    uploads), "server_clean" (gradient on the server shard), or "trusted"
    (average of trusted clients' uploads).
    """

    filtered: bool = False
    base: AggregatorSpec | None = None
    reference: str = field(
        default="aggregator", metadata={"choices": ("aggregator", "server_clean", "trusted")}
    )

    def __post_init__(self):
        super().__post_init__()
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
class TrainingProtocol(_Spec):
    """What a sweep and every one of its cells share."""

    dataset: DatasetSpec = DatasetSpec()
    model: ModelSpec = ModelSpec()
    clients: int = field(default=20, metadata={"ge": 1})
    batch_size: int = field(default=32, metadata={"ge": 1})
    rounds: int = field(default=100, metadata={"ge": 0})
    lr: LRSchedule = LRSchedule()
    clean: CleanSpec | None = None
    eval_interval: int = field(default=1, metadata={"ge": 1})
    min_client_size: int | None = field(default=None, metadata={"ge": 1})

    def __post_init__(self):
        super().__post_init__()
        if self.dataset.kind == "synthetic":
            self.partition_pools(self.dataset.train_counts)

    @property
    def min_size(self) -> int:
        """The fewest samples a client's partition holds: min_client_size, else 2 * batch_size."""
        return 2 * self.batch_size if self.min_client_size is None else self.min_client_size

    def partition_pools(self, train_counts: list[int]) -> list[int]:
        """Per class, the samples `dirichlet_partition` draws from, given the
        train split's per-class counts: each less the `carve_clean_shard`
        share of a server shard, if there is one.

        Raises InvalidField at `clean` for a server shard that rounds to
        empty, at `min_client_size` when clients x min_size exceeds the
        samples left to partition, and at `dataset` when a class keeps none.
        """
        server = self.clean is not None and self.clean.kind == "server"
        fraction = self.clean.fraction if server else 0.0
        shares = [class_share(fraction, count) for count in train_counts]
        if server and not any(shares):
            raise InvalidField(
                "clean",
                f"server shard fraction {fraction} of at most {max(train_counts, default=0)} "
                "samples per class rounds to an empty shard",
            )
        pools = [count - share for count, share in zip(train_counts, shares)]
        if self.clients * self.min_size > sum(pools):
            raise InvalidField(
                "min_client_size",
                f"clients ({self.clients}) x min_client_size ({self.min_size}) exceeds the "
                f"{sum(pools)} samples left to partition",
            )
        if 0 in pools:
            raise InvalidField(
                "dataset",
                f"class {pools.index(0)} of classes 0 to {len(pools) - 1} has no sample left "
                "to partition",
            )
        return pools


@dataclass(frozen=True)
class RunConfig(TrainingProtocol):
    """Full declarative description of one training run.

    With `method` None it describes no run but the environment that the runs
    differing from it only in method share (see `environment_key`). It
    checks every rule that relates its fields, so a run fails only on what its
    drawn environment alone shows (an infeasible partition, say), and fills
    in the defaults: N (`keep`) and Krum's f (`resolved_method`).
    """

    beta: float = field(default=0.6, metadata={"gt": 0.0})
    requested_ratio: float = field(default=0.0, metadata={"key": "ratio", "ge": 0.0, "lt": 1.0})
    attack: AttackSpec | None = None
    method: MethodSpec = MethodSpec(base=AggregatorSpec("mean"))
    filter_params: FilterParams = field(default=FilterParams(), metadata={"key": "hplus"})
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.requested_ratio > 0.0 and self.attack is None:
            raise InvalidField("attack", "requested_ratio > 0 needs an attack")
        if self.keep > self.clients:
            raise InvalidField("filter_params", f"N must be <= clients ({self.clients})")
        clean_kind = None if self.clean is None else self.clean.kind
        for i, client in enumerate(self.clean.clients if clean_kind == "trusted" else ()):
            if client >= self.clients:
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

    @property
    def resolved_filter_params(self) -> FilterParams | None:
        """`filter_params` with N set (`keep`) for a filtered method, else None."""
        return replace(self.filter_params, keep=self.keep) if self.method.filtered else None

    @property
    def environment_key(self) -> RunConfig:
        """What this run's environment depends on: the whole config with `method`
        blanked, so runs that differ only in method share one environment, and
        every other field, one added later included, keys it."""
        return replace(self, method=None)

    @property
    def data_key(self) -> RunConfig:
        """What this run's data set, partition and batch draws depend on: the
        environment key with `attack` and `requested_ratio` blanked too, so
        the control and attacked runs of one seed share them."""
        return replace(self, method=None, attack=None, requested_ratio=0.0)
