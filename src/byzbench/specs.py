"""Every spec of a run, and the rules they check, without numpy.

A spec is a frozen dataclass that describes one part of a run: the dataset,
the model, the attack, the aggregator, the method, the filter's knobs (K, r,
N, rho, tau), the clean data and the learning-rate schedule. `RunConfig`
puts them together and checks every rule that relates its fields. Each
field's metadata gives its JSON key when that differs from its name, and the
kinds it belongs to (see `harness.config`).

The per-run rules live here too: the defaults a run fills in (N, Krum's f,
FoE's scale) and what its environment depends on (`environment_key`).

This module imports nothing but the standard library and `errors`, so that
parsing and validating a config, IDX headers included, loads no numpy and no
engine module. Import specs from here; the engine modules keep only the
aliases that `tests/test_acceptance.py` and `benchmarks/micro.py` read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

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


def partition_pool_size(
    n: int, n_classes: int, test_fraction: float, shard_fraction: float = 0.0
) -> int:
    """How many samples `dirichlet_partition` draws from in a synthetic data
    set of n: per class, the count less its `stratified_holdout` test share,
    less the `carve_clean_shard` share of what stays (shard_fraction 0 when
    there is no server shard)."""
    pool = 0
    for count in class_counts(n, n_classes):
        train = count - class_share(test_fraction, count)
        pool += train - class_share(shard_fraction, train)
    return pool


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
class AggregatorSpec:
    """Which baseline rule to run, plus the knobs of the kinds that have them.

    assumed_byzantine is Krum's f; when None, RunConfig.resolved_method fills
    in ceil(requested_ratio * M).
    """

    kind: str
    assumed_byzantine: int | None = field(default=None, metadata={"kinds": ("krum",)})
    tolerance: float = field(default=1e-5, metadata={"kinds": ("gm", "mca")})
    max_iter: int = field(default=1000, metadata={"kinds": ("gm", "mca")})
    clip_radius: float = field(default=10.0, metadata={"kinds": ("cclip",)})
    clip_iters: int = field(default=3, metadata={"kinds": ("cclip",)})

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise InvalidField("kind", f"unknown aggregator kind {self.kind!r}")
        if self.tolerance <= 0.0:
            raise InvalidField("tolerance", "tolerance must be positive")
        if self.max_iter < 1:
            raise InvalidField("max_iter", "max_iter must be at least 1")
        if self.clip_radius <= 0.0:
            raise InvalidField("clip_radius", "clip_radius must be positive")
        if self.clip_iters < 1:
            raise InvalidField("clip_iters", "clip_iters must be at least 1")
        if self.assumed_byzantine is not None and self.assumed_byzantine < 0:
            raise InvalidField("assumed_byzantine", "assumed_byzantine must be non-negative")

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
class AttackSpec:
    """Which attack to run, plus the knobs of the kinds that have them.

    foe_scale None is resolved per run, once the method and the compromised
    count B the run drew are known: -3 * (M - B) against a correntropy-style
    (MCA) victim, -0.1 otherwise (see RunConfig.resolved_attack).
    """

    kind: str
    variance: float = field(default=90.0, metadata={"kinds": ("gaussian",)})
    lie_offset: float = field(default=0.7, metadata={"key": "offset", "kinds": ("lie",)})
    foe_scale: float | None = field(default=None, metadata={"key": "scale", "kinds": ("foe",)})

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InvalidField("kind", f"unknown attack kind {self.kind!r}")
        if self.variance <= 0.0:
            raise InvalidField("variance", "variance must be positive")

    @property
    def label(self) -> str:
        return _ATTACK_LABELS[self.kind]


@dataclass(frozen=True)
class FilterParams:
    """Filter hyperparameters.

    passes: number of windows (K). segment_len: window width (r). keep: clients
    kept per window (N); None lets RunConfig.keep default it to M - ceil(C * M).
    penalty_weight and norm_pivot shape the norm penalty (rho, tau).
    """

    passes: int = field(default=3, metadata={"key": "K"})
    segment_len: int = field(default=50, metadata={"key": "r"})
    keep: int | None = field(default=None, metadata={"key": "N"})
    penalty_weight: float = field(default=10.0, metadata={"key": "rho"})
    norm_pivot: float = field(default=0.1, metadata={"key": "tau"})

    def __post_init__(self):
        if self.passes < 1:
            raise InvalidField("passes", "passes must be >= 1")
        if self.segment_len < 1:
            raise InvalidField("segment_len", "segment_len must be >= 1")
        if self.keep is not None and self.keep < 1:
            raise InvalidField("keep", f"keep={self.keep} must be >= 1")
        if self.penalty_weight < 0.0:
            raise InvalidField("penalty_weight", "penalty_weight must be >= 0")
        if self.norm_pivot <= 0.0:
            raise InvalidField("norm_pivot", "norm_pivot must be > 0")


# ------------------------------------------------------------- the training


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "softmax"
    hidden: int = field(default=32, metadata={"kinds": ("mlp1",)})

    def __post_init__(self):
        if self.kind not in ("softmax", "mlp1"):
            raise InvalidField("kind", f"unknown model kind {self.kind!r}")
        if self.hidden < 1:
            raise InvalidField("hidden", "hidden width must be >= 1")


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
            largest = class_counts(self.n, self.classes)[0]
            if class_share(self.test_fraction, largest) == 0:
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
        return partition_pool_size(ds.n, ds.classes, ds.test_fraction, shard)


@dataclass(frozen=True)
class RunConfig(TrainingProtocol):
    """Full declarative description of one training run.

    With `method` None it describes no run but the environment that the runs
    differing from it only in method share (see `environment_key`). It
    checks every rule that relates its fields, so a run fails only on what its
    drawn environment alone shows (an infeasible partition, say), and fills
    in the defaults: N (`keep`), Krum's f (`resolved_method`) and FoE's scale
    (`resolved_attack`).
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

    @property
    def resolved_filter_params(self) -> FilterParams | None:
        """`filter_params` with N set (`keep`) for a filtered method, else None."""
        return replace(self.filter_params, keep=self.keep) if self.method.filtered else None

    def resolved_attack(self, byzantine: int) -> AttackSpec | None:
        """`attack` with FoE's scale set: as given, else -3 * (M - B) against an
        MCA victim and -0.1 otherwise, B the `byzantine` count the run drew."""
        attack = self.attack
        if attack is None or attack.kind != "foe" or attack.foe_scale is not None:
            return attack
        base = self.method.base
        victim_is_correntropy = base is not None and base.kind == "mca"
        scale = -3.0 * (self.clients - byzantine) if victim_is_correntropy else -0.1
        return replace(attack, foe_scale=scale)

    @property
    def environment_key(self) -> RunConfig:
        """What this run's environment depends on: the whole config with `method`
        blanked, so runs that differ only in method share one environment, and
        every other field, one added later included, keys it."""
        return replace(self, method=None)
