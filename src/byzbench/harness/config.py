"""Strict JSON experiment configs, read and written through the specs' field tables.

A config file is the single source of truth for a sweep: dataset, model,
training protocol, and the sweep axes (attacks x methods x ratios x betas x
seeds). Every spec dataclass is its own schema. A field's JSON key is its name
unless the field's metadata gives a `key` ("K", "offset", ...), and a field
whose metadata lists `kinds` belongs only to specs of those kinds. One codec
walks these tables:

- parsing checks each value's type (a bool is not an integer), rejects unknown
  keys and keys that do not belong to the spec's kind with their dotted path
  ("hplus.Q", "attacks[1].scale"), builds the dataclass, and reports what its
  `__post_init__` rejects (a value outside its field's declared range, say)
  as a ConfigError at that field's path, or that item's ("beta[1]");
- `to_json` writes a spec back: the set fields that belong to its kind, which
  parse back equal. Cell fingerprints hash this form too.

What is left here is what no single spec knows: the input shorthands ("h+gm",
"h+clean", "h+trusted", "negated-mean", "none", "mlp", and the flat method
object that carries its base aggregator's knobs), the check that one label
names one attack and one method, the check that an IDX dataset's files
exist, hold what their headers promise and label enough samples to
partition, and the sweep's
Cartesian product of RunConfigs, which check the rules that relate a run's
fields, expanded into fingerprinted cells.

Every cell (attack x method x ratio x beta x seed) gets a content fingerprint:
the sha256 of its RunConfig's canonical `to_json` form, with the master seed
as `seed`. The fingerprint names the cell's output files and keys resume, so
key order / whitespace in the source config cannot matter. The run's seed
hashes the same description minus the method, attack and ratio (its data
key): the cells of one (beta, seed) share data, partition, batches and
windows, and cells that differ only in method share the compromised set and
attack noise too, so their rows compare methods and nothing else.

This module loads no numpy and no engine module (the specs come from
`byzbench.specs`), so `byzbench validate` loads neither.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import types
import typing
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from ..errors import ConfigError, FormatError, InvalidField, IoError
from ..specs import (
    AggregatorSpec,
    AttackSpec,
    DatasetSpec,
    FilterParams,
    MethodSpec,
    RunConfig,
    TrainingProtocol,
    idx_counts,
)

_SEED_SPACE = 2**31 - 1

_KIND_ALIASES = {"mlp": "mlp1", "negated-mean": "negated_mean"}

_METHOD_ALIASES = {
    "h+clean": MethodSpec(filtered=True, reference="server_clean"),
    "h+trusted": MethodSpec(filtered=True, reference="trusted"),
}


@dataclass(frozen=True)
class ExperimentConfig(TrainingProtocol):
    """A parsed sweep: the shared training protocol plus the Cartesian axes."""

    betas: tuple[float, ...] = field(default=(0.6,), metadata={"key": "beta", "gt": 0.0})
    # A control forces its ratio to 0, so no RunConfig would check this one.
    ratios: tuple[float, ...] = field(default=(0.0,), metadata={"ge": 0.0, "lt": 1.0})
    attacks: tuple[AttackSpec | None, ...] = (None,)
    methods: tuple[MethodSpec, ...] = (MethodSpec(base=AggregatorSpec("mean")),)
    hplus: FilterParams = FilterParams()
    seeds: tuple[int, ...] = (0,)
    out_dir: str | None = None


# ------------------------------------------------------------------- codec


@functools.cache
def _table(cls) -> tuple:
    """(field, JSON key, type) for every field of a spec dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f, f.metadata.get("key", f.name), hints[f.name]) for f in dataclasses.fields(cls)
    )


def _belongs(f: dataclasses.Field, spec) -> bool:
    kinds = f.metadata.get("kinds")
    return kinds is None or spec.kind in kinds


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _strip_optional(hint):
    """X | None -> (X, True); any other type -> (type, False)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return inner, True
    return hint, False


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _decode_value(hint, value, path: str):
    hint, optional = _strip_optional(hint)
    if hint in _ENTRIES:
        return _ENTRIES[hint][0](value, path)
    if value is None and optional:
        return None
    if dataclasses.is_dataclass(hint):
        return _decode(hint, value, path)
    if typing.get_origin(hint) is tuple:
        # A single item stands for a one-item array.
        item = typing.get_args(hint)[0]
        if not isinstance(value, list):
            return (_decode_value(item, value, path),)
        if not value:
            raise ConfigError(path, "array must not be empty")
        return tuple(_decode_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    # An integer is a fine number, but bool, an int subclass, is neither.
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(path, f"expected {_TYPE_NAMES[hint]}, got {type(value).__name__}")
    # JSON integers are unbounded; the rules compare ints with floats, and
    # float() of one beyond float range overflows.
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(path, "number beyond the range of a float")
    return float(value) if hint is float else value


def _decode(cls, obj, path: str, **given):
    """Build spec `cls` from JSON object `obj`; `given` fields are already built."""
    if not isinstance(obj, dict):
        raise ConfigError(path or "config", f"expected an object, got {type(obj).__name__}")
    table = {key: (f, hint) for f, key, hint in _table(cls)}
    values = dict(given)
    for key, value in obj.items():
        if key not in table or table[key][0].name in given:
            raise ConfigError(_join(path, key), "unknown key")
        f, hint = table[key]
        values[f.name] = _decode_value(hint, value, _join(path, key))
    if isinstance(values.get("kind"), str):
        kind = values["kind"].lower()
        values["kind"] = _KIND_ALIASES.get(kind, kind)
    for key, (f, _) in table.items():
        if f.name not in values and f.default is dataclasses.MISSING:
            raise ConfigError(_join(path, key), "required")
    try:
        spec = cls(**values)
    except InvalidField as exc:
        # A tuple item's error names the field and the index: "clients[1]".
        name, bracket, index = exc.field.partition("[")
        key = next(key for key, (f, _) in table.items() if f.name == name)
        raise ConfigError(_join(path, key) + bracket + index, str(exc)) from exc
    for key in obj:
        if not _belongs(table[key][0], spec):
            raise ConfigError(_join(path, key), f"does not apply to kind {spec.kind!r}")
    return spec


def to_json(spec) -> dict:
    """A spec as a JSON object: its set fields that belong to its kind.

    Attacks and methods are written in their compact config-entry form.
    """
    out = {}
    for f, key, hint in _table(type(spec)):
        value = getattr(spec, f.name)
        if value is not None and _belongs(f, spec):
            out[key] = _encode_value(hint, value)
    return out


def _encode_value(hint, value):
    if type(value) in _TYPE_NAMES:  # a JSON scalar already
        return value
    hint, _ = _strip_optional(hint)
    if hint in _ENTRIES:
        return _ENTRIES[hint][1](value)
    if isinstance(value, tuple):
        item = typing.get_args(hint)[0]
        return [_encode_value(item, v) for v in value]
    return to_json(value)


# -------------------------------------------------------------- shorthands


def _decode_attack(entry, path: str) -> AttackSpec | None:
    if isinstance(entry, str):
        if entry.lower() == "none":
            return None
        entry = {"kind": entry}
    return _decode(AttackSpec, entry, path)


def _encode_attack(spec: AttackSpec | None):
    return "none" if spec is None else to_json(spec)


_METHOD_KEYS = tuple(key for _, key, _ in _table(MethodSpec))


def _decode_method(entry, path: str) -> MethodSpec:
    """A method name ("gm", "h+gm", "h+clean") or a flat object: the
    MethodSpec keys, with "base" naming the aggregator whose knobs sit beside it."""
    if isinstance(entry, str):
        name = entry.lower()
        if name in _METHOD_ALIASES:
            return _METHOD_ALIASES[name]
        filtered = name.startswith("h+")
        entry = {"filtered": filtered, "base": name[2:] if filtered else name}
    if not isinstance(entry, dict):
        raise ConfigError(path, f"expected a string or an object, got {type(entry).__name__}")
    method = {k: v for k, v in entry.items() if k in _METHOD_KEYS and k != "base"}
    knobs = {k: v for k, v in entry.items() if k not in _METHOD_KEYS}
    base = None
    if "base" in entry:
        kind = _decode_value(str, entry["base"], f"{path}.base")
        base = _decode(AggregatorSpec, knobs, path, kind=kind)
    elif knobs:
        raise ConfigError(_join(path, next(iter(knobs))), "unknown key")
    return _decode(MethodSpec, method, path, base=base)


def _encode_method(spec: MethodSpec) -> dict:
    out = to_json(spec)
    base = out.pop("base", None)
    if base is not None:
        out.update(base)
        out["base"] = out.pop("kind")
    return out


_ENTRIES = {
    AttackSpec: (_decode_attack, _encode_attack),
    MethodSpec: (_decode_method, _encode_method),
}


# ---------------------------------------------------------------- the sweep


def _run_config(fields: dict, paths: dict) -> RunConfig:
    """RunConfig(**fields), an InvalidField reported at the sweep key in `paths`."""
    try:
        return RunConfig(**fields)
    except InvalidField as exc:
        raise ConfigError(paths.get(exc.field, exc.field), str(exc)) from exc


def sweep_runs(config: ExperimentConfig, seeds) -> Iterator[list[RunConfig]]:
    """The sweep's Cartesian product at `seeds`: per environment, the RunConfigs
    of its methods, in config order. Betas and seeds are the outer axes, so
    the environments of one data key (all but the attack and ratio equal) come
    out next to each other. A "none" attack is a control, whose requested ratio
    is forced to 0. An error of a field that no axis or section renames
    ("clean.clients[1]") keeps its path."""
    shared = {f.name: getattr(config, f.name) for f in dataclasses.fields(TrainingProtocol)}
    shared.update(filter_params=config.hplus)
    axes = (config.betas, seeds, config.attacks, enumerate(config.ratios))
    for beta, seed, attack, (j, ratio) in itertools.product(*axes):
        ratio = ratio if attack is not None else 0.0
        fields = dict(shared, beta=beta, requested_ratio=ratio, attack=attack, seed=seed)
        paths = dict(requested_ratio=f"ratios[{j}]", filter_params="hplus.N")
        yield [
            _run_config(dict(fields, method=method), dict(paths, method=f"methods[{i}]"))
            for i, method in enumerate(config.methods)
        ]


@dataclass(frozen=True)
class Cell:
    """One resolved point of the sweep's Cartesian product.

    `seed` is the sweep's master seed; run_config.seed is the cell's own.
    """

    fingerprint: str
    seed: int
    run_config: RunConfig


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_fingerprint(description: dict) -> str:
    return hashlib.sha256(_canonical(description).encode()).hexdigest()


def _cell_seed(master_seed: int, fingerprint: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def expand_cells(config: ExperimentConfig) -> list[Cell]:
    """The sweep's cells (`sweep_runs`), deduplicated by fingerprint.

    Controls collapse to one cell per (method, beta, seed) no matter how many
    ratios are swept. Method is the innermost axis, so the cells that share an
    environment (all but the method equal) come out next to each other.

    A cell's seed derives from the master seed and its data key, so the
    control and attacked cells of one (beta, master seed) share data,
    partition, batches and windows, and their compromised sets nest: a lower
    ratio's set is a prefix of a higher one's (`select_byzantine_set`).
    """
    cells: dict[str, Cell] = {}
    for runs in sweep_runs(config, config.seeds):
        data = runs[0].data_key
        cell_seed = _cell_seed(data.seed, cell_fingerprint(to_json(data)))
        for run in runs:
            fingerprint = cell_fingerprint(to_json(run))
            if fingerprint not in cells:
                cells[fingerprint] = Cell(fingerprint, run.seed, replace(run, seed=cell_seed))
    return list(cells.values())


# ---------------------------------------------------------------- entry points


def _check_idx_files(config: ExperimentConfig):
    """Each file of an IDX dataset exists, its path taken as `run` opens it
    (relative to the working directory), and holds what its header promises,
    a split's labels one per image (`idx_counts` reads the headers). Then the
    train labels, counted per class, must leave a server shard a sample,
    clients x min_size samples to partition, and every label from 0 to the
    highest one of them (`TrainingProtocol.partition_pools`), and no test
    label may exceed that highest train label."""
    dataset = config.dataset
    for f, key, _ in _table(DatasetSpec):
        path = getattr(dataset, f.name)
        if "kinds" in f.metadata and _belongs(f, dataset) and not os.path.isfile(path):
            raise ConfigError(f"dataset.{key}", f"no such file {path!r}")
    labels = {}
    for split in ("train", "test"):
        n_images = None
        for kind in ("image", "label"):
            name = f"{split}_{kind}s"  # an IDX field's JSON key is its name
            try:
                n_images = idx_counts(getattr(dataset, name), kind, n_images)[0]
            except (OSError, FormatError) as exc:
                raise ConfigError(f"dataset.{name}", str(exc)) from exc
        with open(getattr(dataset, name), "rb") as handle:
            labels[split] = handle.read(8 + n_images)[8:]  # a byte per label after the header
    train = labels["train"]
    train_counts = [train.count(label) for label in range(max(train, default=-1) + 1)]
    try:
        config.partition_pools(train_counts)
    except InvalidField as exc:
        path = "dataset.train_labels" if exc.field == "dataset" else exc.field
        raise ConfigError(path, str(exc)) from exc
    highest = max(labels["test"], default=-1)
    if highest >= len(train_counts):
        raise ConfigError(
            "dataset.test_labels",
            f"test label {highest} exceeds the highest train label {len(train_counts) - 1}",
        )


def parse_config_dict(obj: dict) -> ExperimentConfig:
    """Parse a sweep and check one seed's runs: the rules never read the seed."""
    config = _decode(ExperimentConfig, obj, "")
    # Rows, the report and the H+X - X pairing key on the labels, so one label
    # names one method and one attack ("none" included).
    for axis in ("attacks", "methods"):
        entries = getattr(config, axis)
        labels = [getattr(entry, "label", "None") for entry in entries]
        for j, label in enumerate(labels):
            i = labels.index(label)
            if entries[i] != entries[j]:
                raise ConfigError(f"{axis}[{j}]", f"label {label!r} already used by {axis}[{i}]")
    list(sweep_runs(config, config.seeds[:1]))  # builds, and so checks, each run
    if config.dataset.kind == "idx":
        _check_idx_files(config)
    return config


def parse_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise IoError(path, "no such file")
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    return parse_config_dict(obj)
