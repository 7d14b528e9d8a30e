"""Every number a spec holds declares its range, and a config that puts NaN or
an infinity in any float field fails at that field's path.

`byzbench.specs` checks each field against the range its metadata declares
(`gt`, `ge`, `lt`, `choices`), and a float must be finite unless the field
allows `infinite`. A number field that declares no range gets no check but
finiteness, so the schema test below keeps every new one honest. Whatever
value sits at whatever path, parsing returns or raises ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzbench import specs
from byzbench.errors import ConfigError
from byzbench.harness.config import ExperimentConfig, parse_config_dict

# Number fields that take any finite value: the attack knobs, whose sign and
# size are the attack, and the seeds.
_ANY_FINITE = {"lie_offset", "foe_scale", "seed", "seeds"}

_SPECS = [
    obj for obj in vars(specs).values() if isinstance(obj, type) and dataclasses.is_dataclass(obj)
] + [ExperimentConfig]


def _number_type(hint):
    """int or float for a number field, an optional one or a tuple of them; else None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        hint = args[0]
    elif type(None) in args:
        (hint,) = [arg for arg in args if arg is not type(None)]
    return hint if hint in (int, float) else None


def _fields(number_type):
    """(spec class, field) for every field of that number type."""
    for cls in _SPECS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if _number_type(hints[f.name]) is number_type:
                yield cls, f


def test_every_number_field_declares_its_range():
    assert {specs.RunConfig, specs.AggregatorSpec, ExperimentConfig} <= set(_SPECS)
    unbounded = [
        f"{cls.__name__}.{f.name}"
        for number_type in (int, float)
        for cls, f in _fields(number_type)
        if not {"gt", "ge", "lt"} & set(f.metadata) and f.name not in _ANY_FINITE
    ]
    assert unbounded == []


def test_every_kind_and_reference_declares_its_choices():
    for cls in _SPECS:
        for f in dataclasses.fields(cls):
            if f.name in ("kind", "reference"):
                assert f.metadata.get("choices"), f"{cls.__name__}.{f.name}"


# A sweep that sets every float field a config can set, each at a valid value.
_EVERY_FLOAT = {
    "dataset": {"kind": "synthetic", "n": 400, "dim": 6, "classes": 2,
                "separation": 4.0, "test_fraction": 0.2},
    "clients": 4, "batch_size": 8, "rounds": 2, "min_client_size": 8,
    "beta": [0.6, 0.3],
    "ratios": [0.0, 0.25],
    "attacks": ["none", {"kind": "gaussian", "variance": 90.0}, {"kind": "lie", "offset": 0.7},
                {"kind": "foe", "scale": -0.1}],
    "methods": ["mean", {"base": "gm", "tolerance": 1e-5}, {"base": "cclip", "clip_radius": 10.0},
                "h+clean"],
    "hplus": {"rho": 10.0, "tau": 0.1},
    "lr": {"eta0": 0.2, "decay": 0.006},
    "clean": {"kind": "server", "fraction": 0.05},
}


def _nodes(obj, keys=()):
    """(key sequence, value) of every value below the top of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield keys + (key,), value
        yield from _nodes(value, keys + (key,))


def _path(keys) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys).lstrip(".")


_PATHS = [keys for keys, _ in _nodes(_EVERY_FLOAT)]
_LEAVES = [keys for keys, value in _nodes(_EVERY_FLOAT) if isinstance(value, float)]

# A JSON integer that no float can hold.
_HUGE = 10**400


def _with(keys, value) -> dict:
    """A copy of _EVERY_FLOAT with `value` at key sequence `keys`."""
    config = json.loads(json.dumps(_EVERY_FLOAT))
    parent = config
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return config


def test_the_sweep_sets_every_float_field():
    assert parse_config_dict(_EVERY_FLOAT)
    set_keys = {next(key for key in reversed(keys) if isinstance(key, str)) for keys in _LEAVES}
    # A RunConfig's own floats, beta and ratio, come from the sweep's axes.
    declared = {
        f.metadata.get("key", f.name) for cls, f in _fields(float) if cls is not specs.RunConfig
    }
    assert set_keys == declared


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LEAVES), st.sampled_from([math.nan, math.inf, -math.inf, _HUGE, -_HUGE]))
def test_a_non_finite_float_fails_at_its_path(keys, value):
    config = _with(keys, value)
    if keys[-1] == "clip_radius" and value == math.inf:  # a radius that clips nothing
        assert parse_config_dict(config).methods[2].base.clip_radius == math.inf
        return
    with pytest.raises(ConfigError) as info:
        parse_config_dict(config)
    assert info.value.path == _path(keys)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_PATHS),
    st.sampled_from([None, True, "x", [], {}, [1], _HUGE, -_HUGE, -1, 0, 0.5]),
)
def test_any_value_at_any_path_parses_or_fails_as_a_config_error(keys, value):
    try:
        parse_config_dict(_with(keys, value))
    except ConfigError:
        pass
