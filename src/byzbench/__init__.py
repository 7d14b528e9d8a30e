"""byzbench: deterministic federated-learning simulation with robust aggregation.

The package simulates synchronous federated SGD under Byzantine attacks and
provides a family of robust aggregation rules plus a segmented similarity
filter that screens client updates before averaging.

The names below load their module on first access (PEP 562), so importing
the package, or `byzbench.specs` and the harness's config and report code,
loads no numpy.
"""

from __future__ import annotations

__version__ = "0.1.0"

# The module each exported name comes from.
_HOMES = {
    "specs": (
        "AggregatorSpec", "AttackSpec", "CleanSpec", "DatasetSpec", "FilterParams",
        "LRSchedule", "MethodSpec", "ModelSpec", "RunConfig",
    ),
    "aggregators": (
        "aggregate", "aggregate_cclip", "aggregate_fltrust", "aggregate_gm", "aggregate_krum",
        "aggregate_mca", "aggregate_mean", "aggregate_median",
    ),
    "attacks": ("byzantine_payloads",),
    "core": ("ByzantineMask", "select_byzantine_set", "substream", "weighted_average"),
    "filtering": ("filter_and_aggregate", "similarity_check"),
    "flsim": ("ExperimentResult", "RoundRecord", "run_to_result"),
    "harness.config": ("ExperimentConfig", "parse_config"),
    "harness.reporting": ("SummaryRow",),
    "harness.sweep": ("run_sweep",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
