"""byzbench: deterministic federated-learning simulation with robust aggregation.

The package simulates synchronous federated SGD under Byzantine attacks and
provides a family of robust aggregation rules plus a segmented similarity
filter that screens client updates before averaging.
"""

from .aggregators import (
    AggregatorSpec,
    aggregate,
    aggregate_cclip,
    aggregate_fltrust,
    aggregate_gm,
    aggregate_krum,
    aggregate_mca,
    aggregate_mean,
    aggregate_median,
)
from .attacks import AttackSpec, byzantine_payloads
from .core import ByzantineMask, select_byzantine_set, substream, weighted_average
from .filtering import FilterParams, filter_and_aggregate, similarity_check
from .flsim import (
    CleanSpec,
    DatasetSpec,
    ExperimentResult,
    LRSchedule,
    MethodSpec,
    RoundRecord,
    RunConfig,
    run_to_result,
)
from .harness.config import ExperimentConfig, parse_config
from .harness.reporting import SummaryRow
from .harness.sweep import run_sweep
from .models import ModelSpec

__version__ = "0.1.0"

__all__ = [
    "AggregatorSpec",
    "ExperimentConfig",
    "SummaryRow",
    "parse_config",
    "run_sweep",
    "AttackSpec",
    "ByzantineMask",
    "CleanSpec",
    "DatasetSpec",
    "ExperimentResult",
    "FilterParams",
    "LRSchedule",
    "MethodSpec",
    "ModelSpec",
    "RoundRecord",
    "RunConfig",
    "aggregate",
    "aggregate_cclip",
    "aggregate_fltrust",
    "aggregate_gm",
    "aggregate_krum",
    "aggregate_mca",
    "aggregate_mean",
    "aggregate_median",
    "byzantine_payloads",
    "filter_and_aggregate",
    "run_to_result",
    "select_byzantine_set",
    "similarity_check",
    "substream",
    "weighted_average",
]
