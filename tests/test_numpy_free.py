"""`validate`, `report` and `--version` load no numpy and no engine module.

Each check runs in a fresh interpreter, since this one has imported
everything already. `sys.modules["numpy"] = None` makes any numpy import
raise ImportError, so a command that still needs numpy fails outright.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import byzbench
from byzbench.harness.reporting import SummaryRow, provenance, write_summary_json

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_ENGINE = (
    "byzbench.flsim",
    "byzbench.aggregators",
    "byzbench.filtering",
    "byzbench.models",
    "byzbench.attacks",
    "byzbench.core",
    "byzbench.data",
    "concurrent.futures.process",
)

# Runs the CLI with the given arguments, numpy blocked, then prints the
# loaded modules (the blocked entry is None) as the last line of stdout.
_PROBE = """
import json, sys
sys.modules["numpy"] = None
from byzbench.harness.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps(sorted(name for name, module in sys.modules.items() if module is not None)))
sys.exit(code)
"""


def _cli_without_numpy(*args: str) -> tuple[str, list[str]]:
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *lines, modules = done.stdout.splitlines()
    return "\n".join(lines) + "\n", json.loads(modules)


def _no_engine(modules: list[str]):
    heavy = set(modules) & {"numpy", *_ENGINE, "concurrent.futures", "ctypes"}
    assert not heavy, sorted(heavy)


def test_validate_loads_no_numpy_and_no_engine(tmp_path):
    config = {"clients": 4, "batch_size": 8, "rounds": 2, "attacks": ["none", "signflip"],
              "ratios": [0.25], "methods": ["mean", "h+gm"], "seeds": [0, 1]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out, modules = _cli_without_numpy("validate", "--config", str(path))
    # benchmarks/run.py matches this text.
    assert out == f"{path}: ok (8 cells)\n"
    _no_engine(modules)


def test_report_loads_no_numpy_and_no_engine(tmp_path):
    row = SummaryRow(fingerprint="f" * 64, attack="SignFlip", method="Mean",
                     requested_ratio=0.25, beta=0.6, seed=0, clients=4, max_accuracy=0.5,
                     final_accuracy=0.4, byzantine_count=1, realized_ratio=0.25, wall_ms=1.0)
    path = tmp_path / "summary.json"
    write_summary_json([row], str(path))
    out, modules = _cli_without_numpy("report", "--summary", str(path))
    assert out.startswith("# byzbench report\n")
    assert "\n| Mean | 1 | 0.500 | " in out
    _no_engine(modules)


def test_version_loads_no_numpy_and_prints_the_manifest_fields():
    out, modules = _cli_without_numpy("--version")
    assert out == "".join(f"{key} {value}\n" for key, value in provenance().items())
    assert out.splitlines()[0] == f"byzbench {byzbench.__version__}"
    _no_engine(modules)


def test_every_exported_name_is_its_submodule_object():
    assert sorted(byzbench.__all__) == sorted(
        "AggregatorSpec AttackSpec ByzantineMask CleanSpec DatasetSpec ExperimentConfig "
        "ExperimentResult FilterParams LRSchedule MethodSpec ModelSpec RoundRecord RunConfig "
        "SummaryRow aggregate aggregate_cclip aggregate_fltrust aggregate_gm aggregate_krum "
        "aggregate_mca aggregate_mean aggregate_median byzantine_payloads filter_and_aggregate "
        "parse_config run_sweep run_to_result select_byzantine_set similarity_check substream "
        "weighted_average".split()
    )
    for name in byzbench.__all__:
        home = importlib.import_module(f"byzbench.{byzbench._HOME[name]}")
        assert getattr(byzbench, name) is getattr(home, name), name
    # The specs are one object each, whichever module exposes them.
    from byzbench import aggregators, attacks, data, filtering, flsim, models, specs

    for module, names in (
        (flsim, ("LRSchedule", "DatasetSpec", "CleanSpec", "MethodSpec", "TrainingProtocol",
                 "RunConfig", "ceil_ratio")),
        (aggregators, ("AggregatorSpec", "AGGREGATOR_KINDS")),
        (attacks, ("AttackSpec", "ATTACK_KINDS")),
        (filtering, ("FilterParams",)),
        (models, ("ModelSpec",)),
        (data, ("class_counts", "class_share", "partition_pool_size")),
    ):
        for name in names:
            assert getattr(module, name) is getattr(specs, name), f"{module.__name__}.{name}"
