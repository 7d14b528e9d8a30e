"""`validate`, `report` and `--version` load no numpy and no engine module.

Each check runs in a fresh interpreter, since this one has imported
everything already. `sys.modules["numpy"] = None` makes any numpy import
raise ImportError, so a command that still needs numpy fails outright.
"""

from __future__ import annotations

import json
import os
import struct
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


def test_validate_reads_idx_headers_without_numpy(tmp_path):
    dataset = {"kind": "idx"}
    for split in ("train", "test"):
        images, labels = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
        images.write_bytes(struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(12))
        labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
        dataset.update({f"{split}_images": str(images), f"{split}_labels": str(labels)})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"dataset": dataset, "clients": 2, "min_client_size": 1}), encoding="utf-8")
    out, modules = _cli_without_numpy("validate", "--config", str(path))
    assert out == f"{path}: ok (1 cells)\n"
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


def test_every_kept_alias_is_the_specs_object():
    # The aliases that tests/test_acceptance.py and benchmarks/micro.py import.
    from byzbench import aggregators, attacks, filtering, flsim, specs

    for module, names in (
        (flsim, ("CleanSpec", "MethodSpec", "RunConfig")),
        (aggregators, ("AggregatorSpec", "AGGREGATOR_KINDS")),
        (attacks, ("AttackSpec",)),
        (filtering, ("FilterParams",)),
    ):
        for name in names:
            assert getattr(module, name) is getattr(specs, name), f"{module.__name__}.{name}"
