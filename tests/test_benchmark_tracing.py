"""The benchmark's tracer wraps functions by name; a rename must fail here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from byzbench import filtering, flsim

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("byzbench_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_function():
    tracer = _load_tracing().Tracer()
    select, run_round = filtering.select_clients, flsim.Simulation.run_round
    tracer.install()
    try:
        assert tracer.missing == []
        assert filtering.select_clients is not select
    finally:
        tracer.uninstall()
    assert filtering.select_clients is select
    assert flsim.Simulation.run_round is run_round
