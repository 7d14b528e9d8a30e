"""The benchmark's tracer wraps functions by name; a rename must fail here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from byzbench import filtering, flsim
from byzbench.flsim import run_to_result
from byzbench.specs import AggregatorSpec, AttackSpec, DatasetSpec, MethodSpec, RunConfig

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("byzbench_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(method: MethodSpec):
    run_to_result(RunConfig(
        dataset=DatasetSpec(n=600, dim=8, classes=3), clients=5, batch_size=16, rounds=2,
        min_client_size=16, requested_ratio=0.2, attack=AttackSpec("signflip"), method=method,
    ))


def test_benchmark_tracer_finds_every_function(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    select, run_round = filtering.select_clients, flsim.Simulation.run_round
    tracer.install()
    try:
        assert tracer.missing == []
        assert filtering.select_clients is not select
        # The post hooks read what the round returns, so run both kinds of round.
        _run(MethodSpec(base=AggregatorSpec("median")))
        _run(MethodSpec(filtered=True, base=AggregatorSpec("median")))
    finally:
        tracer.uninstall()
    assert tracer.counters["filter.rounds"] == 2
    table = tracing.reduce_spans(tracer.write(str(tmp_path / "spans.npz")))
    assert table["aggregators.median.bare"]["calls"] == 2
    assert table["aggregators.median.ref"]["calls"] == 2
    assert filtering.select_clients is select
    assert flsim.Simulation.run_round is run_round
