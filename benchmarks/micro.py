"""Micro-timings of the pieces under each round phase, timed from outside.

Each entry calls one public function on fixed synthetic inputs and reports
the median time per call over several repeats. Inputs are sized to stay far
below the memory of a small machine: the largest are the M=50, p=1e6 upload
matrix for select_clients (400 MB) and Krum's M^2 * p difference tensor at
M=20, p=1e5 (320 MB).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

AGGREGATOR_DIMS = (210, 7818, 100_000)
SELECT_DIMS = (10_000, 1_000_000)
_CLIENTS = 20
_SELECT_CLIENTS = 50
_BUDGET_S = 0.15  # target time per entry, split over the repeats
_REPEATS = 5


def _per_call(fn, min_calls: int = 3) -> float:
    """Median seconds per call over _REPEATS batches of equal size."""
    fn()  # warm caches and lazy set-up before timing
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    calls = max(min_calls, int(_BUDGET_S / _REPEATS / once))
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _updates(rng: np.random.Generator, m: int, p: int) -> np.ndarray:
    """Honest-looking rows around a common direction, a quarter of them flipped."""
    rows = rng.standard_normal((m, p))
    rows *= 0.5
    rows += rng.standard_normal(p)
    rows[: m // 4] *= -3.0
    return rows


def run_micro(seed: int) -> dict[str, tuple[float, str]]:
    """Every micro-timing as name -> (value, unit)."""
    from byzbench import aggregators, core, filtering, models

    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}

    calls = iter(range(1 << 30))
    out["micro.core.substream.us"] = (
        1e6 * _per_call(lambda: core.substream(seed, "batch", next(calls) % 100, 3), min_calls=200),
        "us",
    )

    for kind, dim, model in (
        ("softmax", 20, models.SoftmaxRegression(20, 10)),
        ("mlp1", 50, models.OneHiddenMLP(50, 128, 10)),
    ):
        params = 0.1 * rng.standard_normal(model.n_params)
        features = rng.standard_normal((32, dim))
        labels = rng.integers(0, 10, size=32)
        out[f"micro.models.{kind}.loss_and_gradient.us"] = (
            1e6 * _per_call(lambda: model.loss_and_gradient(params, features, labels),
                            min_calls=50),
            "us",
        )

    weights = rng.dirichlet(np.ones(_CLIENTS))
    for p in AGGREGATOR_DIMS:
        mat = _updates(rng, _CLIENTS, p)
        center = np.zeros(p)
        reference = mat[_CLIENTS // 2 :].mean(axis=0)
        specs = {kind: aggregators.AggregatorSpec(kind) for kind in aggregators.AGGREGATOR_KINDS}
        specs["krum"] = aggregators.AggregatorSpec("krum", assumed_byzantine=_CLIENTS // 4)
        for kind, spec in specs.items():
            seconds = _per_call(
                lambda: aggregators.aggregate(spec, weights, mat, center=center,
                                              reference=reference),
                min_calls=1 if p >= 100_000 else 3,
            )
            out[f"micro.aggregators.{kind}.p{p}.ms"] = (1e3 * seconds, "ms")
        del mat

    for p in SELECT_DIMS:
        uploads = _updates(rng, _SELECT_CLIENTS, p)
        reference = uploads[_SELECT_CLIENTS // 2 :].mean(axis=0)
        params = filtering.FilterParams(keep=_SELECT_CLIENTS - _SELECT_CLIENTS // 4)
        draws = iter(range(1 << 30))
        out[f"micro.filtering.select_clients.p{p}.us"] = (
            1e6 * _per_call(lambda: filtering.select_clients(
                reference, uploads, params, np.random.default_rng(next(draws))), min_calls=50),
            "us",
        )
        del uploads
    return out
