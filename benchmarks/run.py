"""byzbench benchmark: end-to-end sweep metrics and per-layer traced timings.

    python3 benchmarks/run.py --workload softmax-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With --trace 0 the benchmark writes the
workload's sweep config, times `byzbench validate` several times (setup_s),
then runs `byzbench run` as a subprocess back to back, at least twice and
until --seconds have passed, checking every sweep's outputs. With --trace 1 it runs the same sweep
in-process through `run_sweep(parallelism=1)`, once untraced and once with
spans around each layer, then a resume over the traced output and the layer
micro-timings. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Outputs go to .bench_out/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here and in every subprocess: one BLAS thread per
# process, so --parallel alone decides how many cores a sweep uses.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from micro import run_micro  # noqa: E402
from outputs import check_digest_history, read_sweep, source_hash  # noqa: E402
from tracing import AGGREGATOR_KINDS, Tracer, reduce_spans  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# Two sweeps at least, so that cell_ms.p90 has ten samples beyond it even on
# softmax-sweep's 99 cells.
MIN_SWEEPS = 2
DEADLINE_S = 170.0  # every run must end within 180 s
COVERAGE_MIN = 0.90

# Layers each workload is meant to stress, as shares of traced wall time.
INTENDED = {
    "softmax-sweep": ("trace.share.grad_loop", 50.0),
    "wide-model": ("trace.share.aggregators", 50.0),
    "setup-heavy": ("trace.share.setup", 40.0),
}
LAYERS = ("core", "data", "models", "attacks", "aggregators", "filtering", "flsim",
          "harness.config", "harness.sweep", "harness.reporting")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------------ helpers


def _machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
    }


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) interpolates it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run(cmd: list[str], deadline: float) -> tuple[int, str, str, float]:
    """Run cmd in its own process group; kill the whole group at the deadline."""
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[2:5])} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:  # deadline or SIGTERM: take the workers down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, stdout, stderr, time.perf_counter() - start


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "byzbench.harness.cli", *args]


# --------------------------------------------------------------- end to end


def end_to_end(workload, seed: int, seconds: int, work_dir: str, deadline: float) -> dict:
    config_path = workload.write_config(seed, os.path.join(work_dir, "config.json"))
    expected = workload.expected_cells
    problems = []

    setup = []
    for _ in range(SETUP_REPEATS):
        code, stdout, stderr, wall = _run(_cli("validate", "--config", config_path), deadline)
        if code != 0 or f"ok ({expected} cells)" not in stdout:
            raise BenchError(f"validate failed ({code}): {stdout.strip()} {stderr.strip()}")
        setup.append(wall)

    out_dir = os.path.join(work_dir, "out")
    sweeps = []
    started = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - started < seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        code, _, stderr, wall = _run(
            _cli("run", "--config", config_path, "--out", out_dir,
                 "--parallel", str(workload.parallel)),
            deadline,
        )
        if code not in (0, 2) or not os.path.exists(os.path.join(out_dir, "summary.json")):
            raise BenchError(f"byzbench run exited {code}: {stderr.strip()[-400:]}")
        sweeps.append((wall, read_sweep(out_dir, expected, workload.rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    digests = {outputs.digest for _, outputs in sweeps}
    if len(digests) != 1:
        problems.append(f"sweeps of one run disagree: {len(digests)} digests")
    for _, outputs in sweeps:
        problems.extend(outputs.problems)
    first = sweeps[0][1]
    attempted = sum(len(outputs.rows) for _, outputs in sweeps)
    failed = sum(outputs.failed for _, outputs in sweeps)
    cell_ms = [ms for _, outputs in sweeps for ms in outputs.cell_ms]
    metrics = {
        "sweep_s": (statistics.median(wall for wall, _ in sweeps), "s"),
        "rounds_per_s": (statistics.median(o.rounds / wall for wall, o in sweeps), "1/s"),
        "cell_ms.p50": (statistics.median(cell_ms), "ms"),
        "cell_ms.p90": (_percentile(cell_ms, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "finished_fraction": ((attempted - failed) / attempted, "fraction"),
        "max_acc.mean": (first.max_accuracy_mean, "fraction"),
    }
    facts = {
        "sweeps": len(sweeps),
        "cell_samples": len(cell_ms),
        "rounds_per_sweep": first.rounds,
        "failed_fraction": failed / attempted,
        "digest": first.digest,
    }
    return {"metrics": metrics, "facts": facts, "problems": problems,
            "attempted": attempted, "failed": failed, "digest": first.digest}


# ------------------------------------------------------------------- traced


def _timed_sweep(config_module, sweep_module, config_path: str, out_dir: str) -> float:
    start = time.perf_counter()
    config = config_module.parse_config(config_path)
    sweep_module.run_sweep(config, out_dir, parallelism=1)
    return time.perf_counter() - start


def traced(workload, seed: int, work_dir: str) -> dict:
    sys.path.insert(0, SRC)
    from byzbench.harness import config as config_module
    from byzbench.harness import sweep as sweep_module

    config_path = workload.write_config(seed, os.path.join(work_dir, "config.json"))
    expected, rounds = workload.expected_cells, workload.rounds
    problems = []

    plain_dir = os.path.join(work_dir, "untraced")
    traced_dir = os.path.join(work_dir, "traced")
    for path in (plain_dir, traced_dir):
        shutil.rmtree(path, ignore_errors=True)
    # One cell first, so that neither timed sweep pays the first-call costs.
    sweep_module.run_cell(sweep_module.expand_cells(config_module.parse_config(config_path))[0])
    untraced_s = _timed_sweep(config_module, sweep_module, config_path, plain_dir)
    plain = read_sweep(plain_dir, expected, rounds)

    tracer = Tracer()
    tracer.install()
    try:
        traced_s = tracer.root(_timed_sweep, config_module, sweep_module, config_path, traced_dir)
    finally:
        tracer.uninstall()
    traced_outputs = read_sweep(traced_dir, expected, rounds)

    start = time.perf_counter()
    sweep_module.run_sweep(config_module.parse_config(config_path), traced_dir, resume=True)
    resume_s = time.perf_counter() - start
    resumed = read_sweep(traced_dir, expected, rounds)

    for outputs in (plain, traced_outputs, resumed):
        problems.extend(outputs.problems)
    if len({plain.digest, traced_outputs.digest, resumed.digest}) != 1:
        problems.append("untraced, traced and resumed sweeps disagree")
    if tracer.missing:
        problems.append(f"functions no longer found: {', '.join(tracer.missing)}")

    spans = tracer.write(os.path.join(work_dir, "trace.npz"))
    table = reduce_spans(spans)
    wall = float(table[ROOT_SPAN]["durations"].sum())
    metrics = _layer_metrics(table, tracer.counters, wall)
    coverage = metrics["trace.coverage"][0] / 100.0
    if coverage < COVERAGE_MIN:
        problems.append(f"layers cover {coverage:.1%} of traced time, need {COVERAGE_MIN:.0%}")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (float(len(spans["name"])), "count")
    metrics["harness.sweep.resume_s"] = (resume_s, "s")
    metrics.update(run_micro(seed))

    share_name, share_min = INTENDED[workload.name]
    facts = {
        "cells": len(plain.rows),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "intended_layers": f"{share_name} = {metrics[share_name][0]:.1f}% "
                           f"({'meets' if metrics[share_name][0] > share_min else 'BELOW'} "
                           f"{share_min:.0f}%)",
        "digest": plain.digest,
    }
    with open(os.path.join(work_dir, "layers.json"), "w", encoding="utf-8") as handle:
        json.dump({"spans": {k: {"calls": v["calls"], "self_s": v["self_s"]}
                             for k, v in table.items()},
                   "counters": dict(tracer.counters), "facts": facts}, handle, indent=1)
    _print_table(table, wall)
    attempted = len(plain.rows) + len(traced_outputs.rows)
    failed = plain.failed + traced_outputs.failed
    return {"metrics": metrics, "facts": facts, "problems": problems,
            "attempted": attempted, "failed": failed, "digest": plain.digest}


def _layer_metrics(table: dict, counters, wall: float) -> dict:
    def calls(key):
        return float(table[key]["calls"]) if key in table else 0.0

    def self_s(*keys):
        return sum(table[k]["self_s"] for k in keys if k in table)

    def matching(prefix):
        return [k for k in table if k == prefix or k.startswith(prefix + ".")]

    m: dict[str, tuple[float, str]] = {}
    for key in ("core.substream", "models.loss_and_gradient", "models.accuracy",
                "flsim.run_round", "flsim.setup", "filtering.build_reference",
                "filtering.select_clients"):
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.self_s"] = (self_s(key), "s")
    for key in ("attacks.byzantine_payloads", "data.synth_classification",
                "data.stratified_holdout", "data.dirichlet_partition", "data.take",
                "filtering.filter_and_aggregate", "harness.config.parse_config",
                "harness.sweep.expand_cells", "aggregators.mean.bare",
                "aggregators.median.bare", "aggregators.median.ref",
                "aggregators.gm.bare", "aggregators.gm.ref"):
        m[f"{key}.self_s"] = (self_s(key), "s")
    for key in ("flsim.clean_gradient", "data.carve_clean_shard"):
        m[f"{key}.calls"] = (calls(key), "count")

    rules = [k for k in table if k.endswith((".bare", ".ref"))]
    for role in ("bare", "ref"):
        keys = [k for k in rules if k.endswith("." + role)]
        m[f"aggregators.{role}.calls"] = (sum(calls(k) for k in keys), "count")
        m[f"aggregators.{role}.self_s"] = (self_s(*keys), "s")
    for kind in AGGREGATOR_KINDS:
        m[f"aggregators.{kind}.calls"] = (
            calls(f"aggregators.{kind}.bare") + calls(f"aggregators.{kind}.ref"), "count")
    m["aggregators.krum.pairwise_bytes"] = (float(counters["krum.pairwise_bytes"]), "bytes")

    filtered = counters["filter.rounds"]
    m["filtering.fallback_ratio"] = (counters["filter.empty"] / filtered if filtered else 0.0,
                                     "ratio")
    m["filtering.kept_ratio"] = (counters["filter.kept"] / filtered if filtered else 0.0, "ratio")
    for fn in ("write_round_csv", "write_summary_json"):
        key = f"harness.reporting.{fn}"
        m[f"{key}.self_s"] = (self_s(key), "s")
        m[f"{key}.bytes"] = (float(counters[f"{key}.bytes"]), "bytes")

    rounds_ms = 1e3 * table["flsim.run_round"]["durations"]
    m["flsim.run_round.ms.p50"] = (_percentile(list(rounds_ms), 50), "ms")
    m["flsim.run_round.ms.p99"] = (_percentile(list(rounds_ms), 99), "ms")

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (self_s(*matching(layer)), "s")

    def share(*keys):
        return (100.0 * self_s(*keys) / wall, "%")

    m["trace.wall_s"] = (wall, "s")
    m["trace.coverage"] = (100.0 - share("trace.root")[0], "%")
    m["trace.share.grad_loop"] = share("models.loss_and_gradient", "core.substream",
                                       "flsim.run_round")
    m["trace.share.aggregators"] = share(*matching("aggregators"))
    m["trace.share.setup"] = share(*matching("data"), "flsim.setup")
    return m


def _print_table(table: dict, wall: float):
    print(f"{'span':<40} {'calls':>9} {'self_s':>10} {'share':>7}")
    for key, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{key:<40} {row['calls']:>9d} {row['self_s']:>10.4f} "
              f"{100.0 * row['self_s'] / wall:>6.1f}%")


# --------------------------------------------------------------------- main


def _declared(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "byzbench", "harness", "cli.py")):
        print(f"no byzbench sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % (2**31 - 1)
    work_dir = os.path.join(OUT, workload.name)
    try:
        if args.trace:
            result = traced(workload, seed, os.path.join(work_dir, "trace"))
        else:
            result = end_to_end(workload, seed, args.seconds, work_dir, deadline)
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    code = source_hash(SRC)
    problem = check_digest_history(
        os.path.join(OUT, "digests.json"), f"{code}:{workload.name}:{seed}", result["digest"]
    )
    if problem:
        result["problems"].append(problem)

    declared = _declared(bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in declared):
        print(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 1

    facts = {"workload": workload.name, "workload_seed": seed,
             "parallel": 1 if args.trace else workload.parallel, "source": code[:16],
             **_machine_facts(), **result["facts"]}
    print(json.dumps({"facts": facts}))
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
