"""Sweep orchestration: expand a config into cells, run them, persist rows.

Every cell (attack x method x ratio x beta x seed) gets a content fingerprint:
the sha256 of its canonical-JSON resolved description. The fingerprint names
the cell's output files and keys resume, so key order / whitespace in the
source config cannot matter. The run's seed hashes the same description minus
the method: cells that differ only in method are paired, with the same data,
partition, compromised set, batches and attack noise, so their rows compare
methods and nothing else.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace

from ..flsim import RoundRecord, RunConfig, TrainingProtocol, run_to_result
from .config import ExperimentConfig, to_json
from .reporting import SummaryRow, read_summary_rows, write_round_csv, write_summary_json

_SEED_SPACE = 2**31 - 1

# glibc mallopt parameters, and the size from which an allocation always gets
# its own mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_OWN_MAPPING_BYTES = 4 << 20


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


def _cell_description(cell: RunConfig) -> dict:
    """Everything that semantically determines the cell's result: the cell's
    RunConfig in its compact JSON form, with `seed` the sweep's master seed.
    With `method` None it leaves the method out and describes the cell's
    environment."""
    return to_json(cell)


def cell_fingerprint(description: dict) -> str:
    return hashlib.sha256(_canonical(description).encode()).hexdigest()


def _cell_seed(master_seed: int, fingerprint: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def expand_cells(config: ExperimentConfig) -> list[Cell]:
    """Cartesian product over the sweep axes, deduplicated by fingerprint.

    A "none" attack is a control cell: its requested ratio is forced to 0, so
    controls collapse to one cell per (method, beta, seed) no matter how many
    ratios are swept. Method is the innermost axis, so the cells that share an
    environment (all but the method equal) come out next to each other.
    """
    cells: dict[str, Cell] = {}
    shared = {f.name: getattr(config, f.name) for f in fields(TrainingProtocol)}
    for attack in config.attacks:
        for ratio in config.ratios:
            for beta in config.betas:
                for seed in config.seeds:
                    environment = RunConfig(
                        **shared,
                        beta=beta,
                        requested_ratio=ratio if attack is not None else 0.0,
                        attack=attack,
                        method=None,
                        filter_params=config.hplus,
                        seed=seed,
                    )
                    cell_seed = _cell_seed(seed, cell_fingerprint(_cell_description(environment)))
                    for method in config.methods:
                        run_config = replace(environment, method=method)
                        fingerprint = cell_fingerprint(_cell_description(run_config))
                        if fingerprint not in cells:
                            cells[fingerprint] = Cell(
                                fingerprint=fingerprint,
                                seed=seed,
                                run_config=replace(run_config, seed=cell_seed),
                            )
    return list(cells.values())


# ------------------------------------------------------------------ execution


def pin_heap_thresholds() -> None:
    """Give every allocation of at least 4 MB its own mapping (glibc only).

    By default glibc raises its mmap threshold to the size of each mapped
    block freed, so after a worker's first cell the dataset-sized arrays come
    from the heap. Whether a freed one then strands its pages behind a later
    small object depends on which cells the worker ran before, and its peak
    RSS moved by a whole dataset copy (15 MB at n = 40000, d = 50) from one
    sweep to the next. With both thresholds pinned, big arrays go back to the
    system when freed and the peak is the live set of the largest cell. The
    trim threshold keeps glibc's own ratio of twice the mmap threshold.
    Where the C library has no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _OWN_MAPPING_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _OWN_MAPPING_BYTES)


def _labels(cell: Cell) -> dict:
    """The fields of a cell's summary row that name the cell."""
    config = cell.run_config
    return dict(
        fingerprint=cell.fingerprint,
        attack=config.attack_label,
        method=config.method.label,
        requested_ratio=config.requested_ratio,
        beta=config.beta,
        seed=cell.seed,
    )


def run_cell(cell: Cell) -> tuple[SummaryRow, list[RoundRecord]]:
    """Execute one cell; never raises, failures land in the row's status."""
    start = time.perf_counter()
    try:
        result = run_to_result(cell.run_config)
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        wall_ms = 1000.0 * (time.perf_counter() - start)
        error = f"{type(exc).__name__}: {exc}"
        return SummaryRow(**_labels(cell), wall_ms=wall_ms, status="failed", error=error), []
    wall_ms = 1000.0 * (time.perf_counter() - start)
    records = result.records
    evaluated = [r.test_accuracy for r in records if r.test_accuracy is not None]
    honest = cell.run_config.clients - result.byzantine.count
    row = SummaryRow(
        **_labels(cell),
        max_accuracy=max(evaluated) if evaluated else None,
        final_accuracy=evaluated[-1] if evaluated else None,
        empty_intersections=sum(1 for r in records if r.empty_intersection),
        mean_precision=(
            sum(r.filter_precision for r in records) / len(records) if records else None
        ),
        mean_recall=(sum(r.filter_recall for r in records) / len(records) if records else None),
        byzantine_count=result.byzantine.count,
        realized_ratio=result.byzantine.realized_ratio,
        keep_exceeds_honest=None if result.keep is None else result.keep > honest,
        wall_ms=wall_ms,
        status="diverged" if result.diverged else "ok",
    )
    return row, records


def _row_path(out_dir: str, fingerprint: str) -> str:
    return os.path.join(out_dir, "cells", f"{fingerprint}.json")


def _rounds_path(out_dir: str, fingerprint: str) -> str:
    return os.path.join(out_dir, "rounds", f"{fingerprint}.csv")


def _load_finished(out_dir: str, cells: list[Cell]) -> dict[str, SummaryRow]:
    """Rows whose outputs already exist on disk, keyed by fingerprint."""
    finished: dict[str, SummaryRow] = {}
    for cell in cells:
        row_path = _row_path(out_dir, cell.fingerprint)
        if not (os.path.exists(row_path) and os.path.exists(_rounds_path(out_dir, cell.fingerprint))):
            continue
        try:
            rows = read_summary_rows(row_path)
        except Exception:  # noqa: BLE001 - a corrupt row file means "recompute"
            continue
        if len(rows) == 1 and rows[0].fingerprint == cell.fingerprint:
            finished[cell.fingerprint] = rows[0]
    return finished


def row_sort_key(row: SummaryRow):
    return (row.attack, row.method, row.requested_ratio, row.beta, row.seed, row.fingerprint)


def run_sweep(
    config: ExperimentConfig,
    out_dir: str,
    parallelism: int = 1,
    resume: bool = False,
    progress=None,
) -> list[SummaryRow]:
    """Run every cell, persist per-cell outputs incrementally, return all rows.

    All file writes happen here in the calling process; workers only compute.
    Rows come back sorted on a canonical key, so sequential and parallel runs
    of the same config produce identical summary files. Whichever process runs
    the cells, the calling one included, gets pin_heap_thresholds first.

    Cells are submitted in expansion order, where the cells of one environment
    are adjacent, so a worker mostly reuses the environment it holds. If a
    worker dies (killed by the OS, say), every cell the pool still held gets a
    failed row but no cell file, so `--resume` runs it again; summary.json is
    written all the same.
    """
    cells = expand_cells(config)
    rows: dict[str, SummaryRow] = {}
    if resume:
        rows.update(_load_finished(out_dir, cells))
    pending = [cell for cell in cells if cell.fingerprint not in rows]

    def collect(row: SummaryRow):
        rows[row.fingerprint] = row
        if progress is not None:
            progress(row)

    def record(row: SummaryRow, records: list[RoundRecord]):
        write_round_csv(records, _rounds_path(out_dir, row.fingerprint))
        write_summary_json([row], _row_path(out_dir, row.fingerprint))
        collect(row)

    if parallelism <= 1 or len(pending) <= 1:
        pin_heap_thresholds()
        for cell in pending:
            record(*run_cell(cell))
    else:
        with ProcessPoolExecutor(max_workers=parallelism, initializer=pin_heap_thresholds) as pool:
            futures = {pool.submit(run_cell, cell): cell for cell in pending}
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    cell = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        collect(SummaryRow(**_labels(cell), status="failed", error=error))
                        continue
                    record(*outcome)

    ordered = sorted(rows.values(), key=row_sort_key)
    write_summary_json(ordered, os.path.join(out_dir, "summary.json"))
    return ordered
