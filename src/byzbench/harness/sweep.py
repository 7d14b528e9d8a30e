"""Sweep orchestration: expand a config into cells, run them, persist rows.

Every cell (attack x method x ratio x beta x seed) gets a content fingerprint:
the sha256 of its canonical-JSON resolved description. The fingerprint names
the cell's output files, keys resume, and seeds the run, so reruns are bitwise
reproducible and key order / whitespace in the source config cannot matter.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
    """Everything that semantically determines the cell's result.

    That is every field of the cell's RunConfig, with `seed` the sweep's master
    seed. The form is the one the first fingerprints hashed and must stay
    byte-identical, since it names output files, keys resume and seeds every
    cell: every field of the shared sections whether it belongs to their kind
    or not, and the attack and method in their compact config-entry form.
    """
    return to_json(cell, full=True)


def cell_fingerprint(description: dict) -> str:
    return hashlib.sha256(_canonical(description).encode()).hexdigest()


def _cell_seed(master_seed: int, fingerprint: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def expand_cells(config: ExperimentConfig) -> list[Cell]:
    """Cartesian product over the sweep axes, deduplicated by fingerprint.

    A "none" attack is a control cell: its requested ratio is forced to 0, so
    controls collapse to one cell per (method, beta, seed) no matter how many
    ratios are swept.
    """
    cells: dict[str, Cell] = {}
    shared = {f.name: getattr(config, f.name) for f in fields(TrainingProtocol)}
    for attack in config.attacks:
        for method in config.methods:
            for ratio in config.ratios:
                for beta in config.betas:
                    for seed in config.seeds:
                        requested = ratio if attack is not None else 0.0
                        run_config = RunConfig(
                            **shared,
                            beta=beta,
                            requested_ratio=requested,
                            attack=attack,
                            method=method,
                            filter_params=config.hplus,
                            seed=seed,
                        )
                        fingerprint = cell_fingerprint(_cell_description(run_config))
                        if fingerprint in cells:
                            continue
                        cells[fingerprint] = Cell(
                            fingerprint=fingerprint,
                            seed=seed,
                            run_config=replace(run_config, seed=_cell_seed(seed, fingerprint)),
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


def run_cell(cell: Cell) -> tuple[SummaryRow, list[RoundRecord]]:
    """Execute one cell; never raises, failures land in the row's status."""
    config = cell.run_config
    start = time.perf_counter()
    try:
        result = run_to_result(config)
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        records, status, error = [], "failed", f"{type(exc).__name__}: {exc}"
    else:
        records, status, error = result.records, "diverged" if result.diverged else "ok", None
    wall_ms = 1000.0 * (time.perf_counter() - start)
    evaluated = [r.test_accuracy for r in records if r.test_accuracy is not None]
    row = SummaryRow(
        fingerprint=cell.fingerprint,
        attack=config.attack_label,
        method=config.method.label,
        requested_ratio=config.requested_ratio,
        beta=config.beta,
        seed=cell.seed,
        max_accuracy=max(evaluated) if evaluated else None,
        final_accuracy=evaluated[-1] if evaluated else None,
        empty_intersections=(
            None if status == "failed" else sum(1 for r in records if r.empty_intersection)
        ),
        mean_precision=(
            sum(r.filter_precision for r in records) / len(records) if records else None
        ),
        mean_recall=(sum(r.filter_recall for r in records) / len(records) if records else None),
        wall_ms=wall_ms,
        status=status,
        error=error,
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
    """
    cells = expand_cells(config)
    rows: dict[str, SummaryRow] = {}
    if resume:
        rows.update(_load_finished(out_dir, cells))
    pending = [cell for cell in cells if cell.fingerprint not in rows]

    def record(row: SummaryRow, records: list[RoundRecord]):
        write_round_csv(records, _rounds_path(out_dir, row.fingerprint))
        write_summary_json([row], _row_path(out_dir, row.fingerprint))
        rows[row.fingerprint] = row
        if progress is not None:
            progress(row)

    if parallelism <= 1 or len(pending) <= 1:
        pin_heap_thresholds()
        for cell in pending:
            record(*run_cell(cell))
    else:
        with ProcessPoolExecutor(max_workers=parallelism, initializer=pin_heap_thresholds) as pool:
            futures = {pool.submit(run_cell, cell) for cell in pending}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    record(*future.result())

    ordered = sorted(rows.values(), key=row_sort_key)
    write_summary_json(ordered, os.path.join(out_dir, "summary.json"))
    return ordered
