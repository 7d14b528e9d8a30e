"""Sweep orchestration: expand a config into cells, run them, persist rows.

Every cell (attack x method x ratio x beta x seed) gets a content fingerprint:
the sha256 of its RunConfig's canonical `to_json` form, with the master seed
as `seed`. The fingerprint names the cell's output files and keys resume, so
key order / whitespace in the source config cannot matter. The run's seed
hashes the same description minus the method: cells that differ only in
method are paired, with the same data, partition, compromised set, batches
and attack noise, so their rows compare methods and nothing else.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import groupby

from ..flsim import RoundRecord, RunConfig, environment_key, run_to_result
from .config import ExperimentConfig, sweep_runs, to_json
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


def cell_fingerprint(description: dict) -> str:
    return hashlib.sha256(_canonical(description).encode()).hexdigest()


def _cell_seed(master_seed: int, fingerprint: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def expand_cells(config: ExperimentConfig) -> list[Cell]:
    """The sweep's cells (`sweep_runs`), deduplicated by fingerprint.

    Controls collapse to one cell per (method, beta, seed) no matter how many
    ratios are swept. Method is the innermost axis, so the cells that share an
    environment (all but the method equal) come out next to each other.
    """
    cells: dict[str, Cell] = {}
    for environment, runs in sweep_runs(config, config.seeds):
        cell_seed = _cell_seed(environment.seed, cell_fingerprint(to_json(environment)))
        for run in runs:
            fingerprint = cell_fingerprint(to_json(run))
            if fingerprint not in cells:
                cells[fingerprint] = Cell(fingerprint, run.seed, replace(run, seed=cell_seed))
    return list(cells.values())


# ------------------------------------------------------------------ execution


def pin_heap_thresholds() -> None:
    """Serve allocations below 4 MB from the heap, and give larger ones their
    own mapping (glibc only).

    glibc's mmap threshold starts at 128 KB and rises only when a mapped
    block is freed, so unpinned, a round's arrays of about 1 MB (an mlp1
    gradient stack, say) may be mapped, faulted in and unmapped on every
    call. Pinned, they reuse heap pages: wide-model sweeps (mlp1, p = 7,818,
    108 cells) took 3.86-4.79 s with the pin and 5.28-6.62 s without it, in 6
    of 6 interleaved runs on 2 vCPUs, while setup-heavy's peak RSS was the
    same either way (56.3-56.7 MB over 6 seeds). The trim threshold keeps
    glibc's own ratio of twice the mmap threshold. Where the C library has
    no mallopt this does nothing.
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
    config, records = cell.run_config, result.records
    honest = config.clients - result.byzantine.count
    row = SummaryRow(
        **_labels(cell),
        max_accuracy=result.max_accuracy,
        final_accuracy=result.final_accuracy,
        empty_intersections=sum(1 for r in records if r.empty_intersection),
        mean_precision=(
            sum(r.filter_precision for r in records) / len(records) if records else None
        ),
        mean_recall=(sum(r.filter_recall for r in records) / len(records) if records else None),
        byzantine_count=result.byzantine.count,
        realized_ratio=result.byzantine.realized_ratio,
        keep_exceeds_honest=config.keep > honest if config.method.filtered else None,
        wall_ms=wall_ms,
        status="diverged" if result.diverged else "ok",
    )
    return row, records


def _row_path(out_dir: str, fingerprint: str) -> str:
    return os.path.join(out_dir, "cells", f"{fingerprint}.json")


def _rounds_path(out_dir: str, fingerprint: str) -> str:
    return os.path.join(out_dir, "rounds", f"{fingerprint}.csv")


def _load_finished(out_dir: str, cells: list[Cell]) -> dict[str, SummaryRow]:
    """Rows of cells that finished (ok or diverged) in an earlier run, keyed by
    fingerprint; a failed cell's files are on disk too, but it runs again."""
    finished: dict[str, SummaryRow] = {}
    for cell in cells:
        row_path = _row_path(out_dir, cell.fingerprint)
        if not (os.path.exists(row_path) and os.path.exists(_rounds_path(out_dir, cell.fingerprint))):
            continue
        try:
            rows = read_summary_rows(row_path)
        except Exception:  # noqa: BLE001 - a corrupt row file means "recompute"
            continue
        if (
            len(rows) == 1
            and rows[0].fingerprint == cell.fingerprint
            and rows[0].status in ("ok", "diverged")
        ):
            finished[cell.fingerprint] = rows[0]
    return finished


def row_sort_key(row: SummaryRow):
    return (row.attack, row.method, row.requested_ratio, row.beta, row.seed, row.fingerprint)


class _Lane:
    """One worker process and the cells it holds, oldest first.

    The worker runs its cells in order, so the oldest unfinished one is the
    cell it is running.
    """

    def __init__(self):
        self.pool = ProcessPoolExecutor(max_workers=1, initializer=pin_heap_thresholds)
        self.held: list[tuple[Future, Cell]] = []

    def submit(self, cells: list[Cell]):
        for cell in cells:
            try:
                future = self.pool.submit(run_cell, cell)
            except Exception as exc:  # noqa: BLE001 - a broken pool, a worker that cannot start
                future = Future()
                future.set_exception(exc)
            self.held.append((future, cell))

    def release(self, count: int) -> list[Cell]:
        """Take back up to `count` of the newest cells, those not yet started.

        A cancelled cell stays listed in the pool until the worker reaches
        it. If the worker dies first, CPython 3.11.7's pool thread fails the
        cells before it and then prints an InvalidStateError traceback.
        """
        cut = len(self.held) - count
        kept, released = self.held[:cut], []
        for future, cell in self.held[cut:]:
            if future.cancel():
                released.append(cell)
            else:
                kept.append((future, cell))
        self.held = kept
        return released

    def restart(self):
        """Replace a dead worker and hand the new one every cell still held."""
        self.pool.shutdown()
        self.pool = ProcessPoolExecutor(max_workers=1, initializer=pin_heap_thresholds)
        cells = [cell for _, cell in self.held]
        self.held = []
        self.submit(cells)


def _run_lanes(pending: list[Cell], lanes: int, record, fail):
    """Run `pending` on `lanes` single-worker pools, one environment per worker.

    The cells of one environment are adjacent in `pending`. A lane down to
    its last cell takes the next whole group, so its queue never runs dry and
    one worker builds that environment. Once no group is left, a lane that
    runs dry takes the newer half of the busiest lane's cells, those of them
    that have not started. A lane whose worker dies fails only the cell it
    was running and restarts with the rest, so every death costs at least
    one cell and no lane is lost.
    """
    grouped = groupby(pending, key=lambda cell: environment_key(cell.run_config))
    groups = deque(list(group) for _, group in grouped)
    running = [_Lane() for _ in range(lanes)]
    try:
        while True:
            for lane in running:
                if groups and len(lane.held) <= 1:
                    lane.submit(groups.popleft())
                elif not groups and not lane.held:
                    busiest = max(running, key=lambda other: len(other.held))
                    lane.submit(busiest.release(len(busiest.held) // 2))
            oldest = [lane.held[0][0] for lane in running if lane.held]
            if not oldest:
                return
            wait(oldest, return_when=FIRST_COMPLETED)
            for lane in running:
                while lane.held and lane.held[0][0].done():
                    future, cell = lane.held.pop(0)
                    try:
                        outcome = future.result()
                    except Exception as exc:  # noqa: BLE001 - a lost cell must not kill the sweep
                        fail(cell, exc)
                        if isinstance(exc, BrokenProcessPool):
                            lane.restart()
                        continue
                    record(*outcome)
    finally:
        for lane in running:
            lane.pool.shutdown(cancel_futures=True)


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

    In parallel, each worker takes whole environment groups (`_run_lanes`),
    so one worker builds each environment, and only the sweep's tail is split
    across workers. If a worker dies (killed by the OS, say), the cell it was
    running gets a failed row but no cell file, so `--resume` runs it again;
    a fresh worker takes the cells it held, and summary.json is written all
    the same.
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

    def fail(cell: Cell, exc: Exception):
        error = f"{type(exc).__name__}: {exc}"
        collect(SummaryRow(**_labels(cell), status="failed", error=error))

    if parallelism <= 1 or len(pending) <= 1:
        pin_heap_thresholds()
        for cell in pending:
            record(*run_cell(cell))
    else:
        _run_lanes(pending, min(parallelism, len(pending)), record, fail)

    ordered = sorted(rows.values(), key=row_sort_key)
    write_summary_json(ordered, os.path.join(out_dir, "summary.json"))
    return ordered
