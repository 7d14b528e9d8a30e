"""Sweep orchestration: run a config's cells, persist rows.

`harness.config` expands a sweep into fingerprinted cells (`expand_cells`);
this module runs them, in this process or in worker processes, and writes
every output file.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from itertools import groupby

from ..flsim import RoundRecord, run_to_result
from .config import Cell, ExperimentConfig, expand_cells
from .reporting import (
    SummaryRow,
    provenance,
    read_summary_rows,
    write_round_csv,
    write_summary_json,
)


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
        clients=config.clients,
    )


def _failed_row(cell: Cell, exc: Exception, wall_ms: float | None = None) -> SummaryRow:
    """The row of a cell that raised `exc`, or that a dead worker took with it."""
    error = f"{type(exc).__name__}: {exc}"
    return SummaryRow(**_labels(cell), wall_ms=wall_ms, status="failed", error=error)


def run_cell(cell: Cell) -> tuple[SummaryRow, list[RoundRecord]]:
    """Execute one cell; never raises, failures land in the row's status."""
    start = time.perf_counter()
    try:
        result = run_to_result(cell.run_config)
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        return _failed_row(cell, exc, 1000.0 * (time.perf_counter() - start)), []
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


def _load_finished(out_dir: str, cells: list[Cell], stamp: dict[str, str]) -> dict[str, SummaryRow]:
    """Rows of cells that finished (ok or diverged) in an earlier run of this
    code, keyed by fingerprint: a cell is reused when its cell file and round
    CSV exist and its row parses and names the cell's fingerprint, a finished
    status and `stamp`'s sources and numpy. Every other cell runs again: a
    failed one (its files are on disk too), and one written by other code or
    another numpy, or by code whose rows did not name them."""
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
            and (rows[0].sources, rows[0].numpy) == (stamp["sources"], stamp["numpy"])
        ):
            finished[cell.fingerprint] = rows[0]
    return finished


def row_sort_key(row: SummaryRow):
    return (row.attack, row.method, row.requested_ratio, row.beta, row.seed, row.fingerprint)


class _Lane:
    """One worker process and the cells it holds, oldest first. The worker
    needs no set-up: each run pins its own heap (`flsim.Simulation`).

    At most two held cells are `submitted`: the one the worker runs and the
    next, waiting in the pool's call queue so the worker never waits for the
    parent. The rest stay `queued` in the parent, where another lane can take
    them without cancelling anything in the pool.
    """

    def __init__(self):
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.submitted: list[tuple[Future, Cell]] = []
        self.queued: list[Cell] = []

    @property
    def load(self) -> int:
        return len(self.submitted) + len(self.queued)

    def top_up(self):
        """Submit queued cells, oldest first, until two are submitted."""
        while len(self.submitted) < 2 and self.queued:
            cell = self.queued.pop(0)
            try:
                future = self.pool.submit(run_cell, cell)
            except Exception as exc:  # noqa: BLE001 - a broken pool, a worker that cannot start
                future = Future()
                future.set_exception(exc)
            self.submitted.append((future, cell))

    def release(self, count: int) -> list[Cell]:
        """Give up to `count` of the newest queued cells, oldest first."""
        cut = max(len(self.queued) - count, 0)
        released = self.queued[cut:]
        del self.queued[cut:]
        return released

    def restart(self):
        """Replace a dead worker; the cells it had been handed queue again."""
        self.pool.shutdown()
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.queued[:0] = [cell for _, cell in self.submitted]
        self.submitted = []


def _run_lanes(pending: list[Cell], lanes: int, record, fail):
    """Run `pending` on `lanes` single-worker pools, one environment per worker.

    The cells of one environment are adjacent in `pending`. A lane down to
    its last cell takes the next whole group, so its queue never runs dry and
    one worker builds that environment. Once no group is left, a lane that
    runs dry takes the newer half of the busiest lane's cells, as far as
    they are still queued in the parent. A lane whose worker dies fails only
    the cell it was running and restarts with the rest, so every death costs
    at least one cell and no lane is lost.
    """
    grouped = groupby(pending, key=lambda cell: cell.run_config.environment_key)
    groups = deque(list(group) for _, group in grouped)
    running = [_Lane() for _ in range(lanes)]
    try:
        while True:
            for lane in running:
                if groups and lane.load <= 1:
                    lane.queued.extend(groups.popleft())
                elif not groups and not lane.load:
                    busiest = max(running, key=lambda other: other.load)
                    lane.queued.extend(busiest.release(busiest.load // 2))
                lane.top_up()
            oldest = [lane.submitted[0][0] for lane in running if lane.submitted]
            if not oldest:
                return
            wait(oldest, return_when=FIRST_COMPLETED)
            for lane in running:
                while lane.submitted and lane.submitted[0][0].done():
                    future, cell = lane.submitted.pop(0)
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

    All file writes happen here in the calling process; workers only compute,
    and every run pins its own process's heap (`flsim.Simulation`). Rows come
    back sorted on a canonical key, so sequential and parallel runs of the
    same config produce identical summary files.

    In parallel, each worker takes whole environment groups (`_run_lanes`),
    so one worker builds each environment, and only the sweep's tail is split
    across workers. If a worker dies (killed by the OS, say), the cell it was
    running gets a failed row but no cell file, so `--resume` runs it again;
    a fresh worker takes the cells it held, and summary.json is written all
    the same.

    Every row this run writes names the `sources` and `numpy` of this code
    (`provenance`, computed here once; workers never hash the sources).
    `resume` reuses exactly the cells whose row names this code, this numpy,
    the cell's fingerprint and a finished status (`_load_finished`), and
    runs every other cell, so summary.json holds only rows of this code.
    """
    cells = expand_cells(config)
    code = provenance()
    stamp = {"sources": code["sources"], "numpy": code["numpy"]}
    rows = _load_finished(out_dir, cells, stamp) if resume else {}
    pending = [cell for cell in cells if cell.fingerprint not in rows]

    def collect(row: SummaryRow):
        rows[row.fingerprint] = row
        if progress is not None:
            progress(row)

    def record(row: SummaryRow, records: list[RoundRecord]):
        row = dataclasses.replace(row, **stamp)
        write_round_csv(records, _rounds_path(out_dir, row.fingerprint))
        write_summary_json([row], _row_path(out_dir, row.fingerprint))
        collect(row)

    def fail(cell: Cell, exc: Exception):
        collect(dataclasses.replace(_failed_row(cell, exc), **stamp))

    if parallelism <= 1 or len(pending) <= 1:
        for cell in pending:
            record(*run_cell(cell))
    else:
        _run_lanes(pending, min(parallelism, len(pending)), record, fail)

    ordered = sorted(rows.values(), key=row_sort_key)
    write_summary_json(ordered, os.path.join(out_dir, "summary.json"))
    return ordered
