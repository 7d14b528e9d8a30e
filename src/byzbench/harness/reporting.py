"""Metrics persistence (round CSV, summary JSON) and the Markdown report.

File contracts:
  - round CSV: a header of `ROUND_COLUMNS`, then one row per round, UTF-8,
    LF. Floats are written with repr() so a rerun of the same experiment is
    bitwise identical (wall_ms excepted, by nature).
  - summary JSON: a top-level array of `SummaryRow` objects with snake_case
    keys.

Every file is written to a temporary file beside it and then renamed over
the target, so a killed process leaves either the old file or the new one.
`render_report` turns summary rows into Markdown text and writes nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os

from ..errors import FormatError, IoError
from ..flsim import RoundRecord

# One entry per round CSV column, in file order: (name, the cell text of a
# RoundRecord).
_ROUND_TABLE = (
    ("round", lambda r: str(r.round_index)),
    ("train_loss", lambda r: repr(r.train_loss)),
    ("test_acc", lambda r: "" if r.test_accuracy is None else repr(r.test_accuracy)),
    ("n_selected", lambda r: str(r.n_selected)),
    ("empty_intersection", lambda r: str(int(r.empty_intersection))),
    ("filter_precision", lambda r: repr(r.filter_precision)),
    ("filter_recall", lambda r: repr(r.filter_recall)),
    ("wall_ms", lambda r: repr(r.wall_ms)),
)

ROUND_COLUMNS = tuple(name for name, _ in _ROUND_TABLE)


def _write_text(path: str, text: str):
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(path, str(exc)) from exc


# ----------------------------------------------------------------- round CSV


def write_round_csv(records: list[RoundRecord], path: str):
    lines = [",".join(ROUND_COLUMNS)]
    for rec in records:
        lines.append(",".join(text(rec) for _, text in _ROUND_TABLE))
    _write_text(path, "\n".join(lines) + "\n")


# -------------------------------------------------------------- summary JSON


@dataclasses.dataclass(frozen=True)
class SummaryRow:
    """One sweep cell's outcome; the unit of summary.json.

    max_accuracy and final_accuracy cover the evaluated rounds only, so they
    are None for a cell that evaluated none. byzantine_count and
    realized_ratio are the compromised set the run drew, out of `clients`,
    which can exceed the request; keep_exceeds_honest says, for a filtered
    method, whether the filter keeps more clients per window than there are
    honest ones, so that it must admit attackers. All outcome fields are None
    for a failed cell.
    """

    fingerprint: str
    attack: str
    method: str
    requested_ratio: float
    beta: float
    seed: int
    clients: int | None = None
    max_accuracy: float | None = None
    final_accuracy: float | None = None
    empty_intersections: int | None = None
    mean_precision: float | None = None
    mean_recall: float | None = None
    byzantine_count: int | None = None
    realized_ratio: float | None = None
    keep_exceeds_honest: bool | None = None
    wall_ms: float | None = None
    status: str = "ok"
    error: str | None = None

    def __post_init__(self):
        if self.status not in ("ok", "diverged", "failed"):
            raise ValueError(f"unknown status {self.status!r}")
        for value in (self.mean_precision, self.mean_recall, self.realized_ratio):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError("precision, recall and realized ratio must lie in [0, 1]")


def write_summary_json(rows: list[SummaryRow], path: str):
    payload = [dataclasses.asdict(row) for row in rows]
    _write_text(path, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def read_summary_rows(path: str) -> list[SummaryRow]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise FormatError(f"{path}: expected a top-level array")
    try:
        return [SummaryRow(**item) for item in payload]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ----------------------------------------------------------- Markdown report


def _span(values: list, fmt: str) -> str:
    return f"[{min(values):{fmt}}, {max(values):{fmt}}]" if values else "n/a"


def _mean(values: list) -> str:
    return f"{sum(values) / len(values):.3f}" if values else "n/a"


def render_report(rows: list[SummaryRow]) -> str:
    """Markdown comparison of methods, one section per sweep condition.

    A section holds the rows of one (attack, requested ratio, beta); its
    heading gives the range of the compromised count and ratio that the
    cells drew, which can exceed the request. Each method label gets a row
    with its cell count; the mean and range over seeds of max accuracy and
    the mean of final accuracy, failed cells excluded; for a label H+X whose
    bare X is in the section, the mean of H+X - X in max accuracy over the
    seeds both have and the number of those seeds where H+X is higher; for a
    filtered label, the mean filter precision beside the mean honest base
    rate 1 - B/M, the precision that keeping clients at random would get
    (left out when one of the rows does not record `clients`); and its
    failed, diverged and keep > honest cell counts. The text depends on the
    rows, not on their order.
    """
    sections: dict[tuple, dict[str, list[SummaryRow]]] = {}
    for row in sorted(
        rows, key=lambda r: (r.attack, r.requested_ratio, r.beta, r.method, r.seed, r.fingerprint)
    ):
        sections.setdefault((row.attack, row.requested_ratio, row.beta), {}).setdefault(
            row.method, []
        ).append(row)

    lines = [
        "# byzbench report",
        "",
        "Max accuracy is the best evaluated round of a cell, so it selects on the test set;",
        "final accuracy is the last evaluated round. Means and range are over seeds, failed",
        "cells excluded. H+X - X is the mean paired difference in max accuracy over the",
        "seeds that both methods have, and wins counts the seeds where H+X is higher.",
        "Precision is an H+ method's mean filter precision, with in brackets the honest",
        "base rate 1 - B/M that keeping clients at random would reach.",
    ]
    for (attack, ratio, beta), methods in sections.items():
        done = [r for group in methods.values() for r in group if r.status != "failed"]
        counts = [r.byzantine_count for r in done if r.byzantine_count is not None]
        realized = [r.realized_ratio for r in done if r.realized_ratio is not None]
        lines += [
            "",
            f"## {attack}, ratio {ratio:g}, beta {beta:g}: byzantine {_span(counts, 'd')}, "
            f"realized ratio {_span(realized, '.3f')}",
            "",
            "| method | cells | max acc | range | final acc | H+X - X | wins | precision | flags |",
            "|---|---:|---:|---:|---:|---:|---:|---:|---|",
        ]
        accuracy = {
            label: {
                r.seed: r.max_accuracy
                for r in group
                if r.status != "failed" and r.max_accuracy is not None
            }
            for label, group in methods.items()
        }
        for label, group in methods.items():
            values = list(accuracy[label].values())
            finals = [
                r.final_accuracy
                for r in group
                if r.status != "failed" and r.final_accuracy is not None
            ]
            diff = wins = ""
            bare = accuracy.get(label[2:]) if label.startswith("H+") else None
            if bare is not None:
                pairs = [acc - bare[seed] for seed, acc in accuracy[label].items() if seed in bare]
                wins = f"{sum(d > 0.0 for d in pairs)}/{len(pairs)}"
                if pairs:
                    diff = f"{sum(pairs) / len(pairs):+.3f}"
            precision = ""
            scored = [r for r in group if r.mean_precision is not None]
            # Rows written before summary rows carried `clients` have no base
            # rate; the column stays empty rather than average fewer cells.
            if label.startswith("H+") and scored and all(r.clients for r in scored):
                kept = sum(r.mean_precision for r in scored) / len(scored)
                base = sum(1.0 - r.byzantine_count / r.clients for r in scored) / len(scored)
                precision = f"{kept:.2f} ({base:.2f})"
            flags = [
                f"{count} {name}"
                for name, count in (
                    ("failed", sum(r.status == "failed" for r in group)),
                    ("diverged", sum(r.status == "diverged" for r in group)),
                    ("keep>honest", sum(bool(r.keep_exceeds_honest) for r in group)),
                )
                if count
            ]
            lines.append(
                f"| {label} | {len(group)} | {_mean(values)} | {_span(values, '.3f')} "
                f"| {_mean(finals)} | {diff} | {wins} | {precision} | {', '.join(flags)} |"
            )
    return "\n".join(lines) + "\n"
