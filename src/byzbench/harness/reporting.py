"""Metrics persistence (round CSV, summary JSON) and SVG accuracy plots.

File contracts:
  - round CSV: a header of `ROUND_COLUMNS`, then one row per round, UTF-8,
    LF. Floats are written with repr() so a rerun of the same experiment is
    bitwise identical (wall_ms excepted, by nature).
  - summary JSON: a top-level array of `SummaryRow` objects with snake_case
    keys.
  - plots: self-contained SVG, one <polyline> per series, y range
    [0, max * 1.05], legend labeled by method.

Every file is written to a temporary file beside it and then renamed over
the target, so a killed process leaves either the old file or the new one.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
from xml.sax.saxutils import escape

from ..errors import EmptyPlot, FormatError, IoError
from ..flsim import RoundRecord


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


# One entry per round CSV column, in file order: (name, the cell text of a
# RoundRecord, the value of a cell text).
_ROUND_TABLE = (
    ("round", lambda r: str(r.round_index), int),
    ("train_loss", lambda r: repr(r.train_loss), float),
    ("test_acc", lambda r: "" if r.test_accuracy is None else repr(r.test_accuracy), _optional_float),
    ("n_selected", lambda r: str(r.n_selected), int),
    ("empty_intersection", lambda r: str(int(r.empty_intersection)), lambda t: bool(int(t))),
    ("filter_precision", lambda r: repr(r.filter_precision), float),
    ("filter_recall", lambda r: repr(r.filter_recall), float),
    ("wall_ms", lambda r: repr(r.wall_ms), float),
)

ROUND_COLUMNS = tuple(name for name, _, _ in _ROUND_TABLE)

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


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
        lines.append(",".join(text(rec) for _, text, _ in _ROUND_TABLE))
    _write_text(path, "\n".join(lines) + "\n")


def read_round_csv(path: str) -> list[dict]:
    """Round CSV -> list of dicts with native types (test_acc None if blank)."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != ROUND_COLUMNS:
                raise FormatError(f"{path}: unexpected round CSV header {header!r}")
            out = []
            for line in reader:
                if len(line) != len(ROUND_COLUMNS):
                    raise FormatError(f"{path}: row has {len(line)} fields")
                out.append(
                    {name: parse(cell) for (name, _, parse), cell in zip(_ROUND_TABLE, line)}
                )
            return out
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -------------------------------------------------------------- summary JSON


@dataclasses.dataclass(frozen=True)
class SummaryRow:
    """One sweep cell's outcome; the unit of summary.json.

    max_accuracy and final_accuracy cover the evaluated rounds only, so they
    are None for a cell that evaluated none. ExperimentResult.max_accuracy
    also counts the accuracy before the first round.
    """

    fingerprint: str
    attack: str
    method: str
    requested_ratio: float
    beta: float
    seed: int
    max_accuracy: float | None
    final_accuracy: float | None
    empty_intersections: int | None
    mean_precision: float | None
    mean_recall: float | None
    wall_ms: float | None
    status: str = "ok"
    error: str | None = None

    def __post_init__(self):
        if self.status not in ("ok", "diverged", "failed"):
            raise ValueError(f"unknown status {self.status!r}")
        for value in (self.mean_precision, self.mean_recall):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError("precision/recall must lie in [0, 1]")


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


# ----------------------------------------------------------------- SVG plots


def _format_num(value: float) -> str:
    return f"{value:g}"


def _render_svg(series: list, x_label: str, y_label: str) -> str:
    """series: [(label, [(x, y), ...]), ...] -> SVG text."""
    series = [(label, pts) for label, pts in series if pts]
    if not series:
        raise EmptyPlot("nothing to plot")

    width, height = 640.0, 420.0
    left, right, top, bottom = 62.0, 16.0, 18.0, 46.0
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    if x_min == x_max:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    y_top = max(ys) * 1.05
    if y_top <= 0.0:
        y_top = 1.0

    def sx(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return top + (1.0 - y / y_top) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    ticks = 5
    for i in range(ticks + 1):
        frac = i / ticks
        gx = x_min + frac * (x_max - x_min)
        px = sx(gx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" y2="{top + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 18}" text-anchor="middle">{_format_num(gx)}</text>'
        )
        gy = frac * y_top
        py = sy(gy)
        parts.append(f'<line x1="{left - 4}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end">{_format_num(gy)}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.2f})">{escape(y_label)}</text>'
    )

    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')

    legend_x = left + plot_w - 150.0
    for idx, (label, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = top + 10 + 16 * idx
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{ly:.2f}" x2="{legend_x + 18:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{legend_x + 24:.2f}" y="{ly + 4:.2f}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_summary_rows(rows: list, path: str):
    """Max accuracy vs Byzantine ratio, one series per method label.

    Cells sharing (method, ratio) across seeds, betas, and attacks are
    averaged. Failed cells are skipped.
    """
    grouped: dict[str, dict[float, list[float]]] = {}
    for row in rows:
        if row.status == "failed" or row.max_accuracy is None:
            continue
        grouped.setdefault(row.method, {}).setdefault(row.requested_ratio, []).append(
            row.max_accuracy
        )
    series = [
        (method, [(ratio, sum(vals) / len(vals)) for ratio, vals in sorted(points.items())])
        for method, points in sorted(grouped.items())
    ]
    _write_text(path, _render_svg(series, "Byzantine ratio", "max test accuracy"))


def plot_round_series(named_records: list, path: str):
    """Test accuracy vs round; named_records = [(label, round dicts), ...]."""
    series = []
    for label, records in named_records:
        pts = [(rec["round"], rec["test_acc"]) for rec in records if rec["test_acc"] is not None]
        series.append((label, pts))
    _write_text(path, _render_svg(series, "round", "test accuracy"))
