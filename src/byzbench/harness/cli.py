"""`byzbench` command line: run sweeps, validate configs, report results.

Exit codes for `run`: 0 when every cell finished (ok or diverged), 2 when any
cell failed, 1 on config or I/O errors. `validate` and `report` use 0/1. Only
`run` loads numpy and the engine; `validate`, `report` and `--version` do not.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ByzBenchError, ConfigError
from .config import expand_cells, parse_config
from .reporting import provenance, read_summary_rows, render_report

ENV_OUT = "BYZ_BENCH_OUT"


class _Version(argparse.Action):
    """--version: the versions and source hash, computed only when asked; a
    run names the source hash and numpy version in every summary row."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print("\n".join(f"{key} {value}" for key, value in provenance().items()))
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzbench",
        description="Deterministic federated-learning robustness sweeps.",
    )
    parser.add_argument(
        "--version", action=_Version,
        help="print the byzbench, Python and numpy versions and the source hash",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every cell of a sweep config")
    run.add_argument("--config", required=True, help="path to a JSON sweep config")
    run.add_argument("--out", help=f"output directory (overrides ${ENV_OUT} and the config)")
    run.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")
    run.add_argument("--resume", action="store_true", help="skip cells that already finished")

    validate = sub.add_parser("validate", help="parse a config and report the cell count")
    validate.add_argument("--config", required=True, help="path to a JSON sweep config")

    report = sub.add_parser("report", help="print a Markdown comparison of a sweep's methods")
    report.add_argument("--summary", required=True, help="path to a sweep's summary.json")
    return parser


def _resolve_out_dir(cli_out: str | None, config_out: str | None) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(ENV_OUT)
    if env:
        return env
    if config_out:
        return config_out
    return "byzbench-out"


def _cmd_run(args) -> int:
    from .sweep import run_sweep  # loads numpy and the engine, which only `run` needs

    config = parse_config(args.config)
    out_dir = _resolve_out_dir(args.out, config.out_dir)

    def progress(row):
        print(f"[{row.status:>8}] {row.attack:<12} {row.method:<14} "
              f"ratio={row.requested_ratio:g} beta={row.beta:g} seed={row.seed}")

    rows = run_sweep(
        config,
        out_dir,
        parallelism=max(1, args.parallel),
        resume=args.resume,
        progress=progress,
    )
    counts = {status: 0 for status in ("ok", "diverged", "failed")}
    for row in rows:
        counts[row.status] += 1
    print(
        f"{len(rows)} cells -> {counts['ok']} ok, {counts['diverged']} diverged, "
        f"{counts['failed']} failed; summary: {os.path.join(out_dir, 'summary.json')}"
    )
    return 2 if counts["failed"] else 0


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    cells = expand_cells(config)
    print(f"{args.config}: ok ({len(cells)} cells)")
    return 0


def _cmd_report(args) -> int:
    print(render_report(read_summary_rows(args.summary)), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ByzBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
