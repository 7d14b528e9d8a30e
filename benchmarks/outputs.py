"""Output checks and the determinism digest of one finished sweep.

The benchmark reads only what a user would read: `summary.json` and the
round CSVs. Wall-clock fields are stripped before hashing, so two runs of
the same code on the same config must give the same digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field


def _is_timing(key: str) -> bool:
    return key.startswith("wall") or key.endswith(("_ms", "_s", "_seconds"))


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if not _is_timing(k)}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


@dataclass
class SweepOutputs:
    """What one sweep left on disk, plus every problem found in it."""

    rows: list
    rounds: int  # rounds actually simulated, summed over the round CSVs
    digest: str
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if row.get("status") == "failed")

    @property
    def cell_ms(self) -> list[float]:
        return [float(row["wall_ms"]) for row in self.rows]

    @property
    def max_accuracy_mean(self) -> float:
        accs = [row["max_accuracy"] for row in self.rows if row.get("max_accuracy") is not None]
        return sum(accs) / len(accs) if accs else float("nan")


def read_sweep(out_dir: str, expected_cells: int, rounds_per_cell: int) -> SweepOutputs:
    """Load and check a finished sweep's summary and round CSVs."""
    problems = []
    digest = hashlib.sha256()
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        rows = json.load(handle)
    digest.update(json.dumps(_strip_timing(rows), sort_keys=True).encode())
    if len(rows) != expected_cells:
        problems.append(f"summary has {len(rows)} cells, expected {expected_cells}")
    if len({row["fingerprint"] for row in rows}) != len(rows):
        problems.append("duplicate fingerprints in summary")

    total_rounds = 0
    for row in sorted(rows, key=lambda r: r["fingerprint"]):
        status = row.get("status")
        if status not in ("ok", "diverged"):
            problems.append(f"cell {row['fingerprint'][:12]} has status {status}: {row.get('error')}")
            continue
        acc = row.get("max_accuracy")
        if acc is None or not 0.0 <= acc <= 1.0:
            problems.append(f"cell {row['fingerprint'][:12]} has max_accuracy {acc}")
        path = os.path.join(out_dir, "rounds", f"{row['fingerprint']}.csv")
        with open(path, encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        keep = [i for i, name in enumerate(table[0]) if not _is_timing(name)]
        for line in table:
            digest.update((",".join(line[i] for i in keep) + "\n").encode())
        n_rounds = len(table) - 1
        total_rounds += n_rounds
        if n_rounds > rounds_per_cell or (status == "ok" and n_rounds != rounds_per_cell):
            problems.append(f"cell {row['fingerprint'][:12]} ({status}) ran {n_rounds} rounds")
    return SweepOutputs(rows, total_rounds, digest.hexdigest(), problems)


def source_hash(src_dir: str) -> str:
    """Hash of every source file under src/, naming the code that ran."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def check_digest_history(path: str, key: str, digest: str) -> str | None:
    """Record `digest` under `key`; return a problem if the key had another one.

    The key names the code and the inputs (source hash, workload, seed), so a
    mismatch means two runs of the same code on the same config disagree.
    """
    history = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    seen = history.setdefault(key, digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
    if seen != digest:
        return f"digest {digest[:16]} differs from an earlier run's {seen[:16]} ({key})"
    return None
