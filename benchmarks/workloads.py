"""The benchmark's workloads: sweep configs generated from a workload seed.

Each workload is a closed-loop batch job: one benchmark process starts one
sweep at a time and waits for it. The program only ever sees the generated
config file; the workload seed decides the sweep's master seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

_SEED_SPACE = 2**31 - 1

# The filter keeps N = 10 of 20 clients, at or below the worst-case honest
# count for the ratios used here (the shipped headline config pins it too).
_HPLUS = {"K": 3, "r": 50, "N": 10, "rho": 10.0, "tau": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    parallel: int
    config: dict  # everything except "seeds"
    n_seeds: int

    def seeds(self, workload_seed: int) -> list[int]:
        base = (int(workload_seed) * self.n_seeds) % _SEED_SPACE
        return [(base + i) % _SEED_SPACE for i in range(self.n_seeds)]

    def sweep_config(self, workload_seed: int) -> dict:
        return {**self.config, "seeds": self.seeds(workload_seed)}

    @property
    def expected_cells(self) -> int:
        """Cells the harness must report: a "none" attack collapses its ratios."""
        cfg = self.config
        attacked = sum(1 for a in cfg["attacks"] if a != "none") * len(cfg["ratios"])
        controls = 1 if "none" in cfg["attacks"] else 0
        return len(cfg["methods"]) * (attacked + controls) * self.n_seeds

    @property
    def rounds(self) -> int:
        return self.config["rounds"]

    def write_config(self, workload_seed: int, path: str) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.sweep_config(workload_seed), handle, indent=1)
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="softmax-sweep",
            parallel=2,
            # configs/headline.json with one seed, copied so that the workload
            # stays fixed when the shipped sample changes. Per-client gradient
            # loop and generator setup dominate.
            config={
                "dataset": {"kind": "synthetic", "n": 5000, "dim": 20, "classes": 10,
                            "separation": 4.0},
                "model": {"kind": "softmax"},
                "clients": 20,
                "batch_size": 32,
                "rounds": 100,
                "beta": 0.6,
                "ratios": [0.2, 0.4],
                "attacks": ["none", "gaussian", "signflip", "lie", "foe"],
                "methods": ["mean", "median", "krum", "gm", "mca", "cclip",
                            "h+median", "h+krum", "h+gm", "h+mca", "h+cclip"],
                "hplus": _HPLUS,
                "lr": {"eta0": 0.2, "decay": 0.006},
            },
            n_seeds=1,
        ),
        Workload(
            name="wide-model",
            # p = 7818 at one worker: aggregators and the filter reference
            # dominate. Rounds are sized so that two sweeps fit in a run.
            parallel=1,
            config={
                "dataset": {"kind": "synthetic", "n": 5000, "dim": 50, "classes": 10,
                            "separation": 4.0},
                "model": {"kind": "mlp1", "hidden": 128},
                "clients": 20,
                "batch_size": 32,
                "rounds": 8,
                "beta": 0.6,
                "ratios": [0.4],
                "attacks": ["none", "signflip", "lie", "foe"],
                "methods": ["mean", "median", "krum", "gm", "mca",
                            "h+median", "h+krum", "h+gm", "h+mca"],
                "hplus": _HPLUS,
            },
            n_seeds=3,
        ),
        Workload(
            name="setup-heavy",
            # n = 40000, short cells: data generation, partitioning, per-cell
            # setup and evaluation dominate. The only clean-shard workload.
            parallel=2,
            config={
                "dataset": {"kind": "synthetic", "n": 40000, "dim": 50, "classes": 10,
                            "separation": 4.0},
                "model": {"kind": "softmax"},
                "clients": 20,
                "batch_size": 32,
                "rounds": 10,
                "beta": 0.6,
                "ratios": [0.4],
                "attacks": ["none", "signflip", "lie", "foe"],
                "methods": ["mean", "median", "gm", "cclip", "h+median", "h+gm",
                            "h+cclip", "fltrust", "h+clean"],
                "clean": {"kind": "server", "fraction": 0.02},
                "hplus": _HPLUS,
            },
            n_seeds=3,
        ),
    )
}
