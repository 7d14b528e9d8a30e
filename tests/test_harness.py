from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from byzbench import flsim
from byzbench.errors import ConfigError, FormatError, IoError
from byzbench.flsim import RoundRecord, ceil_ratio, run_to_result
from byzbench.harness import sweep
from byzbench.harness.cli import main
from byzbench.harness.config import (
    ExperimentConfig,
    parse_config,
    parse_config_dict,
    to_json,
)
from byzbench.harness.reporting import (
    ROUND_COLUMNS,
    read_summary_rows,
    render_report,
    write_round_csv,
    write_summary_json,
)
from byzbench.harness.sweep import (
    SummaryRow,
    cell_fingerprint,
    expand_cells,
    pin_heap_thresholds,
    row_sort_key,
    run_cell,
    run_sweep,
)

_SMALL = {
    "dataset": {"kind": "synthetic", "n": 400, "dim": 6, "classes": 2, "separation": 4.0},
    "clients": 4,
    "batch_size": 8,
    "rounds": 2,
    "min_client_size": 8,
}


def _sweep_dict(**extra) -> dict:
    out = dict(_SMALL)
    out.update(extra)
    return out


def _record(i: int, acc=None) -> RoundRecord:
    return RoundRecord(
        round_index=i,
        train_loss=1.1 + 0.01 * i,
        test_accuracy=acc,
        selected=() if i % 2 else (0, 1, 2),  # odd rounds: an empty intersection
        filter_precision=1.0,
        filter_recall=0.75,
        aggregate_norm=2.5,
        pass_segments=((0, 5),),
        wall={"total": 0.002},
    )


def _row(fingerprint="f" * 64, **overrides) -> SummaryRow:
    base = dict(
        fingerprint=fingerprint,
        attack="SignFlip",
        method="H+GM",
        requested_ratio=0.2,
        beta=0.6,
        seed=0,
        max_accuracy=0.9,
        final_accuracy=0.85,
        empty_intersections=0,
        mean_precision=1.0,
        mean_recall=0.8,
        byzantine_count=2,
        realized_ratio=0.31,
        keep_exceeds_honest=True,
        wall_ms=12.5,
    )
    base.update(overrides)
    return SummaryRow(**base)


# -------------------------------------------------------------------- config


def test_config_defaults():
    cfg = parse_config_dict({})
    assert cfg.clients == 20 and cfg.rounds == 100
    assert cfg.attacks == (None,)
    assert cfg.methods[0].label == "Mean"
    assert cfg.hplus.passes == 3 and cfg.hplus.segment_len == 50
    assert cfg.betas == (0.6,) and cfg.seeds == (0,)


def test_config_unknown_keys_carry_paths():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=r"hplus\.Q"):
        parse_config_dict({"hplus": {"Q": 4}})
    with pytest.raises(ConfigError, match=r"attacks\[0\]\.typo"):
        parse_config_dict({"attacks": [{"kind": "gaussian", "typo": 1}]})
    with pytest.raises(ConfigError, match=r"attacks\[0\]\.variance: does not apply"):
        parse_config_dict({"attacks": [{"kind": "signflip", "variance": 1.0}]})


def test_config_rejects_bool_as_int():
    with pytest.raises(ConfigError, match="clients"):
        parse_config_dict({"clients": True})


def test_config_attack_forms():
    cfg = parse_config_dict(
        {
            "attacks": [
                "none",
                "signflip",
                "negated-mean",
                {"kind": "gaussian", "variance": 50.0},
                {"kind": "foe", "scale": -2.5},
            ]
        }
    )
    kinds = [a.kind if a else None for a in cfg.attacks]
    assert kinds == [None, "signflip", "negated_mean", "gaussian", "foe"]
    assert cfg.attacks[3].variance == 50.0
    assert cfg.attacks[4].foe_scale == -2.5
    with pytest.raises(ConfigError, match=r"attacks\[0\]"):
        parse_config_dict({"attacks": ["meteor"]})


def test_config_method_forms():
    cfg = parse_config_dict(
        {
            "clean": {"kind": "server", "fraction": 0.02},
            "methods": [
                "gm",
                "h+gm",
                "h+clean",
                {"filtered": True, "base": "krum", "assumed_byzantine": 2},
            ],
        }
    )
    assert [m.label for m in cfg.methods] == ["GM", "H+GM", "H+Clean data", "H+Krum"]
    assert cfg.methods[2].reference == "server_clean"
    assert cfg.methods[3].base.assumed_byzantine == 2
    with pytest.raises(ConfigError, match=r"methods\[0\]"):
        parse_config_dict({"methods": ["sorcery"]})
    with pytest.raises(ConfigError, match=r"^methods\[1\]\.reference: a bare method builds no"):
        parse_config_dict({"methods": ["gm", {"base": "mean", "reference": "trusted"}]})


def test_config_model_names():
    assert parse_config_dict({"model": {"kind": "mlp"}}).model.kind == "mlp1"
    assert parse_config_dict({"model": {"kind": "mlp1", "hidden": 8}}).model.hidden == 8
    with pytest.raises(ConfigError, match=r"model\.kind"):
        parse_config_dict({"model": {"kind": "transformer"}})


def test_config_cross_field_clean_requirements():
    with pytest.raises(ConfigError, match="clean"):
        parse_config_dict({"methods": ["fltrust"]})
    with pytest.raises(ConfigError, match="clean"):
        parse_config_dict({"methods": ["h+clean"]})
    with pytest.raises(ConfigError, match=r"methods\[1\]: 'H\+FLTrust' needs clean.kind = server"):
        parse_config_dict({"methods": ["mean", "h+fltrust"]})
    with pytest.raises(ConfigError, match="trusted"):
        parse_config_dict({"methods": ["h+trusted"], "clean": {"kind": "server"}})
    cfg = parse_config_dict(
        {"methods": ["h+trusted"], "clean": {"kind": "trusted", "clients": [0, 1]}}
    )
    assert cfg.clean.clients == (0, 1)
    with pytest.raises(ConfigError, match=r"clean\.clients\[1\]"):
        parse_config_dict(
            {"clients": 4, "methods": ["h+trusted"], "clean": {"kind": "trusted", "clients": [0, 9]}}
        )


def test_config_scalars_promote_to_tuples():
    cfg = parse_config_dict({"beta": 0.2, "seeds": 3, "ratios": 0.1})
    assert cfg.betas == (0.2,) and cfg.seeds == (3,) and cfg.ratios == (0.1,)


def test_config_range_checks():
    with pytest.raises(ConfigError, match=r"ratios\[0\]"):
        parse_config_dict({"ratios": [1.0]})
    with pytest.raises(ConfigError, match=r"hplus\.N"):
        parse_config_dict({"clients": 4, "hplus": {"N": 9}})
    with pytest.raises(ConfigError, match="beta"):
        parse_config_dict({"beta": [-0.5]})


# Krum at f = ceil(0.6 * 5) = 3 needs 6 clients, and H+Mean at ratio 0.9
# would keep N = 5 - ceil(4.5) = 0 clients per window.
_NEVER_RUNS = {
    "clients": 5, "attacks": ["signflip"], "ratios": [0.6, 0.9], "methods": ["krum", "h+mean"]
}


def test_config_rejects_cells_that_could_never_run():
    demo = _NEVER_RUNS
    with pytest.raises(ConfigError, match=r"^methods\[0\]: krum needs clients >= f \+ 3"):
        parse_config_dict(demo)
    assert parse_config_dict(dict(demo, methods=[{"base": "krum", "assumed_byzantine": 2}]))
    # a bare method needs no N
    h_mean = dict(demo, methods=["h+mean"])
    with pytest.raises(ConfigError, match=r"^ratios\[1\]: H\+Mean would keep N = 0"):
        parse_config_dict(h_mean)
    assert parse_config_dict(dict(h_mean, hplus={"N": 1}))
    assert parse_config_dict(dict(demo, methods=["mean"]))
    # the controls of a "none" attack run at ratio 0
    assert parse_config_dict(dict(h_mean, attacks=["none"]))


def test_config_rejects_an_empty_test_split():
    tiny = dict(_SMALL, dataset={"kind": "synthetic", "n": 20, "dim": 3, "classes": 10})
    with pytest.raises(ConfigError, match=r"^dataset\.test_fraction: .* empty test split"):
        parse_config_dict(tiny)


def test_config_rejects_methods_that_share_a_label():
    with pytest.raises(ConfigError, match=r"^methods\[1\]: label 'GM' already used by methods\[0\]"):
        parse_config_dict({"methods": ["gm", {"base": "gm", "tolerance": 1e-3}]})
    # a second server_clean method could only differ by a base it never runs
    clean_gm = {"filtered": True, "reference": "server_clean", "base": "gm"}
    with pytest.raises(ConfigError, match=r"^methods\[1\]\.base: a server_clean reference runs no"):
        parse_config_dict({"clean": {"kind": "server"}, "methods": ["h+clean", clean_gm]})
    # an entry repeated as it is still stands for one method and one cell
    cfg = parse_config_dict({"methods": ["gm", "h+gm", {"base": "gm", "tolerance": 1e-5}]})
    assert len(expand_cells(cfg)) == 2


@pytest.mark.parametrize(
    "section, config",
    [
        pytest.param("dataset", {"dataset": {"n": 0}}, id="dataset.n"),
        pytest.param("dataset.n", {"dataset": {"n": 5, "classes": 10}}, id="dataset.n<classes"),
        pytest.param("model", {"model": {"kind": "mlp1", "hidden": 0}}, id="model.hidden"),
        pytest.param(
            "attacks[0]", {"attacks": [{"kind": "gaussian", "variance": 0}]}, id="attack.variance"
        ),
        pytest.param(
            "methods[0]", {"methods": [{"base": "gm", "tolerance": 0}]}, id="method.tolerance"
        ),
        pytest.param("hplus", {"hplus": {"K": 0}}, id="hplus.K"),
        pytest.param("hplus.N", {"hplus": {"N": 0}}, id="hplus.N"),
        pytest.param("hplus", {"hplus": {"tau": 0}}, id="hplus.tau"),
        pytest.param("lr", {"lr": {"eta0": 0}}, id="lr.eta0"),
        pytest.param("clean", {"clean": {"kind": "server", "fraction": 1.5}}, id="clean.fraction"),
    ],
)
def test_config_range_errors_carry_section_paths(section, config):
    with pytest.raises(ConfigError) as info:
        parse_config_dict(config)
    assert info.value.path.startswith(section)


def test_config_file_errors(tmp_path):
    with pytest.raises(IoError):
        parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(bad))


def test_config_serialization_round_trip(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(
            beta=[0.2, 0.6],
            ratios=[0.1, 0.4],
            seeds=[0, 1],
            attacks=["none", "signflip", {"kind": "foe", "scale": -0.1}],
            methods=["mean", "h+gm", "h+clean"],
            clean={"kind": "server", "fraction": 0.05},
            hplus={"K": 2, "r": 10, "rho": 0.0},
            lr={"eta0": 0.1, "decay": 0.01},
            eval_interval=2,
        )
    )
    again = parse_config_dict(to_json(cfg))
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(to_json(cfg)), encoding="utf-8")
    assert parse_config(str(path)) == cfg


def test_readme_schema_and_round_columns_match_the_code():
    # A changed default or round CSV column fails here until the README says so.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [schema] = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    assert parse_config_dict(json.loads(re.sub(r"//.*", "", schema))) == ExperimentConfig()
    [columns] = re.findall(r"columns\s+`([a-z_,]+)`", readme)
    assert tuple(columns.split(",")) == ROUND_COLUMNS


# --------------------------------------------------------------------- cells


# Fingerprints name output files and key resume, so the shipped configs must
# keep theirs: sha256 of the sorted fingerprints.
_SHIPPED_DIGESTS = {
    "clean-reference.json": "d6bdb6867c96a0b9",
    "headline.json": "58f554cea4779b53",
    "smoke.json": "60eaed03752825bb",
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_DIGESTS))
def test_shipped_config_fingerprints_are_pinned(name):
    cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs" / name))
    fingerprints = sorted(cell.fingerprint for cell in expand_cells(cfg))
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()[:16]
    assert digest == _SHIPPED_DIGESTS[name]
    assert parse_config_dict(to_json(cfg)) == cfg


def test_expand_counts_and_control_dedupe():
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["none", "signflip"],
            methods=["mean", "gm"],
            ratios=[0.25, 0.5],
            seeds=[0, 1],
        )
    )
    cells = expand_cells(cfg)
    # contra 2 methods x 2 seeds (ratio forced to 0), attack 2x2x2
    assert len(cells) == 4 + 8
    controls = [c for c in cells if c.run_config.attack is None]
    assert len(controls) == 4
    assert all(c.run_config.requested_ratio == 0.0 for c in controls)
    assert all(c.run_config.attack is None for c in controls)


def test_fingerprints_ignore_source_key_order():
    a = parse_config_dict(_sweep_dict(attacks=["signflip"], ratios=[0.25]))
    shuffled = dict(reversed(list(_sweep_dict(attacks=["signflip"], ratios=[0.25]).items())))
    b = parse_config_dict(shuffled)
    fps_a = sorted(c.fingerprint for c in expand_cells(a))
    fps_b = sorted(c.fingerprint for c in expand_cells(b))
    assert fps_a == fps_b


def test_fingerprints_react_to_semantic_changes():
    base = expand_cells(parse_config_dict(_sweep_dict()))[0]
    changed = expand_cells(parse_config_dict(_sweep_dict(rounds=3)))[0]
    assert base.fingerprint != changed.fingerprint
    assert base.run_config.seed != changed.run_config.seed  # seeds derive from fp


def _cell_environment(cell) -> tuple:
    """What a cell shares with the cells that differ from it only in method."""
    run = cell.run_config
    return (run.attack_label, run.requested_ratio, run.beta, cell.seed)


def test_cells_differing_only_in_method_share_a_seed():
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["none", "signflip", "lie"],
            methods=["mean", "median", "h+gm", "h+mca"],
            ratios=[0.25, 0.5],
            beta=[0.3, 0.6],
            seeds=[0, 1],
        )
    )
    cells = expand_cells(cfg)
    assert {c.fingerprint: c.run_config.seed for c in cells} == {
        c.fingerprint: c.run_config.seed for c in expand_cells(cfg)
    }
    seeds: dict[tuple, set[int]] = {}
    for cell in cells:
        seeds.setdefault(_cell_environment(cell), set()).add(cell.run_config.seed)
    assert all(len(group) == 1 for group in seeds.values())  # paired across methods
    assert len({seed for group in seeds.values() for seed in group}) == len(seeds)
    assert len(seeds) == 2 * 2 * (1 + 2 * 2)  # betas x seeds x (control + attacks x ratios)
    # the cells of one environment come out next to each other
    order = [_cell_environment(cell) for cell in cells]
    assert len([i for i in range(1, len(order)) if order[i] != order[i - 1]]) == len(seeds) - 1


def test_fingerprint_is_whitespace_independent():
    desc = {"b": 1, "a": [1, 2]}
    assert cell_fingerprint(desc) == cell_fingerprint(json.loads('{ "a": [1, 2],   "b": 1 }'))


# ----------------------------------------------------------------- reporting


def _read_rounds(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == ROUND_COLUMNS
        return list(reader)


def test_round_csv_round_trip(tmp_path):
    records = [_record(0, acc=None), _record(1, acc=0.8125)]
    path = str(tmp_path / "rounds.csv")
    write_round_csv(records, path)
    first_line = open(path, encoding="utf-8").readline().rstrip("\n")
    assert first_line == ",".join(ROUND_COLUMNS)
    back = _read_rounds(path)
    assert [int(r["round"]) for r in back] == [0, 1]
    assert back[0]["test_acc"] == ""
    assert float(back[1]["test_acc"]) == 0.8125
    assert float(back[0]["train_loss"]) == records[0].train_loss
    assert back[0]["empty_intersection"] == "0" and back[1]["empty_intersection"] == "1"
    assert int(back[0]["n_selected"]) == 3 and int(back[1]["n_selected"]) == 0
    assert float(back[1]["wall_ms"]) == 2.0


def test_round_csv_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_round_csv([], path)
    assert _read_rounds(path) == []


def test_summary_round_trip(tmp_path):
    rows = [
        _row(),
        _row(
            fingerprint="a" * 64,
            attack="None",
            status="failed",
            error="InsufficientClients: boom",
            max_accuracy=None,
            final_accuracy=None,
            empty_intersections=None,
            mean_precision=None,
            mean_recall=None,
            byzantine_count=None,
            realized_ratio=None,
            keep_exceeds_honest=None,
        ),
        _row(fingerprint="b" * 64, method="Median", keep_exceeds_honest=None),
    ]
    path = str(tmp_path / "summary.json")
    write_summary_json(rows, path)
    assert read_summary_rows(path) == rows


def test_summary_format_errors(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(FormatError, match="array"):
        read_summary_rows(str(path))
    path.write_text("[{\"status\": \"weird\"}]", encoding="utf-8")
    with pytest.raises(FormatError):
        read_summary_rows(str(path))
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError, match="invalid JSON"):
        read_summary_rows(str(path))
    with pytest.raises(IoError):
        read_summary_rows(str(tmp_path / "gone.json"))


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "summary.json"
    write_summary_json([_row()], str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError):
        write_summary_json([_row(), _row(fingerprint="a" * 64)], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["summary.json"]


def _report_row(
    method, seed, max_accuracy, final_accuracy, attack="SignFlip", byzantine_count=2, **overrides
):
    fields = dict(
        fingerprint=f"{attack}-{method}-{seed}",
        attack=attack,
        method=method,
        seed=seed,
        max_accuracy=max_accuracy,
        final_accuracy=final_accuracy,
        byzantine_count=byzantine_count,
        realized_ratio=None if byzantine_count is None else byzantine_count / 10,
        keep_exceeds_honest=None,
    )
    fields.update(overrides)
    return _row(**fields)


_REPORT_ROWS = [
    _report_row("Mean", 0, 0.91, 0.90, attack="None", byzantine_count=0),
    _report_row("GM", 0, 0.70, 0.65),
    _report_row("GM", 1, 0.60, 0.40, byzantine_count=3),
    _report_row(
        "GM", 2, None, None, status="failed", error="boom",
        empty_intersections=None, mean_precision=None, mean_recall=None, byzantine_count=None,
    ),
    _report_row("H+GM", 0, 0.90, 0.88, keep_exceeds_honest=True),
    _report_row(
        "H+GM", 1, 0.55, 0.20, byzantine_count=3, status="diverged", keep_exceeds_honest=False
    ),
    _report_row("H+GM", 2, 0.85, 0.84, byzantine_count=3, keep_exceeds_honest=False),
    _report_row("H+Clean data", 0, 0.88, None, keep_exceeds_honest=False),
]

_REPORT_TEXT = """\
# byzbench report

Max accuracy is the best evaluated round of a cell, so it selects on the test set;
final accuracy is the last evaluated round. Means and range are over seeds, failed
cells excluded. H+X - X is the mean paired difference in max accuracy over the
seeds that both methods have, and wins counts the seeds where H+X is higher.
Precision is an H+ method's mean filter precision, with in brackets the honest
base rate 1 - B/M that keeping clients at random would reach.

## None, ratio 0.2, beta 0.6: byzantine [0, 0], realized ratio [0.000, 0.000]

| method | cells | max acc | range | final acc | H+X - X | wins | precision | flags |
|---|---:|---:|---:|---:|---:|---:|---:|---|
| Mean | 1 | 0.910 | [0.910, 0.910] | 0.900 |  |  |  |  |

## SignFlip, ratio 0.2, beta 0.6: byzantine [2, 3], realized ratio [0.200, 0.300]

| method | cells | max acc | range | final acc | H+X - X | wins | precision | flags |
|---|---:|---:|---:|---:|---:|---:|---:|---|
| GM | 3 | 0.650 | [0.600, 0.700] | 0.525 |  |  |  | 1 failed |
| H+Clean data | 1 | 0.880 | [0.880, 0.880] | n/a |  |  |  |  |
| H+GM | 3 | 0.767 | [0.550, 0.900] | 0.640 | +0.075 | 1/2 |  | 1 diverged, 1 keep>honest |
"""


def test_report_text_is_pinned():
    # H+GM's seed 2 has no bare GM partner (that cell failed), so the
    # difference is (0.90 - 0.70 + 0.55 - 0.60) / 2 over seeds 0 and 1. Its
    # final accuracy averages all three seeds, the diverged one included.
    assert render_report(_REPORT_ROWS) == _REPORT_TEXT
    assert render_report(_REPORT_ROWS[::-1]) == _REPORT_TEXT
    shuffled = list(_REPORT_ROWS)
    np.random.default_rng(5).shuffle(shuffled)
    assert render_report(shuffled) == _REPORT_TEXT


def test_report_puts_precision_beside_its_base_rate():
    # B = 3 of M = 20 clients: keeping clients at random is right 17/20 of the time.
    lie = [
        _report_row("H+GM", seed, 0.9, 0.9, attack="LIE", byzantine_count=3, clients=20,
                    mean_precision=precision)
        for seed, precision in ((0, 0.86), (1, 0.88))
    ]
    bare = _report_row("GM", 0, 0.9, 0.9, attack="LIE", byzantine_count=3, clients=20)
    report = render_report([*lie, bare])
    assert "| H+GM | 2 | 0.900 | [0.900, 0.900] | 0.900 | +0.000 | 0/1 | 0.87 (0.85) |  |" in report
    assert "| GM | 1 | 0.900 | [0.900, 0.900] | 0.900 |  |  |  |  |" in report


def test_report_leaves_precision_out_when_a_row_lacks_the_client_count():
    rows = [
        _report_row("H+GM", 0, 0.9, 0.9, byzantine_count=3, clients=20, mean_precision=0.86),
        _report_row("H+GM", 1, 0.9, 0.9, byzantine_count=3, mean_precision=0.88),
    ]
    assert "| H+GM | 2 | 0.900 | [0.900, 0.900] | 0.900 |  |  |  |  |" in render_report(rows)


def test_summary_rows_record_the_client_count(tmp_path):
    cfg = parse_config_dict(_sweep_dict(attacks=["signflip"], methods=["h+gm"], ratios=[0.25]))
    [row] = run_sweep(cfg, str(tmp_path / "out"))
    assert row.clients == 4
    assert read_summary_rows(str(tmp_path / "out" / "summary.json")) == [row]


# --------------------------------------------------------------------- sweep


def _strip_wall(rows):
    return [
        {k: v for k, v in row.__dict__.items() if k != "wall_ms"} for row in rows
    ]


def test_run_sweep_sequential(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(attacks=["none", "signflip"], methods=["mean"], ratios=[0.25], seeds=[0])
    )
    out = str(tmp_path / "out")
    rows = run_sweep(cfg, out)
    assert len(rows) == 2
    assert rows == sorted(rows, key=row_sort_key)
    assert all(row.status == "ok" for row in rows)
    for row in rows:
        assert os.path.exists(os.path.join(out, "cells", f"{row.fingerprint}.json"))
        assert os.path.exists(os.path.join(out, "rounds", f"{row.fingerprint}.csv"))
    assert read_summary_rows(os.path.join(out, "summary.json")) == rows


def test_run_sweep_resume_recomputes_only_missing(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(attacks=["none", "signflip"], methods=["mean"], ratios=[0.25], seeds=[0])
    )
    out = str(tmp_path / "out")
    first = run_sweep(cfg, out)
    victim = first[0].fingerprint
    os.remove(os.path.join(out, "cells", f"{victim}.json"))

    recomputed = []
    second = run_sweep(cfg, out, resume=True, progress=lambda row: recomputed.append(row))
    assert [row.fingerprint for row in recomputed] == [victim]
    assert _strip_wall(second) == _strip_wall(first)


def test_run_sweep_resume_fills_the_client_count_of_older_rows(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(attacks=["none", "signflip"], methods=["h+gm"], ratios=[0.25], seeds=[0])
    )
    out = str(tmp_path / "out")
    first = run_sweep(cfg, out)
    for row in first:  # cell files as written before rows carried `clients`
        path = os.path.join(out, "cells", f"{row.fingerprint}.json")
        with open(path, encoding="utf-8") as handle:
            [item] = json.load(handle)
        del item["clients"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([item], handle)

    recomputed = []
    resumed = run_sweep(cfg, out, resume=True, progress=recomputed.append)
    assert recomputed == []
    assert all(row.clients == 4 for row in resumed)
    assert _strip_wall(resumed) == _strip_wall(first)
    assert read_summary_rows(os.path.join(out, "summary.json")) == resumed


def test_run_sweep_resume_retries_failed_cells(tmp_path, monkeypatch):
    cfg = parse_config_dict(
        _sweep_dict(attacks=["none", "signflip"], methods=["mean"], ratios=[0.25], seeds=[0])
    )
    out = str(tmp_path / "out")

    def fail_attacked(config):
        if config.attack is not None:
            raise FileNotFoundError("data not there yet")
        return run_to_result(config)

    monkeypatch.setattr(sweep, "run_to_result", fail_attacked)
    first = run_sweep(cfg, out)
    [failed] = [row for row in first if row.status == "failed"]
    assert os.path.exists(os.path.join(out, "cells", f"{failed.fingerprint}.json"))
    assert os.path.exists(os.path.join(out, "rounds", f"{failed.fingerprint}.csv"))

    monkeypatch.setattr(sweep, "run_to_result", run_to_result)
    recomputed = []
    resumed = run_sweep(cfg, out, resume=True, progress=recomputed.append)
    assert [row.fingerprint for row in recomputed] == [failed.fingerprint]
    assert _strip_wall(resumed) == _strip_wall(run_sweep(cfg, str(tmp_path / "fresh")))


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def test_pinned_heap_maps_every_big_array():
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc >= 2.33")
    mallinfo2.restype = _Mallinfo2
    pin_heap_thresholds()
    pin_heap_thresholds()  # idempotent
    size = 16 << 20
    first = np.ones(size // 8)
    del first  # unpinned, this free would raise the threshold past 16 MB
    before = mallinfo2().hblkhd
    second = np.ones(size // 8)
    assert mallinfo2().hblkhd - before >= size
    del second


def test_run_sweep_parallel_matches_sequential(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["none", "signflip"], methods=["mean", "median"], ratios=[0.25], seeds=[0]
        )
    )
    seq = run_sweep(cfg, str(tmp_path / "seq"))
    par = run_sweep(cfg, str(tmp_path / "par"), parallelism=2)
    assert _strip_wall(par) == _strip_wall(seq)


def test_run_sweep_fltrust_reference_cell_finishes(tmp_path):
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["lie"],
            methods=["h+fltrust"],
            ratios=[0.25],
            seeds=[0],
            clean={"kind": "server", "fraction": 0.05},
        )
    )
    rows = run_sweep(cfg, str(tmp_path / "out"))
    assert [(row.method, row.status) for row in rows] == [("H+FLTrust", "ok")]


def test_run_sweep_captures_cell_failures(tmp_path):
    # 4 clients of at least 80 samples fit the 320 training samples only if
    # the Dirichlet draw splits them exactly evenly, which only the partition
    # draw finds out: the cell must fail, not the sweep
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["signflip"], methods=["krum"], ratios=[0.25], seeds=[0], min_client_size=80
        )
    )
    rows = run_sweep(cfg, str(tmp_path / "out"))
    assert len(rows) == 1
    assert rows[0].status == "failed"
    assert "InfeasiblePartition" in rows[0].error
    row = rows[0]
    assert (row.attack, row.method, row.requested_ratio, row.beta, row.seed) == (
        "SignFlip", "Krum", 0.25, 0.6, 0
    )


def _row_environment(row: SummaryRow) -> tuple:
    return (row.attack, row.requested_ratio, row.beta, row.seed)


def test_smoke_sweep_pairs_methods_and_records_caveats(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    smoke = json.loads((configs / "smoke.json").read_text(encoding="utf-8"))
    smoke["methods"] = ["mean", "median", "h+gm", "h+median"]
    cfg = parse_config_dict(smoke)
    rows = run_sweep(cfg, str(tmp_path / "out"))
    assert len(rows) == 8 and all(row.status == "ok" for row in rows)

    groups: dict[tuple, list] = {}
    for cell in expand_cells(cfg):
        result = run_to_result(cell.run_config)
        groups.setdefault(_cell_environment(cell), []).append((cell, result))
    assert len(groups) == 2
    for pairs in groups.values():
        results = [result for _, result in pairs]
        assert len({frozenset(r.byzantine.members) for r in results}) == 1
        filtered = [result for cell, result in pairs if cell.run_config.method.filtered]
        segments = {tuple(rec.pass_segments for rec in r.records) for r in filtered}
        assert len(segments) == 1 and () not in next(iter(segments))
    attacked = next(pairs for env, pairs in groups.items() if env[0] == "SignFlip")
    assert attacked[0][1].byzantine.count > 0

    default_keep = cfg.clients - ceil_ratio(0.4, cfg.clients)
    for row in rows:
        peers = [other for other in rows if _row_environment(other) == _row_environment(row)]
        assert {(p.byzantine_count, p.realized_ratio) for p in peers} == {
            (row.byzantine_count, row.realized_ratio)
        }
        assert row.realized_ratio >= row.requested_ratio
        if row.method.startswith("H+"):
            keep = default_keep if row.attack != "None" else cfg.clients
            assert row.keep_exceeds_honest == (keep > cfg.clients - row.byzantine_count)
        else:
            assert row.keep_exceeds_honest is None
    assert read_summary_rows(os.path.join(str(tmp_path / "out"), "summary.json")) == rows


def test_library_result_reports_the_summary_accuracies():
    configs = Path(__file__).resolve().parent.parent / "configs"
    cfg = parse_config(str(configs / "smoke.json"))
    for cell in expand_cells(cfg):
        result = run_to_result(cell.run_config)
        row, _ = run_cell(cell)
        assert row.status == "ok"
        assert (result.max_accuracy, result.final_accuracy) == (
            row.max_accuracy, row.final_accuracy
        ), row.method


def test_sequential_sweep_builds_each_environment_once(tmp_path, monkeypatch):
    builds = []
    build = flsim.build_environment
    monkeypatch.setattr(flsim, "build_environment", lambda key: builds.append(key) or build(key))
    monkeypatch.setattr(flsim, "_cached", None)
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["none", "signflip"],
            methods=["mean", "median", "h+gm"],
            ratios=[0.25],
            seeds=[0, 1],
        )
    )
    rows = run_sweep(cfg, str(tmp_path / "out"))
    assert len(rows) == 12
    assert len(builds) == len({_row_environment(row) for row in rows}) == 4
    assert len(set(builds)) == 4


def _die_on_attacked_cells(cell):
    if cell.run_config.attack is not None:
        os._exit(3)
    return run_cell(cell)


def test_run_sweep_survives_a_dead_worker(tmp_path, monkeypatch):
    cfg = parse_config_dict(
        _sweep_dict(attacks=["none", "signflip"], methods=["mean", "median"], ratios=[0.25])
    )
    out = str(tmp_path / "out")
    monkeypatch.setattr(sweep, "run_cell", _die_on_attacked_cells)
    rows = run_sweep(cfg, out, parallelism=2)
    assert len(rows) == 4
    assert read_summary_rows(os.path.join(out, "summary.json")) == rows
    lost = [row for row in rows if row.status == "failed"]
    assert {row.attack for row in lost} >= {"SignFlip"}
    for row in lost:
        assert row.error.startswith("BrokenProcessPool")
        assert row.max_accuracy is None and row.byzantine_count is None
        assert not os.path.exists(os.path.join(out, "cells", f"{row.fingerprint}.json"))

    monkeypatch.setattr(sweep, "run_cell", run_cell)
    resumed = run_sweep(cfg, out, resume=True)
    assert all(row.status == "ok" for row in resumed)
    assert _strip_wall(resumed) == _strip_wall(run_sweep(cfg, str(tmp_path / "fresh")))



def _count_builds(monkeypatch, tmp_path) -> Path:
    """Log the pid of every environment build, forked workers' included."""
    log = tmp_path / "builds.log"
    log.touch()
    build = flsim.build_environment

    def counting(key):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return build(key)

    monkeypatch.setattr(flsim, "build_environment", counting)
    monkeypatch.setattr(flsim, "_cached", None)
    return log


def test_parallel_sweep_builds_each_environment_in_one_worker(tmp_path, monkeypatch):
    log = _count_builds(monkeypatch, tmp_path)
    cfg = parse_config_dict(
        _sweep_dict(
            attacks=["none", "signflip"],
            methods=["mean", "median", "h+gm"],
            ratios=[0.25],
            seeds=[0, 1, 2],
        )
    )
    groups = len({flsim.environment_key(cell.run_config) for cell in expand_cells(cfg)})
    par = run_sweep(cfg, str(tmp_path / "par"), parallelism=2)
    assert (groups, len(par)) == (6, 18)
    # workers sharing one queue would each build nearly every environment
    assert len(log.read_text().split()) <= groups + 2
    monkeypatch.setattr(flsim, "_cached", None)
    assert _strip_wall(par) == _strip_wall(run_sweep(cfg, str(tmp_path / "seq")))


_SIX_METHODS = ["mean", "median", "gm", "cclip", "mca", "h+gm"]


def test_one_environment_is_split_between_the_workers(tmp_path, monkeypatch):
    # The first worker gets the whole group; the second takes its newer half,
    # which has not started, and builds the environment too.
    log = _count_builds(monkeypatch, tmp_path)
    cfg = parse_config_dict(
        _sweep_dict(attacks=["signflip"], methods=_SIX_METHODS, ratios=[0.25], seeds=[0])
    )
    rows = run_sweep(cfg, str(tmp_path / "out"), parallelism=2)
    assert len(rows) == 6 and all(row.status == "ok" for row in rows)
    builds = log.read_text().split()
    assert len(builds) == 2 and len(set(builds)) == 2


def _die_on_median(cell):
    if cell.run_config.method.label == "Median":
        os._exit(3)
    return run_cell(cell)


def test_a_dead_worker_fails_only_its_running_cell(tmp_path, monkeypatch):
    # Median is the second cell of the only group, so the worker that dies
    # on it has been handed the third one too.
    cfg = parse_config_dict(
        _sweep_dict(attacks=["signflip"], methods=_SIX_METHODS, ratios=[0.25], seeds=[0])
    )
    out = str(tmp_path / "out")
    monkeypatch.setattr(sweep, "run_cell", _die_on_median)
    rows = run_sweep(cfg, out, parallelism=2)
    assert read_summary_rows(os.path.join(out, "summary.json")) == rows
    [lost] = [row for row in rows if row.status != "ok"]
    assert lost.method == "Median" and lost.status == "failed"
    assert lost.error.startswith("BrokenProcessPool")
    assert not os.path.exists(os.path.join(out, "cells", f"{lost.fingerprint}.json"))
    assert len(rows) == 6

    monkeypatch.setattr(sweep, "run_cell", run_cell)
    recomputed = []
    resumed = run_sweep(cfg, out, resume=True, progress=recomputed.append)
    assert [row.fingerprint for row in recomputed] == [lost.fingerprint]
    assert _strip_wall(resumed) == _strip_wall(run_sweep(cfg, str(tmp_path / "fresh")))


# ----------------------------------------------------------------------- cli


def _write_cfg(tmp_path, name="cfg.json", **extra) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(_sweep_dict(**extra)), encoding="utf-8")
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write_cfg(tmp_path, attacks=["none", "signflip"], ratios=[0.25])
    assert main(["validate", "--config", path]) == 0
    assert "2 cells" in capsys.readouterr().out


def test_cli_run_and_report(tmp_path, capsys):
    path = _write_cfg(tmp_path, attacks=["none", "signflip"], ratios=[0.25])
    out = str(tmp_path / "results")
    assert main(["run", "--config", path, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "2 cells" in captured and "0 failed" in captured
    assert main(["report", "--summary", os.path.join(out, "summary.json")]) == 0
    report = capsys.readouterr().out
    assert "\n## SignFlip, ratio 0.25, beta 0.6: byzantine [" in report
    assert "\n| Mean | 1 | " in report


def test_cli_run_reports_failures(tmp_path):
    path = _write_cfg(
        tmp_path, attacks=["signflip"], methods=["krum"], ratios=[0.25], min_client_size=80
    )
    assert main(["run", "--config", path, "--out", str(tmp_path / "results")]) == 2


def test_cli_validate_rejects_cells_that_could_never_run(tmp_path, capsys):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(_NEVER_RUNS), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: methods[0]: ")


def test_validate_rejects_more_client_samples_than_the_partition_has(tmp_path, capsys):
    # 400 samples of 2 classes: the 20% test split leaves 160 of each, and a
    # 5% server shard takes 8 of those, so 304 remain for the 4 clients.
    shard = {"clean": {"kind": "server", "fraction": 0.05}}
    assert parse_config_dict(_sweep_dict(min_client_size=76, **shard))
    assert parse_config_dict(_sweep_dict(min_client_size=80))
    with pytest.raises(ConfigError, match=r"^min_client_size: clients \(4\) x min_client_size "
                       r"\(77\) exceeds the 304 samples left to partition"):
        parse_config_dict(_sweep_dict(min_client_size=77, **shard))
    # The default, 2 * batch_size = 64, for 100 clients wants 6,400 of 5,600.
    path = tmp_path / "many.json"
    many = dict(_sweep_dict(clients=100, batch_size=32), min_client_size=None)
    many["dataset"] = dict(many["dataset"], n=7000)
    path.write_text(json.dumps(many), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: min_client_size: ")


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"unknown_key": 1}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


def test_cli_report_errors(tmp_path, capsys):
    assert main(["report", "--summary", str(tmp_path / "missing.json")]) == 1
    assert "missing.json" in capsys.readouterr().err
    summary = tmp_path / "summary.json"
    summary.write_text('[{"status": "weird"}]', encoding="utf-8")
    assert main(["report", "--summary", str(summary)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_out_dir_precedence(tmp_path, monkeypatch, capsys):
    path = _write_cfg(tmp_path, methods=["mean"], rounds=1)
    env_dir = str(tmp_path / "from-env")
    monkeypatch.setenv("BYZ_BENCH_OUT", env_dir)
    assert main(["run", "--config", path]) == 0
    assert os.path.exists(os.path.join(env_dir, "summary.json"))
    cli_dir = str(tmp_path / "from-cli")
    assert main(["run", "--config", path, "--out", cli_dir]) == 0
    assert os.path.exists(os.path.join(cli_dir, "summary.json"))


def test_experiment_config_is_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(AttributeError):
        cfg.clients = 5
