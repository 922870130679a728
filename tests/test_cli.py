"""End-to-end tests through the argparse front end.

Everything runs in-process via main(argv) so coverage and speed stay
reasonable; one subprocess smoke test confirms `python3 -m emis` wires up.
"""

import json
import os
import re
import resource
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from emis import cli, evaluation, harness, training
from emis.cli import build_parser, main
from emis.data import (FeatureBank, SynthSpec, TripletRecord, TripletSet, ids_sidecar,
                       read_feature_bank, write_feature_bank, write_triplets)
from emis.harness import RUN_KEY_TYPES, RunConfig, make_run_config
from emis.head import SCORE_TILE, Flavor, HeadDims, init_params, save_checkpoint
from emis.numerics import NORM_ROWS

from conftest import one_hot_attention_params, traced_peak

SYNTH_FLAGS = ["--seed", "1", "--n-train", "48", "--n-eval", "5",
               "--n-val", "3", "--gallery-size", "250"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One small synthetic dataset shared by the module, built via the CLI."""
    out = tmp_path_factory.mktemp("ds")
    code = main(["synth", "--out", str(out)] + SYNTH_FLAGS)
    assert code == 0
    paths = {p.stem.split(".")[0]: str(p) for p in out.iterdir()}
    return out


def config_file(path: Path, dataset: Path, **extra) -> str:
    lines = [f"{key} = {dataset / name}" for key, name in
             (("refs", "refs.afb"), ("mods", "mods.afb"),
              ("targets", "targets.afb"), ("triplets", "triplets.jsonl"),
              ("subsets", "subsets.jsonl"))]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_synth_prints_manifest_and_writes_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                           *SYNTH_FLAGS)
    assert code == 0
    manifest = json.loads(out)
    assert sorted(manifest) == ["latents", "mods", "refs", "subsets",
                                "targets", "triplets"]
    for path in manifest.values():
        assert Path(path).exists()


def test_train_eval_round_trip(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset,
                      epochs=2, batch_size=16, monitor="val")
    ckpt = tmp_path / "head.ahp"
    logs = tmp_path / "epochs.jsonl"
    code, out, _ = run_cli(capsys, "train", "--config", cfg,
                           "--checkpoint", str(ckpt), "--logs", str(logs))
    assert code == 0
    assert "trained artemis for 2 epochs" in out
    assert "best r_at_10 on val" in out
    assert ckpt.exists()
    assert len(logs.read_text().splitlines()) == 2

    metrics = tmp_path / "metrics.json"
    code, out, _ = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(ckpt),
                           "--metrics-out", str(metrics))
    assert code == 0
    assert "== artemis ==" in out
    payload = json.loads(metrics.read_text())
    for key in ("r_at_1", "r_at_5", "r_at_10", "r_at_50", "median_rank"):
        assert key in payload["metrics"]
    assert payload["n_queries"] == 5


def test_same_seed_runs_are_bit_identical(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=2, batch_size=16)
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ahp"
        metrics = tmp_path / f"{tag}.json"
        assert run_cli(capsys, "train", "--config", cfg,
                       "--checkpoint", str(ckpt))[0] == 0
        assert run_cli(capsys, "eval", "--config", cfg,
                       "--checkpoint", str(ckpt),
                       "--metrics-out", str(metrics))[0] == 0
        outputs.append((ckpt.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1]


def test_flags_override_config_file(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=9, batch_size=16)
    code, out, _ = run_cli(capsys, "train", "--config", cfg,
                           "--epochs", "1", "--flavor", "em_only",
                           "--checkpoint", str(tmp_path / "h.ahp"))
    assert code == 0
    assert "trained em_only for 1 epochs" in out


@pytest.mark.parametrize("key, value", [("lr0", "nan"), ("lr0", "inf"),
                                        ("weight_decay", "nan"), ("lr_decay", "-1")])
def test_bad_optimizer_settings_are_config_errors(dataset, tmp_path, capsys, key, value):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=2, batch_size=16,
                      **{key: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "train", "--config", cfg,
                               "--checkpoint", str(tmp_path / "h.ahp"))
    assert code == 2
    assert err.startswith(f"config error: {key} must be")
    assert not (tmp_path / "h.ahp").exists()


@pytest.mark.parametrize("extra, want", [
    # The first step leaves finite parameters near 1e300; the next forward overflows.
    ({}, "error: epoch 0, step 1: attention-weighted reference has norm nan"),
    # lr0 * weight_decay overflows, so the first step writes non-finite parameters.
    ({"weight_decay": 1e10},
     "error: epoch 0, step 1: parameter block attn_is.w1 is not finite "
     "(attention-weighted reference has norm nan)"),
], ids=["overflow", "non_finite_params"])
def test_train_error_names_the_epoch_step_and_non_finite_block(dataset, tmp_path, capsys,
                                                               extra, want):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=2, batch_size=16, lr0=1e300,
                      **extra)
    with np.errstate(all="ignore"):
        code, _, err = run_cli(capsys, "train", "--config", cfg,
                               "--checkpoint", str(tmp_path / "h.ahp"))
    assert code == 3
    assert err.strip() == want
    assert "Traceback" not in err


def test_monitor_eval_error_names_the_epoch_and_split(dataset, tmp_path, capsys):
    """One step per epoch (batch above the 48 train records) that leaves parameters
    near 1e300: the step succeeds and the val monitor eval overflows."""
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=2, batch_size=64, lr0=1e300,
                      keep_partial_batch="true")
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "train", "--config", cfg,
                                 "--checkpoint", str(tmp_path / "h.ahp"))
    assert code == 3 and out == ""
    assert err == ("error: epoch 0, monitor val: query 0 (r00048, m00048): "
                   "attention-weighted reference has norm nan\n")
    assert "Traceback" not in err


def test_train_command_holds_no_gallery_sized_float64_array(tmp_path, capsys):
    """The whole command, from loading the banks to saving the checkpoint,
    peaks at about 19 MiB against a bound of the float32 bank files plus one
    float64 gallery (G x D x 8 bytes, 23.5 MiB in all), so a gallery-sized
    float64 array kept anywhere in the call breaks it."""
    n_gallery, dim = 16000, 128
    spec = SynthSpec(n_train=64, n_eval=1, n_val=16, gallery_size=n_gallery,
                     dim_i=dim, dim_t=dim, seed=0)
    paths = harness.write_synthetic(spec, tmp_path / "ds")
    bank_bytes = sum(Path(paths[name]).stat().st_size for name in ("refs", "mods", "targets"))
    argv = ["train", "--epochs", "1", "--batch-size", "32", "--monitor", "val",
            "--checkpoint", str(tmp_path / "h.ahp")]
    for name in ("refs", "mods", "targets", "triplets", "subsets"):
        argv += [f"--{name}", paths[name]]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0, capsys.readouterr().err
    assert peak < bank_bytes + n_gallery * dim * 8


def test_eval_dump_lines(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    assert run_cli(capsys, "train", "--config", cfg,
                   "--checkpoint", str(ckpt))[0] == 0
    dump = tmp_path / "dump.jsonl"
    code, _, _ = run_cli(capsys, "eval", "--config", cfg,
                         "--checkpoint", str(ckpt),
                         "--dump", str(dump), "--top-k", "3")
    assert code == 0
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(lines) == 5
    assert all(len(l["top"]) == 3 for l in lines)


def test_shoes_and_cirr_inline_aggregates(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    assert run_cli(capsys, "train", "--config", cfg,
                   "--checkpoint", str(ckpt))[0] == 0
    code, out, _ = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(ckpt), "--convention", "shoes")
    assert code == 0
    assert "== shoes average ==" in out
    code, out, _ = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(ckpt), "--convention", "cirr")
    assert code == 0
    assert "== cirr combined ==" in out


def test_fashioniq_needs_cells(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    assert run_cli(capsys, "train", "--config", cfg,
                   "--checkpoint", str(ckpt))[0] == 0
    code, out, err = run_cli(capsys, "eval", "--config", cfg,
                             "--checkpoint", str(ckpt),
                             "--convention", "fashioniq")
    assert code == 2
    assert "--cells" in err
    assert out == ""     # refused before any query is scored


@pytest.mark.parametrize("command", ["eval", "train", "ablate"])
def test_unknown_convention_is_a_config_error_before_any_work(dataset, tmp_path, capsys,
                                                              monkeypatch, command):
    monkeypatch.setattr(cli, "load_dataset", lambda config: pytest.fail("data was loaded"))
    monkeypatch.setattr(harness, "load_dataset", lambda config: pytest.fail("data was loaded"))
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    argv = {"eval": ["--checkpoint", str(ckpt)],
            "train": ["--checkpoint", str(tmp_path / "out.ahp")],
            "ablate": ["--quiet"]}[command]
    code, out, err = run_cli(capsys, command, "--config", cfg, *argv,
                             "--convention", "bogus")
    assert code == 2 and out == ""
    assert err == ("config error: unknown convention 'bogus'; "
                   "expected one of fashioniq, shoes, cirr\n")
    assert not (tmp_path / "out.ahp").exists()


def test_cells_aggregation(tmp_path, capsys):
    values = {"dress": (20.0, 40.0), "shirt": (30.0, 50.0), "toptee": (40.0, 60.0)}
    args = []
    for name, (r10, r50) in values.items():
        cell = tmp_path / f"{name}.json"
        cell.write_text(json.dumps({"metrics": {"r_at_10": r10, "r_at_50": r50,
                                                "median_rank": 7.0}}))
        args.append(f"{name}={cell}")
    code, out, _ = run_cli(capsys, "eval", "--convention", "fashioniq",
                           "--cells", *args)
    assert code == 0
    assert "fashioniq challenge metric" in out
    assert out.rstrip().endswith("40.00")         # mean of the six cells

    code, _, err = run_cli(capsys, "eval", "--convention", "fashioniq",
                           "--cells", args[0], args[1])
    assert code == 3                              # toptee cell missing
    assert "toptee" in err

    code, _, err = run_cli(capsys, "eval", "--convention", "shoes",
                           "--cells", *args)
    assert code == 2                              # shoes takes one report


def test_cells_bad_entries(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--cells", "a=b.json")
    assert code == 2 and "--convention" in err
    code, _, err = run_cli(capsys, "eval", "--convention", "cirr",
                           "--cells", "no-equals-sign")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "--convention", "cirr",
                           "--cells", f"only={bad}")
    assert code == 3
    for name, value in zip("abcde", (10.0, 90.0, 50.0, 50.0, 70.0)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"r_at_10": value, "r_at_50": value}))
    cells = [f"{category}={tmp_path / name}.json" for category, name in
             (("dress", "a"), ("dress", "b"), ("shirt", "c"), ("toptee", "d"))]
    for argv, named in ((cells, "'dress' twice"),                        # the second would win
                        (cells[1:] + [f"pants={tmp_path / 'e.json'}"], "'pants'")):  # ignored
        code, out, err = run_cli(capsys, "eval", "--convention", "fashioniq", "--cells", *argv)
        assert code == 2 and out == ""
        assert named in err and "dress, shirt, toptee" in err
    code, out, _ = run_cli(capsys, "eval", "--convention", "fashioniq", "--cells", *cells[1:])
    assert code == 0 and out.rstrip().endswith("63.33")


SHOES_CELL = {"r_at_1": 10.0, "r_at_10": 20.0, "r_at_50": 30.0}


@pytest.mark.parametrize("raw, key", [
    (b"AHP1\xff\xfe\x00", None),                                   # not UTF-8
    (b"[1.0, 2.0]", None),                                           # a JSON list
    (json.dumps({"metrics": [1.0]}).encode(), None),                 # metrics not an object
    (json.dumps({**SHOES_CELL, "r_at_10": "20"}).encode(), "r_at_10"),
    (json.dumps({"metrics": {**SHOES_CELL, "r_at_1": None}}).encode(), "r_at_1"),
    (json.dumps({**SHOES_CELL, "r_at_50": True}).encode(), "r_at_50"),
    (json.dumps({**SHOES_CELL, "r_at_1": float("nan")}).encode(), "r_at_1"),
    (json.dumps({**SHOES_CELL, "r_at_10": float("-inf")}).encode(), "r_at_10"),
    (b'{"r_at_1": 1' + b"0" * 400 + b', "r_at_10": 2.0, "r_at_50": 3.0}', "r_at_1"),
], ids=["not-utf8", "list", "metrics-list", "string", "null", "bool", "nan", "inf",
        "huge-int"])
def test_malformed_cell_is_a_data_error_naming_file_and_key(tmp_path, capsys, raw, key):
    cell = tmp_path / "cell.json"
    cell.write_bytes(raw)
    code, out, err = run_cli(capsys, "eval", "--convention", "shoes",
                             "--cells", f"only={cell}")
    assert code == 3
    assert str(cell) in err and "Traceback" not in err
    assert key is None or repr(key) in err
    assert out == ""


def test_ablate_writes_table(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    table = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "ablate", "--config", cfg, "--quiet",
                           "--out", str(table))
    assert code == 0
    rows = json.loads(table.read_text())
    assert [row["label"] for row in rows] == [f.value for f in Flavor]
    for flavor in Flavor:
        assert flavor.value in out


def test_missing_checkpoint_is_config_error(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    code, _, err = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(tmp_path / "absent.ahp"))
    assert code == 2
    assert "config error" in err


def test_missing_banks_are_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train",
                           "--checkpoint", str(tmp_path / "h.ahp"))
    assert code == 2
    assert "refs" in err


def test_corrupt_bank_is_data_error(dataset, tmp_path, capsys):
    mangled = tmp_path / "mangled.afb"
    raw = bytearray((dataset / "refs.afb").read_bytes())
    raw[:4] = b"NOPE"
    mangled.write_bytes(raw)
    code, _, err = run_cli(capsys, "inspect-bank", str(mangled))
    assert code == 3
    assert "data error" in err


def test_non_finite_or_undecodable_bank_exits_3(dataset, tmp_path, capsys):
    raw = bytearray((dataset / "refs.afb").read_bytes())
    nan_bank = tmp_path / "nan.afb"
    dim = struct.unpack_from("<I", raw, 12)[0]
    raw[16 + 4 * (2 * dim + 1):16 + 4 * (2 * dim + 2)] = struct.pack("<f", float("nan"))
    nan_bank.write_bytes(bytes(raw))
    ids_sidecar(nan_bank).write_text(ids_sidecar(dataset / "refs.afb").read_text())
    code, _, err = run_cli(capsys, "inspect-bank", str(nan_bank))
    assert code == 3
    assert "data error" in err and "row 2" in err
    ids_sidecar(nan_bank).write_bytes(b"\xff\xfe not utf-8\n")
    code, _, err = run_cli(capsys, "inspect-bank", str(nan_bank))
    assert code == 3
    assert "data error" in err and "UTF-8" in err


@pytest.mark.parametrize("which, exit_code", [("triplets", 3), ("subsets", 3), ("config", 2)])
def test_non_utf8_input_file_exits_with_its_code(dataset, tmp_path, capsys, which, exit_code):
    bad = tmp_path / f"bad-{which}"
    bad.write_bytes(b"\xff\n")
    cfg = config_file(tmp_path / "run.cfg", dataset)
    argv = (["--config", str(bad)] if which == "config"
            else ["--config", cfg, f"--{which}", str(bad)])
    code, _, err = run_cli(capsys, "train", "--checkpoint", str(tmp_path / "h.ahp"), *argv)
    assert code == exit_code
    assert str(bad) in err and "UTF-8" in err
    assert "Traceback" not in err


def zeroed_bank(dataset, tmp_path, name, row):
    """A copy of bank ``name`` with ``row`` set to zeros, and its width."""
    raw = bytearray((dataset / f"{name}.afb").read_bytes())
    dim = struct.unpack_from("<I", raw, 12)[0]
    raw[16 + 4 * row * dim:16 + 4 * (row + 1) * dim] = bytes(4 * dim)
    bank = tmp_path / f"{name}.afb"
    bank.write_bytes(bytes(raw))
    ids_sidecar(bank).write_text(ids_sidecar(dataset / f"{name}.afb").read_text())
    return bank, dim


def first_record(dataset, split):
    """Index and record of the first triplet in ``split``."""
    lines = (dataset / "triplets.jsonl").read_text().splitlines()
    return next((i, rec) for i, rec in enumerate(map(json.loads, lines))
                if rec["split"] == split)


def test_zero_norm_target_row_is_named(dataset, tmp_path, capsys):
    targets, dim = zeroed_bank(dataset, tmp_path, "targets", 7)
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(dim, dim, dim), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--targets", str(targets),
                             "--checkpoint", str(ckpt))
    assert code == 3
    assert "targets bank row 7 (id 't00007') has norm 0.0" in err
    assert "r_at_1" not in out


@pytest.mark.parametrize("block_size", [256, 2], ids=["one-block", "three-blocks"])
def test_near_zero_target_row_exits_3_on_either_scoring_path(dataset, tmp_path, capsys,
                                                             block_size):
    """The 5 eval queries fit one block (raw gallery rows and norms) or take
    three (unit rows); a row of norm 8e-15 stops both, named."""
    raw = bytearray((dataset / "targets.afb").read_bytes())
    dim = struct.unpack_from("<I", raw, 12)[0]
    raw[16 + 4 * 7 * dim:16 + 4 * 8 * dim] = struct.pack(f"<{dim}f", *[1e-15] * dim)
    targets = tmp_path / "targets.afb"
    targets.write_bytes(bytes(raw))
    ids_sidecar(targets).write_text(ids_sidecar(dataset / "targets.afb").read_text())
    cfg = config_file(tmp_path / "run.cfg", dataset, block_size=block_size)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(dim, dim, dim), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--targets", str(targets),
                             "--checkpoint", str(ckpt))
    assert code == 3
    assert err.startswith("error: targets bank row 7 (id 't00007') has norm 8.0")
    assert out == ""


def test_train_names_a_zero_norm_target_row(dataset, tmp_path, capsys):
    _, record = first_record(dataset, "train")
    row = int(record["tgt"][1:])
    targets, _ = zeroed_bank(dataset, tmp_path, "targets", row)
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--targets", str(targets),
                           "--checkpoint", str(ckpt))
    assert code == 3
    assert f"targets bank row {row} (id {record['tgt']!r}) has norm 0.0" in err
    assert "Traceback" not in err
    assert not ckpt.exists()


@pytest.mark.parametrize("flavor, bank", [(f.value, b) for f in Flavor for b in ("refs", "mods")])
def test_eval_names_a_zero_norm_query_row(dataset, tmp_path, capsys, flavor, bank):
    """Every flavor stops on a zero query row, also one it reads only in part."""
    index, record = first_record(dataset, "test")
    gid = record["ref" if bank == "refs" else "mod"]
    zeroed, dim = zeroed_bank(dataset, tmp_path, bank, index)
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    params = init_params(HeadDims(dim, dim, dim), seed=0)
    params.proj_b[...] = 0.1   # as after training: a zero modifier projects to proj.b
    save_checkpoint(params, ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, f"--{bank}", str(zeroed),
                             "--flavor", flavor, "--checkpoint", str(ckpt))
    assert code == 3
    assert (f"query 0 ({record['ref']}, {record['mod']}): "
            f"{bank} bank row {index} (id {gid!r}) has norm 0.0") in err
    assert "r_at_1" not in out


@pytest.mark.parametrize("bank", ["refs", "mods"])
def test_train_names_a_zero_norm_query_row(dataset, tmp_path, capsys, bank):
    """late_fusion reads a zero reference or modifier row only inside a sum."""
    index, record = first_record(dataset, "train")
    gid = record["ref" if bank == "refs" else "mod"]
    zeroed, _ = zeroed_bank(dataset, tmp_path, bank, index)
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    code, _, err = run_cli(capsys, "train", "--config", cfg, f"--{bank}", str(zeroed),
                           "--flavor", "late_fusion", "--checkpoint", str(ckpt))
    assert code == 3
    assert f"{bank} bank row {index} (id {gid!r}) has norm 0.0" in err
    assert "Traceback" not in err
    assert not ckpt.exists()


@pytest.mark.parametrize("flag, value", [("--block-size", "0"), ("--block-size", "-3"),
                                         ("--workers", "0"), ("--workers", "-2"),
                                         ("--h-hidden", "-5")])
def test_bad_run_settings_are_config_errors(dataset, tmp_path, capsys, flag, value):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                             flag, value)
    assert code == 2
    assert f"{flag[2:].replace('-', '_')} must be >= " in err
    assert "Traceback" not in err and out == ""


# (key, bad value, how the error names it): every training range, seed,
# split names, and the run settings that do not depend on the data.
BAD_RUN_SETTINGS = [
    ("flavor", "bogus", "unknown flavor 'bogus'"),
    ("batch_size", "1", "batch_size must be >= 2, got 1"),
    ("lr0", "-1", "lr0 must be a positive finite number, got -1.0"),
    ("lr0", "nan", "lr0 must be a positive finite number, got nan"),
    ("lr_decay", "-1", "lr_decay must be a positive finite number, got -1.0"),
    ("lr_decay", "nan", "lr_decay must be a positive finite number, got nan"),
    ("weight_decay", "-1", "weight_decay must be a non-negative finite number, got -1.0"),
    ("weight_decay", "nan", "weight_decay must be a non-negative finite number, got nan"),
    ("epochs", "0", "epochs must be >= 1, got 0"),
    ("decay_every", "0", "decay_every must be >= 1, got 0"),
    ("seed", "-1", "seed must be >= 0, got -1"),
    ("split", "bogus", "unknown split 'bogus'"),
    ("monitor", "val,bogus", "unknown split 'bogus'"),
    ("block_size", "0", "block_size must be >= 1, got 0"),
    ("h_hidden", "-1", "h_hidden must be >= 0, got -1"),
    ("convention", "bogus", "unknown convention 'bogus'"),
    ("selection_metric", "bogus", "'bogus' not in evaluation output"),
]


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
@pytest.mark.parametrize("key, value, named", BAD_RUN_SETTINGS,
                         ids=[f"{key}={value}" for key, value, _ in BAD_RUN_SETTINGS])
def test_bad_run_setting_is_refused_before_any_input_is_read(tmp_path, capsys, command,
                                                             key, value, named):
    missing = tmp_path / "missing"
    argv = [command]
    for name in ("refs", "mods", "targets", "triplets", "subsets", "checkpoint"):
        argv += [f"--{name}", str(missing / name)]
    code, out, err = run_cli(capsys, *argv, "--" + key.replace("_", "-"), value)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and named in err
    assert str(tmp_path) not in err


@pytest.mark.parametrize("dump", [False, True], ids=["no-dump", "dump"])
def test_negative_top_k_is_refused_before_any_input_is_read(tmp_path, capsys, dump):
    missing = tmp_path / "missing"
    argv = ["eval", "--top-k", "-1"] + (["--dump", str(tmp_path / "d.jsonl")] if dump else [])
    for name in ("config", "refs", "mods", "targets", "triplets", "subsets", "checkpoint"):
        argv += [f"--{name}", str(missing / name)]
    assert run_cli(capsys, *argv) == (2, "", "config error: top-k must be >= 0, got -1\n")
    assert not (tmp_path / "d.jsonl").exists()


def test_workers_above_the_usable_cpus_is_a_config_error(dataset, tmp_path, capsys,
                                                        monkeypatch):
    """No thread is started: the pool class only records what it is given."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    cfg = config_file(tmp_path / "run.cfg", dataset, block_size=2)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    outputs = []
    for workers in ("3", "2", "1"):
        code, out, err = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                                 "--workers", workers)
        outputs.append((code, out, err))
    assert outputs[0] == (2, "", "config error: workers must be <= 2, the CPUs this "
                                 "process may use, got 3\n")
    assert outputs[1][0] == 0 and outputs[1] == outputs[2]
    assert pools == [2]


def test_eval_h_hidden_contradicting_the_checkpoint_is_a_config_error(dataset, tmp_path,
                                                                     capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                             "--h-hidden", "7")
    assert code == 2 and out == ""
    assert err == "config error: h_hidden 7 contradicts the checkpoint's h_hidden 64\n"
    for hidden in ("64", "0"):
        assert run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                       "--h-hidden", hidden)[0] == 0


def test_train_head_too_large_to_allocate_is_a_config_error(dataset, tmp_path):
    """The address-space cap is set in the child alone, so its allocation fails."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    cfg = config_file(tmp_path / "run.cfg", dataset)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "emis", "train", "--config", cfg,
         "--checkpoint", str(tmp_path / "h.ahp"), "--h-hidden", "100000000"],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("config error: h_hidden 100000000: cannot allocate the head's "
                           "25800004289 parameters and their AdamW moments\n")
    assert not (tmp_path / "h.ahp").exists()


def test_synth_with_many_flips_draws_its_decoys_without_listing_every_pattern(tmp_path):
    """2**39 - 1 flip patterns: only the capped draws are built, so 3 GiB is plenty."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "emis", "synth", "--out", str(tmp_path / "corpus"),
         "--n-attributes", "40", "--flip-count", "39"] + SYNTH_FLAGS,
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert (tmp_path / "corpus" / "targets.afb").is_file()


# Sizes of a few PiB: numpy refuses the allocation before touching memory.
@pytest.mark.parametrize("argv, sizes", [
    (["bench", "--queries", "1000000000000"],
     "--queries 1000000000000, --gallery 15000, --dim 512: cannot allocate the banks and the head"),
    (["bench", "--queries", "4", "--gallery", "1000000000000"],
     "--queries 4, --gallery 1000000000000, --dim 512: cannot allocate the banks and the head"),
    (["bench", "--dim", "100000000"],
     "--queries 12000, --gallery 15000, --dim 100000000: cannot allocate the banks and the head"),
    (["synth", "--n-train", "1000000000000000"],
     "--n-train 1000000000000000, --n-eval 40, --n-val 0, --gallery-size 1000, "
     "--n-attributes 12, --dim-i 64, --dim-t 64: cannot allocate the corpus"),
    (["synth", "--dim-i", "1000000000000000"],
     "--n-train 2000, --n-eval 40, --n-val 0, --gallery-size 1000, "
     "--n-attributes 12, --dim-i 1000000000000000, --dim-t 64: cannot allocate the corpus"),
], ids=["bench-queries", "bench-gallery", "bench-dim", "synth-n-train", "synth-dim-i"])
def test_sizes_too_large_to_allocate_are_config_errors(tmp_path, capsys, argv, sizes):
    if argv[0] == "synth":
        argv = argv + ["--out", str(tmp_path / "corpus")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"config error: {sizes}\n")
    assert not (tmp_path / "corpus" / "refs.afb").exists()
    assert not (tmp_path / "corpus").exists()   # the directory is made only after generating


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "bench", "synth", "gradcheck"])
def test_negative_seed_is_a_config_error_before_any_work(dataset, tmp_path, capsys, command):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    argv = {"train": ["--config", cfg, "--checkpoint", str(tmp_path / "out.ahp")],
            "eval": ["--config", cfg, "--checkpoint", str(ckpt)],
            "ablate": ["--config", cfg, "--quiet"],
            "bench": ["--queries", "4", "--gallery", "8", "--dim", "8", "--repeats", "1",
                      "--block-size", "4"],
            "synth": ["--out", str(tmp_path / "corpus")] + SYNTH_FLAGS[2:],
            "gradcheck": ["--instances", "1", "--large-instances", "0"]}[command]
    code, out, err = run_cli(capsys, command, *argv, "--seed", "-2")
    assert code == 2
    assert err == "config error: seed must be >= 0, got -2\n"
    assert out == ""
    assert not (tmp_path / "out.ahp").exists() and not (tmp_path / "corpus").exists()


def test_synth_onto_an_existing_file_is_a_config_error_before_generating(tmp_path, capsys,
                                                                          monkeypatch):
    def refuse(spec):
        raise AssertionError("generated a corpus")

    monkeypatch.setattr(harness, "generate_synthetic", refuse)
    target = tmp_path / "refs.afb"
    target.write_bytes(b"kept")
    for out_path in (target, target / "sub"):
        code, out, err = run_cli(capsys, "synth", "--out", str(out_path), *SYNTH_FLAGS)
        assert code == 2
        assert "config error" in err and str(out_path) in err and "Traceback" not in err
        assert out == ""
    assert target.read_bytes() == b"kept"


@pytest.mark.parametrize("flavor", ["is_only", "em_only", "artemis"])
def test_eval_names_the_query_of_a_zero_pair_norm_in_the_last_tile(tmp_path, capsys, flavor):
    """Query 2 attends to dimension 0 alone, and one candidate past two full
    tiles is zero there: their pair norm is 0, and no other pair's is."""
    dim, n_gallery = 8, 2 * SCORE_TILE + 5
    rng = np.random.default_rng(0)
    targets = np.abs(rng.standard_normal((n_gallery, dim))) + 0.1
    targets[-3, 0] = 0.0
    ids = {"refs": [f"r{i}" for i in range(3)], "mods": [f"m{i}" for i in range(3)],
           "targets": [f"t{i:05d}" for i in range(n_gallery)]}
    rows = {"refs": rng.standard_normal((3, dim)), "mods": np.eye(dim)[[2, 3, 0]],
            "targets": targets}
    for name in ids:
        write_feature_bank(FeatureBank(ids[name], rows[name]), tmp_path / f"{name}.afb")
    write_triplets(TripletSet([TripletRecord(f"r{i}", f"m{i}", f"t{i:05d}", "test")
                               for i in range(3)]), tmp_path / "triplets.jsonl")
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(one_hot_attention_params(dim), ckpt)
    argv = [f"--{name}={tmp_path / f'{name}.afb'}" for name in ids]
    code, out, err = run_cli(capsys, "eval", *argv, "--triplets",
                             str(tmp_path / "triplets.jsonl"), "--flavor", flavor,
                             "--checkpoint", str(ckpt))
    assert code == 3
    assert err == "error: query 2 (r2, m2): attention-weighted candidate has norm 0.0\n"
    assert out == ""


@pytest.mark.parametrize("flavor", ["em_only", "artemis"])
def test_eval_names_the_query_of_a_nan_score(tmp_path, capsys, flavor):
    """A finite checkpoint whose projection overflows query 1's u to +inf
    (four terms of 0.5 x 1e308) and no other query's: its x is inf / inf,
    so its every score is NaN, in float32 and float64 alike."""
    dim, n_gallery = 8, 50
    rng = np.random.default_rng(0)
    mods = np.eye(dim)[[4, 5, 6]]
    mods[1] = [1.0] * 4 + [0.0] * (dim - 4)
    ids = {"refs": [f"r{i}" for i in range(3)], "mods": [f"m{i}" for i in range(3)],
           "targets": [f"t{i:05d}" for i in range(n_gallery)]}
    rows = {"refs": rng.standard_normal((3, dim)), "mods": mods,
            "targets": rng.standard_normal((n_gallery, dim))}
    for name in ids:
        write_feature_bank(FeatureBank(ids[name], rows[name]), tmp_path / f"{name}.afb")
    write_triplets(TripletSet([TripletRecord(f"r{i}", f"m{i}", f"t{i:05d}", "test")
                               for i in range(3)]), tmp_path / "triplets.jsonl")
    params = init_params(HeadDims(dim, dim, dim), seed=0)
    params.proj_w[:4] = 1e308
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(params, ckpt)
    argv = [f"--{name}={tmp_path / f'{name}.afb'}" for name in ids]
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "eval", *argv, "--triplets",
                                 str(tmp_path / "triplets.jsonl"), "--flavor", flavor,
                                 "--checkpoint", str(ckpt))
    assert code == 3
    assert err == "error: query 1 (r1, m1) has a NaN score\n"
    assert out == ""


@pytest.mark.parametrize("command, flag, problem", [
    ("train", "--checkpoint", "directory"), ("train", "--checkpoint", "no parent"),
    ("train", "--logs", "directory"), ("eval", "--dump", "directory"),
    ("eval", "--dump", "no parent"), ("eval", "--metrics-out", "directory"),
    ("eval", "--cells", "directory"), ("ablate", "--out", "directory"),
    ("bench", "--out", "directory")])
def test_unusable_output_path_is_a_config_error_before_any_work(dataset, tmp_path, capsys,
                                                                  command, flag, problem):
    folder = tmp_path / "folder"
    folder.mkdir()
    path = str(folder) if problem == "directory" else str(tmp_path / "nodir" / "x")
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    argv = {"train": ["--config", cfg, "--checkpoint", str(tmp_path / "out.ahp")],
            "eval": ["--config", cfg, "--checkpoint", str(ckpt)],
            "ablate": ["--config", cfg, "--quiet"],
            "bench": ["--queries", "4", "--gallery", "8", "--dim", "8", "--repeats", "1",
                      "--block-size", "4"]}[command]
    if flag == "--cells":
        argv = ["--convention", "cirr", "--cells", f"only={path}"]
    else:
        argv = argv + [flag, path]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert "config error" in err and path in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("setting", ["refs", "mods", "targets", "triplets", "subsets",
                                     "checkpoint", "config"])
def test_directory_input_is_a_config_error(dataset, tmp_path, capsys, setting):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = ["eval", "--config", cfg, "--checkpoint", str(ckpt), f"--{setting}", str(folder)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "config error" in err and str(folder) in err
    if setting != "config":
        assert f"{setting} path" in err
    assert "Traceback" not in err and "r_at_1" not in out


def test_inspect_bank_on_a_directory_is_a_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "inspect-bank", str(tmp_path))
    assert code == 3
    assert "is a directory" in err and "Traceback" not in err


def test_unknown_split_names_are_config_errors(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    code, _, err = run_cli(capsys, "train", "--config", cfg, "--monitor", "vall",
                           "--checkpoint", str(ckpt))
    assert code == 2
    assert "'vall'" in err
    assert not ckpt.exists()
    save_checkpoint(init_params(HeadDims(64, 64, 64), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--split", "vall",
                             "--checkpoint", str(ckpt))
    assert code == 2
    assert "'vall'" in err
    assert "r_at_1" not in out


@pytest.mark.parametrize("monitor", ["val", ""])
def test_unknown_selection_metric_is_refused_before_any_step(dataset, tmp_path, capsys,
                                                             monkeypatch, monitor):
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "bbc_loss", no_step)
    cfg = config_file(tmp_path / "run.cfg", dataset, epochs=1, batch_size=16)
    ckpt = tmp_path / "h.ahp"
    code, out, err = run_cli(capsys, "train", "--config", cfg, "--monitor", monitor,
                             "--selection-metric", "bogus", "--checkpoint", str(ckpt))
    assert code == 2
    assert "'bogus' not in evaluation output" in err and "'r_at_10'" in err
    assert out == "" and not ckpt.exists()


def test_corrupt_checkpoint_is_data_error(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    fake = tmp_path / "fake.ahp"
    fake.write_bytes(b"AHP1" + b"\x00" * 3)      # header cut short
    code, _, err = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(fake))
    assert code == 3


def test_nan_checkpoint_exits_3_naming_the_block(dataset, tmp_path, capsys):
    cfg = config_file(tmp_path / "run.cfg", dataset)
    params = init_params(HeadDims(64, 64, 64), seed=0)
    params.attn_em.b2[5] = float("nan")
    ckpt = tmp_path / "nan.ahp"
    save_checkpoint(params, ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg,
                             "--checkpoint", str(ckpt))
    assert code == 3
    assert "attn_em.b2" in err
    assert "r_at_1" not in out


def test_inspect_bank_outputs(dataset, capsys):
    path = str(dataset / "targets.afb")
    code, out, _ = run_cli(capsys, "inspect-bank", path)
    assert code == 0
    assert "250 rows x 64 dims" in out
    code, out, _ = run_cli(capsys, "inspect-bank", path, "--json")
    assert code == 0
    info = json.loads(out)
    assert info["rows"] == 250 and info["dim"] == 64
    assert info["first_ids"] == [f"t{i:05d}" for i in range(5)]
    assert info["row_norm_max"] == pytest.approx(1.0, abs=1e-6)


def test_inspect_bank_takes_norms_without_a_float64_copy(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = (rng.standard_normal((32768, 64)) * rng.uniform(0.5, 2.0, (32768, 1)))
    path = tmp_path / "big.afb"
    write_feature_bank(FeatureBank(ids=[f"t{i}" for i in range(len(data))],
                                   data=data.astype(np.float32)), path)
    _, read_peak = traced_peak(lambda: read_feature_bank(path))
    (code, out, _), peak = traced_peak(lambda: run_cli(capsys, "inspect-bank", str(path), "--json"))
    assert code == 0
    # The read, the (n,) norms and a few chunk-sized float64 temporaries;
    # a whole float64 copy alone would be 16 MB more.
    assert peak < read_peak + 8 * len(data) + 3 * 8 * NORM_ROWS * data.shape[1]
    want = np.linalg.norm(data.astype(np.float32).astype(np.float64), axis=1)
    info = json.loads(out)
    assert (info["row_norm_min"], info["row_norm_max"], info["row_norm_mean"]) == (
        float(want.min()), float(want.max()), float(want.mean()))


def test_gradcheck_passes_and_fails(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--instances", "8",
                           "--large-instances", "0")
    assert code == 0
    assert "0 failures" in out
    code, _, err = run_cli(capsys, "gradcheck", "--instances", "2",
                           "--large-instances", "0", "--tol", "1e-15")
    assert code == 4
    assert "check failed" in err


@pytest.mark.parametrize("counts", [("-1", "0"), ("1", "-1"), ("0", "0")])
def test_gradcheck_instance_counts_are_config_errors(capsys, counts):
    code, out, err = run_cli(capsys, "gradcheck", "--instances", counts[0],
                             "--large-instances", counts[1])
    assert code == 2
    assert "config error" in err and "instance" in err
    assert out == ""


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_gradcheck_tolerance_out_of_range_is_config_error(capsys, tol):
    code, out, err = run_cli(capsys, "gradcheck", "--instances", "1",
                             "--large-instances", "0", "--tol", tol)
    assert code == 2
    assert "config error" in err and "tol" in err
    assert out == ""


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
def test_synth_non_finite_noise_sigma_is_config_error(tmp_path, capsys, sigma):
    code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--noise-sigma", sigma, *SYNTH_FLAGS)
    assert code == 2
    assert "noise_sigma" in err
    assert not (tmp_path / "d").exists()


def test_inspect_bank_with_zero_rows(tmp_path, capsys):
    path = tmp_path / "empty.afb"
    write_feature_bank(FeatureBank(ids=[], data=np.zeros((0, 8), dtype=np.float32)), path)
    code, out, _ = run_cli(capsys, "inspect-bank", str(path))
    assert code == 0
    assert "0 rows x 8 dims" in out and "no rows" in out
    code, out, _ = run_cli(capsys, "inspect-bank", str(path), "--json")
    assert code == 0
    info = json.loads(out)
    assert info["rows"] == 0 and info["dim"] == 8 and info["first_ids"] == []
    assert info["row_norm_min"] is None
    assert info["row_norm_max"] is None and info["row_norm_mean"] is None


def test_bench_tiny(tmp_path, capsys):
    report = tmp_path / "bench.json"
    code, out, _ = run_cli(capsys, "bench", "--queries", "32", "--gallery",
                           "64", "--dim", "16", "--repeats", "2",
                           "--block-size", "16", "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert set(payload["sections"]) == {"late_fusion", "artemis"}
    assert "scoring" in out
    assert out.startswith("head parameters: 1,361\nhead MACs per triplet: 1,376\n")


def test_bench_checkpoint_dim_mismatch(tmp_path, capsys):
    from emis.head import HeadDims, init_params, save_checkpoint
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(8, 8, 8), seed=0), ckpt)
    code, _, err = run_cli(capsys, "bench", "--queries", "8", "--gallery",
                           "16", "--dim", "16", "--repeats", "1",
                           "--checkpoint", str(ckpt))
    assert code == 2
    assert "dims" in err


def test_run_options_follow_run_config_field_types():
    """Numbers coerce from their string form; every bool is a bare on-flag."""
    samples = {int: ("7", 7), float: ("0.25", 0.25), bool: ("true", True)}
    defaults = RunConfig()
    typed = {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}
    typed = {name: kind for name, kind in typed.items() if kind in samples}
    assert set(typed.values()) == set(samples)
    parser = build_parser()
    for name, kind in typed.items():
        raw, want = samples[kind]
        from_file = getattr(make_run_config({name: raw}), name)
        assert type(from_file) is kind and from_file == want, name
        flag = "--" + name.replace("_", "-")
        argv = ["eval", flag] if kind is bool else ["eval", flag, raw]
        parsed = getattr(parser.parse_args(argv), name)
        from_flag = getattr(make_run_config(None, {name: parsed}), name)
        assert type(from_flag) is kind and from_flag == want, name
        if kind is bool:
            assert getattr(parser.parse_args(["eval"]), name) is None
            with pytest.raises(SystemExit):
                parser.parse_args(["eval", flag, raw])   # a flag takes no value


def test_help_lists_config_keys(capsys):
    """Every RunConfig key is documented once, with its real default."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    documented = {}
    for line in out.split("keys (defaults in parentheses):\n", 1)[1].splitlines():
        entry = re.match(r"  (\w+(?:, \w+)*)(?: \(([^)]*)\))? +\S", line)
        if entry:
            for key in entry.group(1).split(", "):
                assert key not in documented, key
                documented[key] = entry.group(2)
    assert list(documented) == list(RUN_KEY_TYPES)
    for f in fields(RunConfig):
        shown = documented[f.name]
        if f.default is None:
            assert shown is None, f.name
        elif isinstance(f.default, bool):
            assert shown == str(f.default).lower(), f.name
        else:
            assert type(f.default)(shown) == f.default, f.name


def test_module_entry_point(dataset):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "emis", "inspect-bank",
         str(dataset / "refs.afb")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "rows x" in proc.stdout
