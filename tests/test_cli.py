"""End-to-end tests through the argparse front end.

Everything runs in-process via main(argv) so coverage and speed stay
reasonable; one subprocess smoke test confirms `python3 -m emis` wires up.
"""

import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from emis.cli import build_parser, main
from emis.data import ids_sidecar
from emis.harness import RunConfig, make_run_config
from emis.head import Flavor, HeadDims, init_params, save_checkpoint

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
    code, _, err = run_cli(capsys, "eval", "--config", cfg,
                           "--checkpoint", str(ckpt),
                           "--convention", "fashioniq")
    assert code == 2
    assert "--cells" in err


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


def test_zero_norm_target_row_is_named(dataset, tmp_path, capsys):
    raw = bytearray((dataset / "targets.afb").read_bytes())
    dim = struct.unpack_from("<I", raw, 12)[0]
    raw[16 + 4 * 7 * dim:16 + 4 * 8 * dim] = bytes(4 * dim)
    targets = tmp_path / "targets.afb"
    targets.write_bytes(bytes(raw))
    ids_sidecar(targets).write_text(ids_sidecar(dataset / "targets.afb").read_text())
    cfg = config_file(tmp_path / "run.cfg", dataset)
    ckpt = tmp_path / "h.ahp"
    save_checkpoint(init_params(HeadDims(dim, dim, dim), seed=0), ckpt)
    code, out, err = run_cli(capsys, "eval", "--config", cfg, "--targets", str(targets),
                             "--checkpoint", str(ckpt))
    assert code == 3
    assert "targets bank row 7 (id 't00007') has norm 0.0" in err
    assert "r_at_1" not in out


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


def test_gradcheck_passes_and_fails(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--instances", "8",
                           "--large-instances", "0")
    assert code == 0
    assert "0 failures" in out
    code, _, err = run_cli(capsys, "gradcheck", "--instances", "2",
                           "--large-instances", "0", "--tol", "1e-15")
    assert code == 4
    assert "check failed" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in ("refs", "flavor", "h_hidden", "keep_partial_batch"):
        assert key in out


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
