import json

import numpy as np
import pytest

from emis import training
from emis.data import SynthSpec, generate_synthetic, read_feature_bank
from emis.errors import ConfigError
from emis.evaluation import evaluate, queries_from_triplets
from emis.harness import (
    BENCH_SECTIONS,
    CHECK_KINDS,
    BenchConfig,
    GradCheckSummary,
    RunConfig,
    ablation_table,
    bench_latency,
    gradient_check_suite,
    load_dataset,
    make_run_config,
    read_config_file,
    require_settings,
    resolve_dims,
    run_ablation,
    write_synthetic,
)
from emis.head import Flavor, init_params


def small_spec(**overrides):
    base = dict(n_train=64, n_eval=6, n_val=0, gallery_size=250, seed=0)
    base.update(overrides)
    return SynthSpec(**base)


# -- configuration ------------------------------------------------------------------

def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "epochs = 5\n"
        "\n"
        "flavor=em_only\n"
        "lr0 = 1e-3\n")
    assert read_config_file(path) == {"epochs": "5", "flavor": "em_only",
                                      "lr0": "1e-3"}


def test_read_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 5\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(bad)
    assert ":1:" in str(err.value)


def test_make_run_config_overrides_win():
    config = make_run_config({"epochs": "5", "seed": "3"}, {"epochs": 9})
    assert config.epochs == 9
    assert config.seed == 3
    assert config.flavor is Flavor.ARTEMIS


def test_make_run_config_skips_none_and_rejects_unknown():
    config = make_run_config({"epochs": "4"}, {"epochs": None})
    assert config.epochs == 4
    with pytest.raises(ConfigError):
        make_run_config({"epoch": "4"})
    with pytest.raises(ConfigError):
        make_run_config({"epochs": "three"})
    with pytest.raises(ConfigError):
        make_run_config({"keep_partial_batch": "perhaps"})


def test_bool_coercion_accepts_usual_spellings():
    for raw, want in (("true", True), ("FALSE", False), ("1", True),
                      ("0", False), ("yes", True), ("no", False)):
        assert make_run_config({"exclude_ref": raw}).exclude_ref is want


def test_require_settings(tmp_path):
    config = RunConfig(refs=str(tmp_path / "nope.afb"), checkpoint="out.ahp")
    with pytest.raises(ConfigError):
        require_settings(config, "triplets")       # missing entirely
    with pytest.raises(ConfigError):
        require_settings(config, "refs")           # set but nonexistent
    require_settings(config, "checkpoint")         # output path: presence only


def test_run_config_is_a_checked_train_config():
    config = RunConfig(flavor="is_only", epochs=2)
    assert isinstance(config, training.TrainConfig)
    assert config.flavor is Flavor.IS_ONLY and config.epochs == 2
    for bad in ({"flavor": "bogus"}, {"epochs": 0}, {"seed": -1}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)


# -- dataset plumbing -----------------------------------------------------------------

def test_write_synthetic_and_load_dataset(tmp_path):
    paths = write_synthetic(small_spec(), tmp_path / "ds")
    for key in ("refs", "mods", "targets", "triplets", "subsets", "latents"):
        assert key in paths
    config = make_run_config({k: paths[k] for k in
                              ("refs", "mods", "targets", "triplets", "subsets")})
    corpus, triplets = load_dataset(config)
    assert corpus.targets.n == 250
    assert len(triplets.split("test")) == 6
    assert triplets.subsets  # subsets came along

    bank = read_feature_bank(paths["targets"])
    assert bank.n == 250
    json.loads((tmp_path / "ds" / "latents.json").read_text())

    dims = resolve_dims(config, corpus)
    assert (dims.h_t, dims.h_i, dims.h_hidden) == (64, 64, 64)
    assert resolve_dims(make_run_config({"h_hidden": "16"}), corpus).h_hidden == 16


def test_write_synthetic_is_deterministic(tmp_path):
    a = write_synthetic(small_spec(), tmp_path / "a")
    b = write_synthetic(small_spec(), tmp_path / "b")
    for key in ("refs", "mods", "targets"):
        assert (open(a[key], "rb").read() == open(b[key], "rb").read())
    assert (open(a["triplets"]).read() == open(b["triplets"]).read())


# -- ablation -------------------------------------------------------------------------

def test_run_ablation_emits_six_rows_in_fixed_order():
    corpus, triplets, _ = generate_synthetic(small_spec())
    config = RunConfig(epochs=1, batch_size=16, seed=0)
    reports = run_ablation(config, corpus=corpus, triplets=triplets)
    assert [r.label for r in reports] == [f.value for f in Flavor]
    table = ablation_table(reports)
    for f in Flavor:
        assert f.value in table
    assert "r_at_10" in table


def test_run_ablation_parameter_free_rows_equal_direct_eval():
    corpus, triplets, _ = generate_synthetic(small_spec(seed=5))
    config = RunConfig(epochs=1, batch_size=16, seed=5)
    reports = {r.label: r for r in run_ablation(config, corpus=corpus,
                                                triplets=triplets)}
    queries = queries_from_triplets(triplets, "test")
    params = init_params(resolve_dims(config, corpus), seed=5)
    direct = evaluate(queries, corpus, params, Flavor.IMAGE_ONLY,
                      block_size=config.block_size)
    assert reports["image_only"].metrics == direct.metrics


# -- latency benchmark ------------------------------------------------------------------

def test_bench_config_validation():
    with pytest.raises(ConfigError):
        BenchConfig(n_queries=0)
    with pytest.raises(ConfigError):
        BenchConfig(repeats=0)


def test_bench_latency_structure():
    bench = BenchConfig(n_queries=48, gallery_size=96, h_t=16, h_i=16,
                        h_hidden=16, repeats=2, block_size=32, seed=0)
    report = bench_latency(bench)
    assert set(report.sections) == {"late_fusion", "artemis"}
    for flavor, sections in report.sections.items():
        assert tuple(sections) == BENCH_SECTIONS
        for times in sections.values():
            assert len(times) == 2
            assert all(t >= 0.0 for t in times)
        assert len(report.totals[flavor]) == 2
    assert report.total_min["artemis"] <= report.total_median["artemis"]
    assert report.ratio_median == pytest.approx(
        report.total_median["artemis"] / report.total_median["late_fusion"])
    parsed = json.loads(report.to_json())
    assert parsed["config"]["n_queries"] == 48
    text = report.to_text()
    assert "artemis" in text and "scoring" in text


# -- gradient check suite ----------------------------------------------------------------

def test_gradient_suite_cycles_kinds_and_passes():
    summary = gradient_check_suite(n_small=8, n_large=0, seed=1)
    assert summary.passed
    assert len(summary.instances) == 8
    assert [inst.kind for inst in summary.instances] == list(CHECK_KINDS)
    assert summary.worst <= 1e-4
    text = summary.to_text()
    assert "0 failures" in text


def test_gradient_suite_checks_the_gradient_training_takes(monkeypatch):
    """A fault in training.bbc_loss's gradient fails exactly the loss checks it reaches."""
    true_loss = training.bbc_loss

    def skewed(*args):
        loss, grads = true_loss(*args)
        grads.proj_w = 1.5 * grads.proj_w
        return loss, grads

    monkeypatch.setattr(training, "bbc_loss", skewed)
    summary = gradient_check_suite(n_small=8, n_large=0)
    assert not summary.passed
    assert {inst.kind for inst in summary.instances if not inst.passed} == {
        "bbc_em_only", "bbc_artemis"}


def test_gradient_suite_reports_failures_under_absurd_tolerance():
    summary = gradient_check_suite(n_small=2, n_large=0, tol=1e-15)
    assert not summary.passed
    assert summary.n_failures >= 1
    assert "FAILED" in summary.to_text()


def test_gradient_suite_empty_is_vacuously_failing_free():
    summary = GradCheckSummary()
    assert summary.passed
    assert summary.n_failures == 0
