import json
import os

import numpy as np
import pytest

from apobench import tasks
from apobench.apo import default_lr_config, default_precond_config
from apobench.baseopt import BaseOptKind
from apobench.errors import ConfigError, TrainingDivergedError
from apobench.harness import cli
from apobench.harness.config import (KfacSettings, config_hash, config_to_dict,
                                     load_config, parse_config)
from apobench.harness.gridsearch import expand_grid, grid
from apobench.harness.runner import run, validate_metrics_csv, write_metrics_csv


def rosen_doc(**overrides):
    doc = {
        "task": {"kind": "rosenbrock", "batch_size": 1},
        "mode": "apo-lr",
        "base_opt": {"kind": "sgd"},
        "proximal": {"lambda_wsd": 1.0, "meta_interval": 10},
        "init_lr": 1e-4,
        "steps": 60,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def synth_doc(**overrides):
    doc = {
        "task": {"kind": "synth-regression", "batch_size": 8,
                 "dataset_size": 64, "seed": 1, "params": {"d": 3}},
        "mode": "none",
        "base_opt": {"kind": "sgd-momentum"},
        "init_lr": 0.05,
        "steps": 40,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------- config


def test_parse_roundtrip_stable():
    cfg = parse_config(rosen_doc())
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        parse_config(rosen_doc(extra_field=1))
    assert "/extra_field" in str(err.value)


def test_parse_rejects_bad_task_kind():
    doc = rosen_doc()
    doc["task"]["kind"] = "mnist"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer == "/task/kind"


def test_parse_rejects_bad_nested_value():
    doc = rosen_doc()
    doc["proximal"]["lambda_wsd"] = -2.0
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer.startswith("/proximal")


def test_parse_defaults_by_mode():
    lr_cfg = parse_config(rosen_doc())
    assert lr_cfg.proximal.meta_opt.kind == "rmsprop"
    assert lr_cfg.proximal.meta_lr == 0.1
    pre_doc = rosen_doc(mode="apo-precond")
    del pre_doc["init_lr"]
    pre_cfg = parse_config(pre_doc)
    assert pre_cfg.proximal.meta_opt.kind == "adam"
    assert pre_cfg.proximal.meta_lr == 1e-4
    assert pre_cfg.proximal.warmup_steps == 300
    assert pre_cfg.proximal.scale == 0.9
    # an omitted field takes the default of the object that owns it
    for mode, defaults in (("none", default_lr_config), ("apo-lr", default_lr_config),
                           ("apo-precond", default_precond_config)):
        cfg = parse_config(synth_doc(mode=mode))
        assert cfg.proximal == defaults()
        assert cfg.base_opt == BaseOptKind("sgd-momentum")
        assert cfg.kfac == KfacSettings()


def test_parse_rejects_uci_csv_without_existing_path(tmp_path):
    for params in ({}, {"path": str(tmp_path / "missing.csv")}, {"path": 3}):
        doc = synth_doc(task={"kind": "uci-csv", "batch_size": 8, "params": params})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.pointer == "/task/params/path"
    path = tmp_path / "data.csv"
    tasks.save_csv(np.arange(20.0).reshape(10, 2), np.arange(10.0), path)
    doc = synth_doc(task={"kind": "uci-csv", "batch_size": 8, "params": {"path": str(path)}})
    assert parse_config(doc).task.params["path"] == str(path)


@pytest.mark.parametrize("kind,params,pointer", [
    ("synth-regression", {"d": "x"}, "/task/params/d"),
    ("synth-regression", {"d": True}, "/task/params/d"),
    ("synth-regression", {"widht": 3}, "/task/params/widht"),
    ("synth-regression", {"noise": "0.1"}, "/task/params/noise"),
    ("synth-classification", {"classes": 2.5}, "/task/params/classes"),
    ("illcond-linear", {"kappa": [10]}, "/task/params/kappa"),
    ("bottleneck-autoencoder", {"widths": [16]}, "/task/params/widths"),
    ("bottleneck-autoencoder", {"widths": [16, "2", 16]}, "/task/params/widths"),
    ("rosenbrock", {"d": 3}, "/task/params/d"),
])
def test_parse_rejects_bad_task_params(kind, params, pointer):
    doc = synth_doc(task={"kind": kind, "batch_size": 8, "params": params})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer == pointer


def test_parse_accepts_every_task_param_type():
    for kind, params in (("illcond-linear", {"d": 4, "kappa": 100}),
                         ("synth-regression", {"d": 3, "noise": 0, "hidden": 4}),
                         ("synth-classification", {"classes": 3, "separation": 2.5}),
                         ("bottleneck-autoencoder", {"widths": [4, 2, 4]})):
        doc = synth_doc(task={"kind": kind, "batch_size": 8, "params": params})
        assert parse_config(doc).task.params == params


@pytest.mark.parametrize("decay", [-0.1, 1.0, 1.5])
def test_parse_rejects_ema_decay_out_of_range(decay):
    with pytest.raises(ConfigError) as err:
        parse_config(synth_doc(kfac={"ema_decay": decay}))
    assert err.value.pointer == "/kfac/ema_decay"


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


# -------------------------------------------------------------------- run


def test_run_writes_metrics_and_sidecar(tmp_path):
    cfg = parse_config(rosen_doc())
    outcome = run(cfg, tmp_path / "out")
    assert os.path.exists(outcome.metrics_path)
    assert validate_metrics_csv(outcome.metrics_path)
    sidecar = json.loads(open(outcome.sidecar_path).read())
    assert sidecar["config"]["task"]["kind"] == "rosenbrock"
    assert sidecar["runtime"]["status"] == "ok"
    assert "wallclock_ms" in sidecar["runtime"]
    lines = open(outcome.metrics_path).read().splitlines()
    assert len(lines) == cfg.steps + 1  # header + one row per step


def test_run_byte_identical_given_seed(tmp_path):
    cfg = parse_config(synth_doc(mode="apo-lr",
                                 proximal={"lambda_fsd": 0.1, "meta_interval": 5}))
    a = run(cfg, tmp_path / "a")
    b = run(cfg, tmp_path / "b")
    assert open(a.metrics_path, "rb").read() == open(b.metrics_path, "rb").read()


def test_run_no_meta_updates_matches_mode_none(tmp_path):
    doc_apo = synth_doc(mode="apo-lr", proximal={"meta_interval": 100_000})
    doc_none = synth_doc(mode="none")
    a = run(parse_config(doc_apo), tmp_path / "apo")
    b = run(parse_config(doc_none), tmp_path / "none")
    assert open(a.metrics_path).read() == open(b.metrics_path).read()


def test_run_divergence_exit(tmp_path):
    cfg = parse_config(rosen_doc(mode="none", init_lr=0.1, steps=50))
    with pytest.raises(TrainingDivergedError):
        run(cfg, tmp_path / "x")
    sidecar = json.loads(open(tmp_path / "x" / "config.json").read())
    assert sidecar["runtime"]["status"].startswith("diverged")


def _assert_rows_before_divergence(cfg, run_dir):
    with pytest.raises(TrainingDivergedError) as err:
        run(cfg, run_dir)
    metrics = run_dir / "metrics.csv"
    assert validate_metrics_csv(metrics)
    steps = [int(line.split(",")[0]) for line in open(metrics).read().splitlines()[1:]]
    assert steps == list(range(1, err.value.step))
    assert len(err.value.rows) == err.value.step - 1
    return err.value.step


def test_run_divergence_keeps_rows_apo_train(tmp_path):
    cfg = parse_config(rosen_doc(mode="none", init_lr=0.1, steps=50))
    assert _assert_rows_before_divergence(cfg, tmp_path / "x") == 3


def test_run_divergence_keeps_rows_kfac(tmp_path):
    doc = synth_doc(task={"kind": "illcond-linear", "batch_size": 64,
                          "params": {"d": 64, "kappa": 1e10}},
                    base_opt={"kind": "kfac"}, init_lr=None, steps=20)
    assert _assert_rows_before_divergence(parse_config(doc), tmp_path / "k") == 3


def test_run_env_seed_override(tmp_path, monkeypatch):
    cfg = parse_config(synth_doc())
    base = run(cfg, tmp_path / "base")
    monkeypatch.setenv("APO_SEED", "99")
    other = run(cfg, tmp_path / "other")
    assert open(base.metrics_path).read() != open(other.metrics_path).read()
    sidecar = json.loads(open(other.sidecar_path).read())
    assert sidecar["resolved_seed"] == 99


def test_run_kfac_baseline(tmp_path):
    doc = synth_doc(base_opt={"kind": "kfac"}, init_lr=0.05,
                    kfac={"damping": 1e-2, "update_every": 2, "ema_decay": 0.9})
    cfg = parse_config(doc)
    outcome = run(cfg, tmp_path / "kfac")
    assert outcome.summary["final_train_loss"] < 1.5
    assert validate_metrics_csv(outcome.metrics_path)


def test_run_classification_reports_accuracy(tmp_path):
    doc = {
        "task": {"kind": "synth-classification", "batch_size": 16,
                 "dataset_size": 128, "seed": 2, "params": {"d": 3}},
        "mode": "none",
        "base_opt": {"kind": "sgd-momentum"},
        "init_lr": 0.1,
        "steps": 120,
        "seed": 1,
    }
    outcome = run(parse_config(doc), tmp_path / "cls")
    assert outcome.summary["final_accuracy"] is not None
    assert outcome.summary["final_accuracy"] > 0.8


def test_metrics_schema_validation_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,train_loss\n1,0.5\n")
    with pytest.raises(ValueError):
        validate_metrics_csv(bad)
    nonmono = tmp_path / "nonmono.csv"
    from apobench.harness.runner import CSV_COLUMNS
    nonmono.write_text(",".join(CSV_COLUMNS) + "\n"
                       + "2,1.0,,,0.1,,,\n" + "2,1.0,,,0.1,,,\n")
    with pytest.raises(ValueError):
        validate_metrics_csv(nonmono)


# -------------------------------------------------------------------- grid


def test_expand_grid_cartesian():
    combos = expand_grid(rosen_doc(), {"axes": {"init_lr": [1e-4, 1e-3],
                                               "seed": [0, 1, 2]}})
    assert len(combos) == 6
    overrides = [c[0] for c in combos]
    assert {"init_lr": 1e-3, "seed": 2} in overrides


def test_expand_grid_dotted_paths():
    combos = expand_grid(rosen_doc(), {"axes": {"proximal.lambda_wsd": [0.1, 1.0]}})
    assert combos[0][1]["proximal"]["lambda_wsd"] == 0.1
    assert combos[1][1]["proximal"]["lambda_wsd"] == 1.0


def test_grid_single_point_equals_run(tmp_path):
    rows = grid(rosen_doc(), {"axes": {"seed": [0]}}, tmp_path / "g")
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    nested = json.loads(open(tmp_path / "g" / "run0000" / "config.json").read())
    assert nested["summary"]["final_train_loss"] == rows[0]["final_train_loss"]


def test_grid_records_failures_and_continues(tmp_path):
    doc = rosen_doc(mode="none", steps=80)
    rows = grid(doc, {"axes": {"init_lr": [1e-4, 0.1]}}, tmp_path / "g2")
    statuses = {repr(r["axis:init_lr"]): r["status"] for r in rows}
    assert statuses[repr(1e-4)] == "ok"
    assert statuses[repr(0.1)].startswith("failed")


def test_grid_bad_task_point_fails_alone(tmp_path):
    rows = grid(synth_doc(), {"axes": {"task.kind": ["synth-regression", "uci-csv"]}},
                tmp_path / "g3")
    statuses = {r["axis:task.kind"]: r["status"] for r in rows}
    assert statuses["synth-regression"] == "ok"
    assert statuses["uci-csv"].startswith("failed: /task/params/path")


def test_grid_bad_task_params_point_fails_alone(tmp_path):
    rows = grid(synth_doc(), {"axes": {"task.params": [{}, {"d": "x"}]}}, tmp_path / "g5")
    statuses = [r["status"] for r in rows]
    assert statuses == ["failed: /task/params/d: synth-regression needs d of type int", "ok"]


def test_grid_lr_overflow_fails_alone(tmp_path):
    doc = rosen_doc(proximal={"lambda_wsd": 1.0, "meta_interval": 10,
                              "meta_opt": {"kind": "sgd"}})
    rows = grid(doc, {"axes": {"proximal.meta_lr": [0.1, 1e6]}}, tmp_path / "g4")
    statuses = {r["axis:proximal.meta_lr"]: r["status"] for r in rows}
    assert statuses[0.1] == "ok"
    assert statuses[1e6].startswith("failed: non-finite at step 10")
    sidecar = json.loads(open(tmp_path / "g4" / "run0001" / "config.json").read())
    assert sidecar["runtime"]["status"] == "diverged at step 10"


def test_grid_summary_order_deterministic(tmp_path):
    sweep = {"axes": {"seed": [2, 0, 1]}}
    rows1 = grid(rosen_doc(steps=10), sweep, tmp_path / "o1")
    rows2 = grid(rosen_doc(steps=10), sweep, tmp_path / "o2", parallel=2)
    assert [r["axis:seed"] for r in rows1] == [r["axis:seed"] for r in rows2]
    s1 = open(tmp_path / "o1" / "summary.csv").read()
    s2 = open(tmp_path / "o2" / "summary.csv").read()
    # identical modulo the run_dir assignment, which follows expansion order
    assert [l.split(",")[1:] for l in s1.splitlines()] == \
        [l.split(",")[1:] for l in s2.splitlines()]


# --------------------------------------------------------------------- cli


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rosen_doc()))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(rosen_doc(mode="bogus")))
    assert cli.main(["run", "--config", str(bad_path),
                     "--out", str(tmp_path / "out2")]) == 2

    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps(rosen_doc(mode="none", init_lr=0.1)))
    assert cli.main(["run", "--config", str(div_path),
                     "--out", str(tmp_path / "out3")]) == 3


def test_cli_grid(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rosen_doc(steps=10)))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
    assert cli.main(["grid", "--config", str(cfg_path), "--sweep", str(sweep_path),
                     "--out", str(tmp_path / "g")]) == 0
    assert os.path.exists(tmp_path / "g" / "summary.csv")
