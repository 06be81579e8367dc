import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apobench
from apobench import tasks
from apobench.apo import DIVERGENCES, ProximalConfig, default_precond_config
from apobench.baseopt import KINDS as BASE_KINDS
from apobench.baseopt import BaseOptKind
from apobench.errors import ConfigError, IngestionError, TrainingDivergedError
from apobench.harness import cli
from apobench.harness.config import (CONFIG, MODES, KfacSettings, config_hash,
                                     config_to_dict, load_config, parse_config)
from apobench.harness.gridsearch import SUMMARY_FIELDS, expand_grid, grid
from apobench.harness.runner import run, validate_metrics_csv, write_metrics_csv

from helpers import write_dataset_csv


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


@pytest.mark.parametrize("mode", ["apo-lr", "apo-precond"])
@pytest.mark.parametrize("warmup_lr", [-1.0, 0.0])
def test_parse_rejects_nonpositive_warmup_lr(mode, warmup_lr):
    """A warm-up at a negative rate would climb the loss and still exit 0."""
    doc = synth_doc(mode=mode, proximal={"warmup_steps": 5, "warmup_lr": warmup_lr})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer == "/proximal"


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
    for mode, defaults in (("none", ProximalConfig), ("apo-lr", ProximalConfig),
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
    write_dataset_csv(np.arange(20.0).reshape(10, 2), np.arange(10.0), path)
    doc = synth_doc(task={"kind": "uci-csv", "batch_size": 8, "params": {"path": str(path)}})
    assert parse_config(doc).task.params["path"] == str(path)


def test_parse_rejects_kfac_on_rosenbrock():
    doc = {"task": {"kind": "rosenbrock", "batch_size": 1}, "base_opt": {"kind": "kfac"}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer == "/base_opt/kind"
    # every other task kind is a layered model
    parse_config({**doc, "task": {"kind": "illcond-linear", "batch_size": 8}})


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
    ("illcond-linear", {"kappa": float("inf")}, "/task/params/kappa"),
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


# The document schema: every object's keys in the order config_to_dict writes them.
DOCUMENT_KEYS = {
    "": ["task", "mode", "base_opt", "proximal", "init_lr", "kfac", "steps", "seed",
         "eval_every"],
    "/task": ["kind", "batch_size", "dataset_size", "seed", "params"],
    "/base_opt": ["kind", "beta", "beta2", "rms_beta2", "eps", "weight_decay"],
    "/proximal": ["lambda_fsd", "lambda_wsd", "fsd_kind", "meta_interval", "meta_lr",
                  "meta_opt", "warmup_steps", "warmup_lr", "loss_batch_policy",
                  "fsd_batch_policy", "scale"],
    "/proximal/meta_opt": ["kind", "beta", "beta2", "rms_beta2", "eps"],
    "/kfac": ["damping", "update_every", "ema_decay"],
}


def _assert_key_order(doc, table, pointer=""):
    assert list(doc) == list(table) == DOCUMENT_KEYS[pointer]
    for key, (_, kind) in table.items():
        if isinstance(kind, dict):
            _assert_key_order(doc[key], kind, f"{pointer}/{key}")


def _numbers(lo, hi):
    """Integers and floats in [lo, hi]: a number field takes both."""
    return st.one_of(st.integers(int(np.ceil(lo)), int(hi)), st.floats(lo, hi))


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


def _optimizer(kinds):
    decay = st.one_of(st.just(0), st.floats(0.0, 0.99))
    return _optional(kind=st.sampled_from(kinds), beta=decay, beta2=decay,
                     rms_beta2=decay, eps=_numbers(1e-9, 1.0))


PARAM_VALUES = {"int": st.integers(2, 6), "number": _numbers(1.0, 20.0),
                "ints": st.lists(st.integers(2, 6), min_size=2, max_size=4)}


@st.composite
def config_docs(draw, csv_path):
    """Valid documents: every task kind, mode and base kind, sections left out
    or null, integers in number fields, fsd_kind left out, null or given."""
    kind = draw(st.sampled_from(tasks.TASK_KINDS))
    params = draw(_optional(**{key: PARAM_VALUES[t] for key, t in
                               tasks.TASK_PARAMS[kind].items() if t != "string"}))
    if kind == "uci-csv":
        params["path"] = csv_path
    task = {"kind": kind, **draw(_optional(
        batch_size=st.integers(1, 8), dataset_size=st.one_of(st.none(), st.integers(32, 64)),
        seed=st.integers(0, 9), params=st.one_of(st.none(), st.just(params))))}
    if kind == "uci-csv":
        task["params"] = params
    mode = draw(st.sampled_from(MODES))
    proximal = _optional(
        lambda_fsd=_numbers(0.0, 2.0), lambda_wsd=_numbers(0.0, 2.0),
        fsd_kind=st.sampled_from([None, *DIVERGENCES]), meta_interval=st.integers(1, 20),
        meta_lr=_numbers(1e-4, 1.0), meta_opt=st.one_of(st.none(), _optimizer(BASE_KINDS)),
        warmup_steps=st.integers(0, 50), warmup_lr=_numbers(1e-4, 1.0),
        loss_batch_policy=st.sampled_from(["same", "fresh"]),
        fsd_batch_policy=st.sampled_from(["same", "fresh"]), scale=_numbers(0.01, 2.0))
    kfac = _optional(damping=_numbers(0.0, 1.0), update_every=st.integers(1, 9),
                     ema_decay=st.floats(0.0, 0.99))
    doc = {"task": task, "mode": mode, **draw(_optional(
        base_opt=st.one_of(st.none(), _optimizer(BASE_KINDS)),
        proximal=st.one_of(st.none(), proximal),
        init_lr=st.one_of(st.none(), _numbers(1e-4, 1.0)),
        kfac=st.one_of(st.none(), kfac), steps=st.integers(1, 500),
        seed=st.integers(0, 99), eval_every=st.one_of(st.none(), st.integers(0, 50))))}
    # KFAC is valid only in mode none on a layered model; there a coin picks it.
    if mode == "none" and kind != "rosenbrock" and draw(st.booleans()):
        doc["base_opt"] = {**(doc.get("base_opt") or {}), "kind": "kfac"}
    return doc


def test_parse_dump_roundtrip(tmp_path):
    csv_path = tmp_path / "data.csv"
    write_dataset_csv(np.arange(20.0).reshape(10, 2), np.arange(10.0), csv_path)

    @settings(max_examples=200, deadline=None)
    @given(config_docs(str(csv_path)))
    def roundtrip(doc):
        cfg = parse_config(doc)
        dumped = json.loads(json.dumps(config_to_dict(cfg)))
        _assert_key_order(dumped, CONFIG)
        again = parse_config(dumped)
        assert again == cfg
        assert config_to_dict(again) == dumped
        assert config_hash(again) == config_hash(cfg)

    roundtrip()


@pytest.mark.parametrize("path,value", [
    ("base_opt.beta", "x"),
    ("proximal.lambda_fsd", None),
    ("proximal.meta_interval", 2.5),
    ("proximal.meta_interval", "3"),
    ("steps", True),
    ("init_lr", True),
    ("task.seed", None),
    ("kfac.update_every", "x"),
    # Python's json parses Infinity and NaN; a number field takes neither
    ("init_lr", float("inf")),
    ("proximal.warmup_lr", float("inf")),
    ("proximal.meta_lr", float("nan")),
    ("base_opt.eps", float("-inf")),
    ("kfac.damping", float("nan")),
])
def test_parse_rejects_wrong_type_at_its_pointer(path, value):
    doc = synth_doc()
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.pointer == "/" + path.replace(".", "/")


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


def test_run_divergence_keeps_rows_nonfinite_eval(tmp_path):
    doc = synth_doc(base_opt={"kind": "sgd"}, init_lr=1.7e308, eval_every=1)
    assert _assert_rows_before_divergence(parse_config(doc), tmp_path / "e") == 1


def test_run_divergence_keeps_rows_nonfinite_learned_lr(tmp_path):
    """meta_lr 1e308 takes log_lr to inf at the first meta step (step 10),
    where math.exp returns inf without raising: a divergence, not an error."""
    doc = {"task": {"kind": "synth-regression"}, "mode": "apo-lr", "steps": 30,
           "proximal": {"meta_lr": 1e308}}
    assert _assert_rows_before_divergence(parse_config(doc), tmp_path / "l") == 10


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
    with pytest.raises(IngestionError) as err:
        validate_metrics_csv(bad)
    assert err.value.row == 0
    from apobench.harness.runner import CSV_COLUMNS
    for name, second_step in (("nonmono", "2"), ("badstep", "x"), ("negstep", "-3")):
        path = tmp_path / f"{name}.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        + "2,1.0,,,0.1,,,\n" + f"{second_step},1.0,,,0.1,,,\n")
        with pytest.raises(IngestionError) as err:
            validate_metrics_csv(path)
        assert err.value.row == 2


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
    for row in rows:  # both rows carry every summary field
        assert set(SUMMARY_FIELDS) <= set(row)


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


def test_grid_bad_type_point_fails_alone(tmp_path):
    rows = grid(rosen_doc(steps=10), {"axes": {"base_opt.beta": [0.9, "x"]}},
                tmp_path / "g6")
    statuses = {r["axis:base_opt.beta"]: r["status"] for r in rows}
    assert statuses[0.9] == "ok"
    assert statuses["x"].startswith("failed: /base_opt/beta")
    assert os.path.exists(tmp_path / "g6" / "summary.csv")


def test_grid_os_error_point_fails_alone(tmp_path):
    out = tmp_path / "g7"
    out.mkdir()
    (out / "run0001").write_text("a file where the run directory goes")
    rows = grid(rosen_doc(steps=10), {"axes": {"seed": [0, 1, 2]}}, out)
    statuses = [r["status"] for r in rows]
    assert statuses[0] == statuses[2] == "ok"
    assert statuses[1].startswith("failed: ")
    assert os.path.exists(out / "summary.csv")


def test_grid_rosenbrock_overflow_fails_alone(tmp_path):
    doc = rosen_doc(base_opt={"kind": "adam"}, seed=3, steps=40,
                    proximal={"meta_lr": 1e4, "meta_interval": 2, "meta_opt": {"kind": "sgd"},
                              "lambda_fsd": 1, "lambda_wsd": 0, "warmup_steps": 0})
    del doc["init_lr"]
    rows = grid(doc, {"axes": {"proximal.meta_lr": [0.1, 1e4]}}, tmp_path / "g8")
    statuses = {r["axis:proximal.meta_lr"]: r["status"] for r in rows}
    assert statuses[0.1] == "ok"
    assert statuses[1e4].startswith("failed: loss inf at step")
    assert os.path.exists(tmp_path / "g8" / "summary.csv")


def test_bad_apo_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setenv("APO_SEED", "abc")
    rows = grid(rosen_doc(steps=10), {"axes": {"seed": [0, 1]}}, tmp_path / "g9")
    assert [r["status"] for r in rows] == ["failed: APO_SEED must be an integer"] * 2
    assert os.path.exists(tmp_path / "g9" / "summary.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rosen_doc(steps=10)))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


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


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rosen_doc()))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(rosen_doc(mode="bogus")))
    assert cli.main(["run", "--config", str(bad_path),
                     "--out", str(tmp_path / "out2")]) == 2

    type_path = tmp_path / "type.json"
    type_path.write_text(json.dumps(rosen_doc(base_opt={"kind": "sgd", "beta": "x"})))
    assert cli.main(["run", "--config", str(type_path),
                     "--out", str(tmp_path / "out4")]) == 2

    kfac_path = tmp_path / "kfac.json"
    kfac_path.write_text(json.dumps(rosen_doc(mode="none", base_opt={"kind": "kfac"})))
    assert cli.main(["run", "--config", str(kfac_path),
                     "--out", str(tmp_path / "out5")]) == 2

    data_path = tmp_path / "data.csv"
    data_path.write_text("1.0,2.0\nx,3.0\n")
    uci_path = tmp_path / "uci.json"
    uci_path.write_text(json.dumps(synth_doc(task={"kind": "uci-csv", "batch_size": 2,
                                                   "params": {"path": str(data_path)}})))
    assert cli.main(["run", "--config", str(uci_path),
                     "--out", str(tmp_path / "out6")]) == 5

    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps(rosen_doc(mode="none", init_lr=0.1)))
    assert cli.main(["run", "--config", str(div_path),
                     "--out", str(tmp_path / "out3")]) == 3

    # Unreadable or malformed input files: exit 2 with one line on stderr.
    missing = str(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"axes": {"seed": [0]}}))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    bad_axes = tmp_path / "axes.json"
    bad_axes.write_text(json.dumps({"axes": {"seed": 0}}))
    capsys.readouterr()
    for argv in (["run", "--config", missing],
                 ["grid", "--config", missing, "--sweep", str(sweep)],
                 ["grid", "--config", str(broken), "--sweep", str(sweep)],
                 ["grid", "--config", str(cfg_path), "--sweep", str(broken)],
                 ["grid", "--config", str(listed), "--sweep", str(sweep)],
                 ["grid", "--config", str(cfg_path), "--sweep", str(bad_axes)]):
        assert cli.main(argv + ["--out", str(tmp_path / "bad-input")]) == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1

    # Unwritable output paths: exit 2 with one line on stderr, naming the flag.
    nodir = str(tmp_path / "nodir" / "x")
    for argv, flag in ((["check", "--json", nodir + ".json"], "--json"),
                       (["run", "--config", str(cfg_path), "--out", str(cfg_path)], "--out"),
                       (["grid", "--config", str(cfg_path), "--sweep", str(sweep),
                         "--out", str(cfg_path)], "--out"),
                       (["ppm-demo", "--out", nodir + ".csv", "--lambda-fsd", "0",
                         "--lambda-wsd", "1"], "--out")):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0], err


def test_cli_divergence_prints_one_stderr_line(tmp_path):
    """A learned rate that overflows ends the run with exit 3 and the
    divergence message alone on stderr: no numpy warning precedes it."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": {"kind": "synth-regression"}, "mode": "apo-lr",
                                    "steps": 30, "proximal": {"meta_lr": 1e308}}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(apobench.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "apobench.harness.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("training diverged:")


def test_cli_grid(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rosen_doc(steps=10)))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
    assert cli.main(["grid", "--config", str(cfg_path), "--sweep", str(sweep_path),
                     "--out", str(tmp_path / "g")]) == 0
    assert os.path.exists(tmp_path / "g" / "summary.csv")


# The benchmark's three tasks, an APO run of each mode on each, and one KFAC
# run, all in one fresh interpreter that reports when scipy.linalg appears.
LAZY_LAPACK_SCRIPT = """
import json, os, sys
from apobench.harness import cli, config, runner
from apobench import tasks
task_docs, out = json.loads(sys.argv[1])
seen = {}
for task in task_docs:
    tasks.build_task(config.parse_config({"task": task}).task)
seen["built"] = "scipy.linalg" in sys.modules
for i, task in enumerate(task_docs):
    for mode in ("apo-lr", "apo-precond"):
        doc = {"task": task, "mode": mode, "steps": 5, "seed": i,
               "proximal": {"lambda_fsd": 1.0, "lambda_wsd": 0.1, "meta_interval": 1}}
        runner.run(config.parse_config(doc), os.path.join(out, f"{mode}-{i}"))
seen["apo"] = "scipy.linalg" in sys.modules
doc = {"task": task_docs[0], "mode": "none", "base_opt": {"kind": "kfac"}, "steps": 5}
runner.run(config.parse_config(doc), os.path.join(out, "kfac"))
seen["kfac"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""
BENCH_TASKS = [{"kind": "synth-classification"}, {"kind": "bottleneck-autoencoder"},
               {"kind": "illcond-linear", "batch_size": 64,
                "params": {"d": 64, "kappa": 1e10}}]


def test_lapack_loads_on_first_factorization_only(tmp_path):
    """Importing the CLI, building tasks and APO training load no SciPy;
    the first KFAC factorization does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(apobench.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_LAPACK_SCRIPT, json.dumps([BENCH_TASKS, str(tmp_path)])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"built": False, "apo": False, "kfac": True}
