import csv
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apobench
from apobench import tasks
from apobench.apo import DIVERGENCES, MODE_BASE_KINDS, ProximalConfig, default_precond_config
from apobench.baseopt import KINDS, BaseOptKind
from apobench.diffnet import check_dataset
from apobench.errors import ConfigError, IngestionError, TrainingDivergedError
from apobench.harness import cli, gridsearch, runner, write_csv
from apobench.harness.checks import result
from apobench.harness.config import (BASE_OPT, CONFIG, KFAC_SETTINGS, META_OPT, MODES, PROXIMAL,
                                     TASK, ExperimentConfig, config_hash, config_to_dict,
                                     load_config, parse_config)
from apobench.harness.gridsearch import SUMMARY_FIELDS, expand_grid, grid
from apobench.harness.runner import run, validate_metrics_csv
from apobench.tasks import TaskSpec

from helpers import write_dataset_csv


def small_doc(**overrides):
    """A small apo-lr run: a 2-4-1 sigmoid MLP on 32 regression examples."""
    doc = {
        "task": {"kind": "synth-regression", "batch_size": 8,
                 "params": {"n": 32, "d": 2, "hidden": 4}},
        "mode": "apo-lr",
        "base_opt": {"kind": "sgd"},
        "proximal": {"lambda_wsd": 1.0, "meta_interval": 10},
        "init_lr": 1e-4,
        "steps": 60,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def plain_doc(**overrides):
    """small_doc's task and steps in mode none, which takes no proximal object."""
    doc = small_doc(mode="none", **overrides)
    del doc["proximal"]
    return doc


def synth_doc(**overrides):
    doc = {
        "task": {"kind": "synth-regression", "batch_size": 8, "seed": 1,
                 "params": {"n": 64, "d": 3}},
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
    cfg = parse_config(small_doc())
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        parse_config(small_doc(extra_field=1))
    assert "/extra_field" in str(err.value)


def test_parse_rejects_bad_task_kind():
    doc = small_doc()
    doc["task"]["kind"] = "mnist"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith("/task/kind: ")


def test_parse_rejects_bad_nested_value():
    doc = small_doc()
    doc["proximal"]["lambda_wsd"] = -2.0
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith("/proximal")


@pytest.mark.parametrize("mode", ["none", "apo-lr", "apo-precond"])
@pytest.mark.parametrize("warmup_lr", [-1.0, 0.0])
def test_parse_rejects_nonpositive_warmup_lr(mode, warmup_lr):
    """A warm-up at a negative rate would climb the loss and still exit 0;
    mode none takes no proximal object at all."""
    doc = synth_doc(mode=mode, proximal={"warmup_steps": 5, "warmup_lr": warmup_lr})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith("/proximal: ")


def test_parse_defaults_by_mode():
    lr_cfg = parse_config(small_doc())
    assert lr_cfg.proximal.meta_opt.kind == "rmsprop"
    assert lr_cfg.proximal.meta_lr == 0.1
    pre_doc = small_doc(mode="apo-precond")
    del pre_doc["init_lr"]
    pre_cfg = parse_config(pre_doc)
    assert pre_cfg.proximal.meta_opt.kind == "adam"
    assert pre_cfg.proximal.meta_lr == 1e-4
    assert pre_cfg.proximal.warmup_steps == 300
    assert pre_cfg.proximal.scale == 0.9
    # an omitted field takes the default of the object that owns it
    for mode, defaults in (("none", ProximalConfig), ("apo-lr", ProximalConfig),
                           ("apo-precond", default_precond_config)):
        base = "sgd" if mode == "apo-precond" else "sgd-momentum"
        doc = synth_doc(mode=mode, base_opt={"kind": base})
        if mode == "apo-precond":
            del doc["init_lr"]
        cfg = parse_config(doc)
        assert cfg.proximal == defaults()
        assert cfg.base_opt == BaseOptKind(base)


def test_parse_rejects_uci_csv_without_existing_path(tmp_path):
    for params in ({}, {"path": str(tmp_path / "missing.csv")}, {"path": 3}):
        doc = synth_doc(task={"kind": "uci-csv", "batch_size": 8, "params": params})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value).startswith("/task/params/path: ")
    path = tmp_path / "data.csv"
    write_dataset_csv(np.arange(20.0).reshape(10, 2), np.arange(10.0), path)
    doc = synth_doc(task={"kind": "uci-csv", "batch_size": 8, "params": {"path": str(path)}})
    assert parse_config(doc).task.params["path"] == str(path)


def _unsized_task(kind, tmp_path, **params):
    """A task object of a kind whose builder does not draw its data."""
    if kind == "uci-csv":
        params["path"] = str(tmp_path / "data.csv")
        write_dataset_csv(np.arange(20.0).reshape(10, 2), np.arange(10.0), params["path"])
    return {"kind": kind, "batch_size": 8, "params": params}


@pytest.mark.parametrize("kind", ["illcond-linear", "uci-csv"])
def test_parse_rejects_dataset_size_a_kind_ignores(tmp_path, kind):
    """A dataset size, params.n, is a keyword of the kinds that draw their
    data; on another kind it is an unknown key, not silently dropped."""
    doc = synth_doc(task=_unsized_task(kind, tmp_path, n=100000))
    with pytest.raises(ConfigError, match="unknown key 'n'") as err:
        parse_config(doc)
    assert str(err.value).startswith("/task/params/n: ")
    assert "n" not in parse_config(synth_doc(task=_unsized_task(kind, tmp_path))).task.params


@pytest.mark.parametrize("kind", ["illcond-linear", "uci-csv"])
def test_parse_names_the_ignored_dataset_size_below_batch_size(tmp_path, kind):
    """Below batch_size the error names the ignored n, not the batch size."""
    doc = synth_doc(task=_unsized_task(kind, tmp_path, n=4))
    with pytest.raises(ConfigError, match="unknown key 'n'") as err:
        parse_config(doc)
    assert str(err.value).startswith("/task/params/n: ")


@pytest.mark.parametrize("kind", ["sgd-momentum", "rmsprop", "adam"])
def test_parse_rejects_a_base_kind_apo_precond_ignores(kind):
    """apo-precond steps theta with its preconditioner, not the base kind."""
    with pytest.raises(ConfigError) as err:
        parse_config(synth_doc(mode="apo-precond", base_opt={"kind": kind}))
    assert str(err.value).startswith("/base_opt/kind: ")
    for base in ({"kind": "sgd", "weight_decay": 0.1}, {}):
        doc = synth_doc(mode="apo-precond", base_opt=base)
        del doc["init_lr"]
        assert parse_config(doc).base_opt.kind == "sgd"


@pytest.mark.parametrize("doc,pointer", [
    (synth_doc(mode="none", proximal={"lambda_wsd": 1.0}), "/proximal"),
    (synth_doc(mode="none", proximal={"meta_opt": {"kind": "adam"}}), "/proximal"),
    (synth_doc(mode="apo-precond", base_opt={"kind": "sgd"}), "/init_lr"),
    (synth_doc(base_opt={"kind": "kfac"}, kfac={"damping": 0.01}), "/kfac"),
])
def test_parse_rejects_a_setting_the_run_ignores(doc, pointer):
    """A field the run would never read is an error at its pointer, not
    silently dropped; KFAC's settings live in base_opt only."""
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(f"{pointer}: ")


@pytest.mark.parametrize("key,value", [("damping", 0.01), ("update_every", 2),
                                       ("ema_decay", 0.5)])
def test_parse_takes_a_kfac_setting_under_kfac_only(key, value):
    cfg = parse_config(synth_doc(base_opt={"kind": "kfac", key: value}))
    assert getattr(cfg.base_opt, key) == value
    for mode, kind in (("none", "sgd-momentum"), ("apo-lr", "adam")):
        with pytest.raises(ConfigError, match="is a kfac setting") as err:
            parse_config(synth_doc(mode=mode, base_opt={"kind": kind, key: value}))
        assert str(err.value).startswith(f"/base_opt/{key}: ")


@pytest.mark.parametrize("kind,params,pointer", [
    ("synth-regression", {"d": "x"}, "/task/params/d"),
    ("synth-regression", {"d": True}, "/task/params/d"),
    ("synth-regression", {"widht": 3}, "/task/params/widht"),
    ("synth-regression", {"noise": "0.1"}, "/task/params/noise"),
    ("synth-classification", {"classes": 2.5}, "/task/params/classes"),
    ("illcond-linear", {"kappa": [10]}, "/task/params/kappa"),
    ("bottleneck-autoencoder", {"widths": [16]}, "/task/params/widths"),
    ("bottleneck-autoencoder", {"widths": [16, "2", 16]}, "/task/params/widths"),
    ("rosenbrock", {}, "/task/kind"),
    ("illcond-linear", {"kappa": float("inf")}, "/task/params/kappa"),
    ("uci-csv", {"hidden": 0}, "/task/params/hidden"),
])
def test_parse_rejects_bad_task_params(kind, params, pointer, tmp_path):
    if kind == "uci-csv":
        params = _unsized_task(kind, tmp_path, **params)["params"]
    doc = synth_doc(task={"kind": kind, "batch_size": 8, "params": params})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(f"{pointer}: ")


def test_parse_accepts_every_task_param_type():
    for kind, params in (("illcond-linear", {"d": 4, "kappa": 100}),
                         ("synth-regression", {"d": 3, "noise": 0, "hidden": 4}),
                         ("synth-classification", {"classes": 3, "separation": 2.5}),
                         ("bottleneck-autoencoder", {"widths": [4, 2, 4]})):
        doc = synth_doc(task={"kind": kind, "batch_size": 8, "params": params})
        assert parse_config(doc).task.params == params


def _near_least(json_type, least):
    """Values of one task parameter: just below, at and above its least
    value; any finite number where it has none; "ints" symmetric or not."""
    if least is None:
        return st.floats(-10.0, 10.0)
    if json_type == "number":
        return st.sampled_from([math.nextafter(least, -math.inf), least,
                                math.nextafter(least, math.inf), least + 1.0])
    near = st.integers(least - 1, least + 1)
    if json_type == "int":
        return near
    symmetric = st.tuples(st.lists(near, min_size=1, max_size=2),
                          st.lists(near, max_size=1)).map(
        lambda parts: parts[0] + parts[1] + parts[0][::-1])
    return st.one_of(symmetric, st.lists(near, min_size=2, max_size=4))


GENERATED_KINDS = [kind for kind in tasks.TASK_KINDS if kind != "uci-csv"]


@st.composite
def generated_task_docs(draw):
    kind = draw(st.sampled_from(GENERATED_KINDS))
    params = draw(_optional(**{key: _near_least(*declared)
                               for key, declared in tasks.TASK_PARAMS[kind].items()}))
    return {"kind": kind, "batch_size": draw(st.integers(1, 3)), "params": params}


@settings(max_examples=150, deadline=None)
@given(generated_task_docs())
def test_task_params_parse_and_build_or_fail_at_their_pointer(task):
    """A task parameter below its least value is a ConfigError at its pointer,
    raised by parse_config; any other generated task builds, and its first
    batch passes check_dataset, unless its autoencoder widths end on another
    width than they start, a ConfigError at /task/params/widths, or
    batch_size exceeds the dataset's rows, a ConfigError at /task/batch_size.
    No other error escapes."""
    kind, params = task["kind"], task["params"]
    declared = tasks.TASK_PARAMS[kind]
    below = {f"/task/params/{key}" for key, value in params.items()
             if declared[key][1] is not None and min(np.atleast_1d(value)) < declared[key][1]}
    if below:
        with pytest.raises(ConfigError) as err:
            parse_config(synth_doc(task=task))
        assert str(err.value).split(": ")[0] in below
        return
    spec = parse_config(synth_doc(task=task)).task
    if "widths" in params and params["widths"][0] != params["widths"][-1]:
        with pytest.raises(ConfigError) as err:
            tasks.build_task(spec)
        assert str(err.value).startswith("/task/params/widths: ")
        return
    rows = (params.get("n", inspect.signature(tasks.BUILDERS[kind]).parameters["n"].default)
            if "n" in declared else math.inf)
    if task["batch_size"] > rows:
        with pytest.raises(ConfigError) as err:
            tasks.build_task(spec)
        assert str(err.value).startswith("/task/batch_size: ")
        return
    built = tasks.build_task(spec)
    batch = built.sample_batch(np.random.default_rng(0))
    check_dataset(built.model, batch.inputs, batch.targets)


@pytest.mark.parametrize("decay", [-0.1, 1.0, 1.5])
def test_parse_rejects_ema_decay_out_of_range(decay):
    with pytest.raises(ConfigError, match="ema_decay must lie in") as err:
        parse_config(synth_doc(base_opt={"kind": "kfac", "ema_decay": decay}))
    assert str(err.value).startswith("/base_opt: ")


def test_config_tables_name_every_dataclass_field():
    """Each table reads every field of its dataclass, so none parses, dumps
    and round-trips while always taking its default; the meta-optimizer
    takes no weight decay and no KFAC setting."""
    for table, cls in ((CONFIG, ExperimentConfig), (TASK, TaskSpec),
                       (BASE_OPT, BaseOptKind), (PROXIMAL, ProximalConfig)):
        assert sorted(name for name, _ in table.values()) == sorted(f.name for f in fields(cls))
    meta = {name for name, _ in META_OPT.values()}
    assert meta < {f.name for f in fields(BaseOptKind)}
    assert not meta & {"weight_decay", *KFAC_SETTINGS}


# The document schema: every object's keys in the order config_to_dict writes them.
DOCUMENT_KEYS = {
    "": ["task", "mode", "base_opt", "proximal", "init_lr", "steps", "seed", "eval_every"],
    "/task": ["kind", "batch_size", "seed", "params"],
    "/base_opt": ["kind", "beta", "beta2", "rms_beta2", "eps", "weight_decay", "damping",
                  "update_every", "ema_decay"],
    "/proximal": ["lambda_fsd", "lambda_wsd", "fsd_kind", "meta_interval", "meta_lr",
                  "meta_opt", "warmup_steps", "warmup_lr", "loss_batch_policy",
                  "fsd_batch_policy", "scale"],
    "/proximal/meta_opt": ["kind", "beta", "beta2", "rms_beta2", "eps"],
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


def _optimizer(kinds, **extra):
    decay = st.one_of(st.just(0), st.floats(0.0, 0.99))
    return _optional(kind=st.sampled_from(kinds), beta=decay, beta2=decay,
                     rms_beta2=decay, eps=_numbers(1e-9, 1.0), **extra)


# Per JSON type, values at or above every least value in tasks.TASK_PARAMS.
PARAM_VALUES = {"int": st.integers(2, 6), "number": _numbers(1.0, 20.0),
                "ints": st.lists(st.integers(2, 6), min_size=2, max_size=4)}


@st.composite
def config_docs(draw, csv_path):
    """Valid documents: every task kind, mode and base kind, sections left out
    or null, integers in number fields, fsd_kind left out, null or given;
    task parameters at or above their least values, and only fields the run
    reads: a base kind the mode takes, KFAC's settings under kfac alone, no
    proximal object in mode none and no init_lr under apo-precond."""
    kind = draw(st.sampled_from(tasks.TASK_KINDS))
    params = draw(_optional(**{key: PARAM_VALUES[t] for key, (t, _) in
                               tasks.TASK_PARAMS[kind].items() if t != "string"}))
    if kind == "uci-csv":
        params["path"] = csv_path
    task = {"kind": kind, **draw(_optional(
        batch_size=st.integers(1, 8), seed=st.integers(0, 9),
        params=st.one_of(st.none(), st.just(params))))}
    if kind == "uci-csv":
        task["params"] = params
    mode = draw(st.sampled_from(MODES))
    proximal = _optional(
        lambda_fsd=_numbers(0.0, 2.0), lambda_wsd=_numbers(0.0, 2.0),
        fsd_kind=st.sampled_from([None, *DIVERGENCES]), meta_interval=st.integers(1, 20),
        meta_lr=_numbers(1e-4, 1.0), meta_opt=st.one_of(st.none(), _optimizer(KINDS)),
        warmup_steps=st.integers(0, 50), warmup_lr=_numbers(1e-4, 1.0),
        loss_batch_policy=st.sampled_from(["same", "fresh"]),
        fsd_batch_policy=st.sampled_from(["same", "fresh"]), scale=_numbers(0.01, 2.0))
    kinds = [k for k in MODE_BASE_KINDS[mode] if k != "kfac"]
    doc = {"task": task, "mode": mode, **draw(_optional(
        base_opt=st.one_of(st.none(), _optimizer(kinds)),
        **({} if mode == "none" else {"proximal": st.one_of(st.none(), proximal)}),
        **({} if mode == "apo-precond" else
           {"init_lr": st.one_of(st.none(), _numbers(1e-4, 1.0))}),
        steps=st.integers(1, 500), seed=st.integers(0, 99),
        eval_every=st.one_of(st.none(), st.integers(0, 50))))}
    # A mode that takes kfac picks it by a coin, with its own settings.
    if "kfac" in MODE_BASE_KINDS[mode] and draw(st.booleans()):
        doc["base_opt"] = {**draw(_optimizer(["kfac"], damping=_numbers(0.0, 1.0),
                                             update_every=st.integers(1, 9),
                                             ema_decay=st.floats(0.0, 0.99))), "kind": "kfac"}
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
    ("base_opt.update_every", "x"),
    # Python's json parses Infinity and NaN; a number field takes neither
    ("init_lr", float("inf")),
    ("proximal.warmup_lr", float("inf")),
    ("proximal.meta_lr", float("nan")),
    ("base_opt.eps", float("-inf")),
    ("base_opt.damping", float("nan")),
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
    assert str(err.value).startswith("/" + path.replace(".", "/") + ": ")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


# -------------------------------------------------------------------- run


def test_run_writes_metrics_and_sidecar(tmp_path):
    cfg = parse_config(small_doc())
    outcome = run(cfg, tmp_path / "out")
    assert os.path.exists(outcome.metrics_path)
    assert validate_metrics_csv(outcome.metrics_path)
    sidecar = json.loads(open(outcome.sidecar_path).read())
    assert sidecar["config"]["task"]["kind"] == "synth-regression"
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
    cfg = parse_config(plain_doc(init_lr=1e4, steps=50))
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
    return err.value.step


def test_run_divergence_keeps_rows_apo_train(tmp_path):
    cfg = parse_config(plain_doc(init_lr=1e4, steps=50))
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


def test_run_kfac_baseline(tmp_path):
    doc = synth_doc(base_opt={"kind": "kfac", "damping": 1e-2, "update_every": 2,
                              "ema_decay": 0.9}, init_lr=0.05)
    cfg = parse_config(doc)
    outcome = run(cfg, tmp_path / "kfac")
    assert outcome.summary["final_train_loss"] < 1.5
    assert validate_metrics_csv(outcome.metrics_path)


def test_run_mode_none_steps_and_logs_the_exact_default_rate(tmp_path):
    """Mode none with sgd-momentum's default init_lr writes 0.1 itself in
    every row's lr column, not exp(log(0.1)) = 0.10000000000000002."""
    doc = synth_doc(steps=5)
    del doc["init_lr"]
    outcome = run(parse_config(doc), tmp_path / "none")
    lines = open(outcome.metrics_path).read().splitlines()
    assert [line.split(",")[4] for line in lines] == ["lr"] + ["0.1"] * 5


def test_run_kfac_int_rate_logs_a_float(tmp_path):
    """An int init_lr (parse_config stores floats, so this is a direct
    caller's) still logs as a float in the lr column."""
    cfg = replace(parse_config(synth_doc(base_opt={"kind": "kfac"}, steps=3)), init_lr=1)
    outcome = run(cfg, tmp_path / "kfac")
    lines = open(outcome.metrics_path).read().splitlines()
    assert [line.split(",")[4] for line in lines] == ["lr", "1.0", "1.0", "1.0"]


def test_run_kfac_trains_a_layer_wider_than_any_former_guard(tmp_path):
    """A 600-wide hidden layer factors 601 x 601 damped blocks each refresh;
    the training path has no oracle-scale limit."""
    doc = synth_doc(task={"kind": "synth-regression", "params": {"hidden": 600}},
                    base_opt={"kind": "kfac"}, steps=2)
    outcome = run(parse_config(doc), tmp_path / "wide")
    assert len(open(outcome.metrics_path).read().splitlines()) == 1 + 2


def test_run_classification_reports_accuracy(tmp_path):
    doc = {
        "task": {"kind": "synth-classification", "batch_size": 16, "seed": 2,
                 "params": {"n": 128, "d": 3}},
        "mode": "none",
        "base_opt": {"kind": "sgd-momentum"},
        "init_lr": 0.1,
        "steps": 120,
        "seed": 1,
    }
    outcome = run(parse_config(doc), tmp_path / "cls")
    assert outcome.summary["final_accuracy"] is not None
    assert outcome.summary["final_accuracy"] > 0.8


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d", "e", "f"),
              [(None, 0.1 + 0.2, np.float64(1e-05), 7, True, "a,b")])
    assert path.read_bytes() == b"a,b,c,d,e,f\n,0.30000000000000004,1e-05,7,True,a;b\n"


def test_metrics_schema_validation_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,train_loss\n1,0.5\n")
    with pytest.raises(IngestionError) as err:
        validate_metrics_csv(bad)
    assert str(err.value).startswith("bad metrics header at line 0 of ")
    from apobench.harness.runner import CSV_COLUMNS
    for name, second_step in (("nonmono", "2"), ("badstep", "x"), ("negstep", "-3")):
        path = tmp_path / f"{name}.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n"
                        + "2,1.0,,,0.1,,,\n" + f"{second_step},1.0,,,0.1,,,\n")
        with pytest.raises(IngestionError) as err:
            validate_metrics_csv(path)
        assert str(err.value).startswith("steps not strictly increasing integers at line 2 of ")
    short = tmp_path / "short.csv"
    short.write_text(",".join(CSV_COLUMNS) + "\n1,1.0\n")
    with pytest.raises(IngestionError) as err:
        validate_metrics_csv(short)
    assert str(err.value).startswith("bad column count at line 1 of ")


# -------------------------------------------------------------------- grid


def test_expand_grid_cartesian():
    combos = expand_grid(small_doc(), {"axes": {"init_lr": [1e-4, 1e-3],
                                               "seed": [0, 1, 2]}})
    assert len(combos) == 6
    overrides = [c[0] for c in combos]
    assert {"init_lr": 1e-3, "seed": 2} in overrides


def test_expand_grid_dotted_paths():
    combos = expand_grid(small_doc(), {"axes": {"proximal.lambda_wsd": [0.1, 1.0]}})
    assert combos[0][1]["proximal"]["lambda_wsd"] == 0.1
    assert combos[1][1]["proximal"]["lambda_wsd"] == 1.0


def test_grid_single_point_equals_run(tmp_path):
    rows = grid(small_doc(), {"axes": {"seed": [0]}}, tmp_path / "g")
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    nested = json.loads(open(tmp_path / "g" / "run0000" / "config.json").read())
    assert nested["summary"]["final_train_loss"] == rows[0]["final_train_loss"]


def test_grid_records_failures_and_continues(tmp_path):
    doc = plain_doc(steps=80)
    rows = grid(doc, {"axes": {"init_lr": [1e-4, 1e4]}}, tmp_path / "g2")
    statuses = {repr(r["axis:init_lr"]): r["status"] for r in rows}
    assert statuses[repr(1e-4)] == "ok"
    assert statuses[repr(1e4)].startswith("failed")
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
    doc = small_doc(proximal={"lambda_wsd": 1.0, "meta_interval": 10,
                              "meta_opt": {"kind": "sgd"}})
    rows = grid(doc, {"axes": {"proximal.meta_lr": [0.1, 1e10]}}, tmp_path / "g4")
    statuses = {r["axis:proximal.meta_lr"]: r["status"] for r in rows}
    assert statuses[0.1] == "ok"
    assert statuses[1e10].startswith("failed: non-finite at step 10")
    sidecar = json.loads(open(tmp_path / "g4" / "run0001" / "config.json").read())
    assert sidecar["runtime"]["status"] == "diverged at step 10"


def test_grid_bad_type_point_fails_alone(tmp_path):
    rows = grid(small_doc(steps=10), {"axes": {"base_opt.beta": [0.9, "x"]}},
                tmp_path / "g6")
    statuses = {r["axis:base_opt.beta"]: r["status"] for r in rows}
    assert statuses[0.9] == "ok"
    assert statuses["x"].startswith("failed: /base_opt/beta")
    assert os.path.exists(tmp_path / "g6" / "summary.csv")


def test_grid_os_error_point_fails_alone(tmp_path):
    out = tmp_path / "g7"
    out.mkdir()
    (out / "run0001").write_text("a file where the run directory goes")
    rows = grid(small_doc(steps=10), {"axes": {"seed": [0, 1, 2]}}, out)
    statuses = [r["status"] for r in rows]
    assert statuses[0] == statuses[2] == "ok"
    assert statuses[1].startswith("failed: ")
    assert os.path.exists(out / "summary.csv")


@pytest.mark.parametrize("parallel", [1, 2])
def test_grid_memory_error_point_fails_alone(tmp_path, monkeypatch, parallel):
    """A point whose task fails to allocate is recorded as the CLI prints a
    MemoryError, and the sweep goes on: summary.csv holds both points and
    apobench grid exits 0, serially and in forked workers, which inherit the
    patched build_task."""
    build = runner.build_task

    def build_task(spec):
        if spec.batch_size == 4:
            raise MemoryError("cannot allocate the task's data")
        return build(spec)

    monkeypatch.setattr(runner, "build_task", build_task)
    cfg_path, sweep_path, out = tmp_path / "cfg.json", tmp_path / "sweep.json", tmp_path / "g"
    cfg_path.write_text(json.dumps(small_doc(steps=10)))
    sweep_path.write_text(json.dumps({"axes": {"task.batch_size": [4, 8]}}))
    assert cli.main(["grid", "--config", str(cfg_path), "--sweep", str(sweep_path),
                     "--out", str(out), "--parallel", str(parallel)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["axis:task.batch_size"], r["status"]) for r in rows] == [
        ("4", "failed: MemoryError: cannot allocate the task's data"), ("8", "ok")]


def test_grid_loss_guard_point_fails_alone(tmp_path):
    """A learned rate that stays finite but drives the loss past the guard
    fails its grid point alone."""
    doc = small_doc(base_opt={"kind": "adam"}, seed=3, steps=40,
                    proximal={"meta_lr": 1e6, "meta_interval": 2, "meta_opt": {"kind": "sgd"},
                              "lambda_fsd": 1, "lambda_wsd": 0, "warmup_steps": 0})
    del doc["init_lr"]
    rows = grid(doc, {"axes": {"proximal.meta_lr": [0.1, 1e6]}}, tmp_path / "g8")
    statuses = {r["axis:proximal.meta_lr"]: r["status"] for r in rows}
    assert statuses[0.1] == "ok"
    assert statuses[1e6].startswith("failed: loss inf at step")
    assert os.path.exists(tmp_path / "g8" / "summary.csv")


def test_grid_seed_axis_ignores_the_environment(tmp_path, monkeypatch):
    """Each point of a seed sweep trains at its own config seed; no
    environment variable overrides it."""
    monkeypatch.setenv("APO_SEED", "5")
    rows = grid(small_doc(steps=10), {"axes": {"seed": [1, 2]}}, tmp_path / "g9")
    assert [r["status"] for r in rows] == ["ok", "ok"]
    one, two = ((tmp_path / "g9" / r["run_dir"] / "metrics.csv").read_bytes() for r in rows)
    assert one != two


def test_grid_sorts_numbers_by_value(tmp_path):
    """Numeric axis values sort as numbers, not as text, serially and in
    parallel; an axis that mixes null with numbers puts null last."""
    sweep = {"axes": {"init_lr": [0.1, 1e-05, 0.03, 2.0], "seed": [10, 2]}}
    rows = grid(small_doc(steps=2), sweep, tmp_path / "s")
    assert [(r["axis:init_lr"], r["axis:seed"]) for r in rows] == [
        (lr, seed) for lr in (1e-05, 0.03, 0.1, 2.0) for seed in (2, 10)]
    assert grid(small_doc(steps=2), sweep, tmp_path / "p", parallel=2) == rows
    assert (tmp_path / "p" / "summary.csv").read_bytes() == \
        (tmp_path / "s" / "summary.csv").read_bytes()
    rows = grid(small_doc(steps=2), {"axes": {"eval_every": [10, None, 2]}}, tmp_path / "n")
    assert [r["axis:eval_every"] for r in rows] == [2, 10, None]


def test_grid_summary_order_deterministic(tmp_path):
    sweep = {"axes": {"seed": [2, 0, 1]}}
    rows1 = grid(small_doc(steps=10), sweep, tmp_path / "o1")
    rows2 = grid(small_doc(steps=10), sweep, tmp_path / "o2", parallel=2)
    assert [r["axis:seed"] for r in rows1] == [r["axis:seed"] for r in rows2]
    s1 = open(tmp_path / "o1" / "summary.csv").read()
    s2 = open(tmp_path / "o2" / "summary.csv").read()
    # identical modulo the run_dir assignment, which follows expansion order
    assert [l.split(",")[1:] for l in s1.splitlines()] == \
        [l.split(",")[1:] for l in s2.splitlines()]


def test_grid_parallel_starts_at_most_one_worker_per_point(tmp_path, monkeypatch, capsys):
    """--parallel N starts min(N, points) workers, a one-point sweep none,
    and N < 1 is a ConfigError at --parallel (exit 2).  The pool is a
    stand-in that records max_workers and maps in this process."""
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(gridsearch, "ProcessPoolExecutor", FakePool)
    sweep = {"axes": {"seed": [0, 1, 2, 3]}}
    for parallel in (5000, 3, 2, 1):
        rows = grid(small_doc(steps=10), sweep, tmp_path / f"p{parallel}", parallel=parallel)
        assert [r["status"] for r in rows] == ["ok"] * 4
    grid(small_doc(steps=10), {"axes": {"seed": [0]}}, tmp_path / "one", parallel=8)
    assert made == [4, 3, 2]
    cfg_path, sweep_path = tmp_path / "cfg.json", tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(small_doc(steps=10)))
    sweep_path.write_text(json.dumps(sweep))
    capsys.readouterr()
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="--parallel"):
            grid(small_doc(steps=10), sweep, tmp_path / "bad", parallel=bad)
        assert cli.main(["grid", "--config", str(cfg_path), "--sweep", str(sweep_path),
                         "--out", str(tmp_path / "bad"), "--parallel", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--parallel" in err[0], err
    assert made == [4, 3, 2] and not os.path.exists(tmp_path / "bad")


# --------------------------------------------------------------------- cli


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_doc()))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(small_doc(mode="bogus")))
    assert cli.main(["run", "--config", str(bad_path),
                     "--out", str(tmp_path / "out2")]) == 2

    type_path = tmp_path / "type.json"
    type_path.write_text(json.dumps(small_doc(base_opt={"kind": "sgd", "beta": "x"})))
    assert cli.main(["run", "--config", str(type_path),
                     "--out", str(tmp_path / "out4")]) == 2

    kfac_path = tmp_path / "kfac.json"
    kfac_path.write_text(json.dumps(small_doc(base_opt={"kind": "kfac"})))
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
    div_path.write_text(json.dumps(plain_doc(init_lr=1e4)))
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
    rosenbrock = tmp_path / "rosenbrock.json"
    rosenbrock.write_text(json.dumps({"task": {"kind": "rosenbrock", "batch_size": 1}}))
    capsys.readouterr()
    for argv in (["run", "--config", missing],
                 ["run", "--config", str(rosenbrock)],
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
                         "--lambda-wsd", "1"], "--out"),
                       (["ppm-demo", "--out", nodir + ".csv", "--lambda-fsd"], "--lambda-fsd"),
                       (["ppm-demo", "--out", nodir + ".csv", "--lambda-fsd", "0", "1",
                         "--lambda-wsd", "1"], "--lambda-fsd")):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0], err


@pytest.mark.parametrize("task,pointer", [
    ({"kind": "illcond-linear", "params": {"d": 1}}, "/task/params/d"),
    ({"kind": "illcond-linear", "params": {"kappa": 0.5}}, "/task/params/kappa"),
    ({"kind": "synth-regression", "params": {"hidden": 0}}, "/task/params/hidden"),
    ({"kind": "synth-classification", "params": {"classes": 1}}, "/task/params/classes"),
    ({"kind": "synth-classification", "params": {"d": 0}}, "/task/params/d"),
    ({"kind": "bottleneck-autoencoder", "params": {"widths": [16, 0, 16]}},
     "/task/params/widths"),
    ({"kind": "illcond-linear", "params": {"n": 64}}, "/task/params/n"),
    ({"kind": "synth-regression", "batch_size": 600}, "/task/batch_size"),
    ({"kind": "bottleneck-autoencoder", "params": {"widths": [16, 8, 4]}},
     "/task/params/widths"),
])
def test_cli_names_a_task_param_out_of_range(task, pointer, tmp_path, capsys):
    """Exit 2 with one stderr line at the parameter's pointer, and no --out:
    a parameter fails at parse, and batch_size against the rows or
    mismatched autoencoder widths when the task is built, before run makes
    --out."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": task}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{pointer}: " in err[0], err
    assert not out.exists()


def test_cli_nan_csv_cell_exits_5(tmp_path, capsys):
    """A nan cell is bad input data, an IngestionError at its row and
    column, not a divergence at step 1."""
    data_path = tmp_path / "data.csv"
    data_path.write_text("1.0,2.0\nnan,3.0\n4.0,5.0\n")
    with pytest.raises(IngestionError) as ingestion:
        tasks.uci_csv_load(data_path)
    assert str(ingestion.value).startswith("cell (1, 0) ")
    cfg_path = tmp_path / "uci.json"
    cfg_path.write_text(json.dumps(synth_doc(task={"kind": "uci-csv", "batch_size": 2,
                                                   "params": {"path": str(data_path)}})))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "IngestionError: cell (1, 0) is not a finite number" in err[0], err
    assert not out.exists()


def test_cli_ppm_demo_default_run(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert cli.main(["ppm-demo", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("[")] == [
        "[PASS] ppm-frozen-regime", "[PASS] ppm-global-regime", "[PASS] ppm-spike-regime"]
    assert out.read_text().startswith("lambda_fsd,lambda_wsd,x,f_before,f_after\n")


def test_cli_ppm_demo_failing_check_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ppm_demo", lambda lambda_settings: ([], {}))
    monkeypatch.setattr(cli, "regime_checks", lambda meta: [
        result("ppm-frozen-regime", 0.0, 1e-3), result("ppm-spike-regime", 0.5, 0.1)])
    assert cli.main(["ppm-demo", "--out", str(tmp_path / "demo.csv")]) == 4
    assert "[FAIL] ppm-spike-regime" in capsys.readouterr().out


def _cli_run_in_child(tmp_path, doc):
    """`apobench run` on doc in a fresh interpreter, where numpy's warnings
    reach stderr as they would for a user."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(apobench.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "apobench.harness.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)


def test_cli_divergence_prints_one_stderr_line(tmp_path):
    """A learned rate that overflows ends the run with exit 3 and the
    divergence message alone on stderr: no numpy warning precedes it."""
    proc = _cli_run_in_child(tmp_path, {"task": {"kind": "synth-regression"},
                                        "mode": "apo-lr", "steps": 30,
                                        "proximal": {"meta_lr": 1e308}})
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("training diverged:")


def test_cli_overflowing_data_prints_one_stderr_line(tmp_path):
    """Noise of 1e308 overflows the generated targets: check_dataset refuses
    them with exit 5, and no numpy warning precedes its one stderr line."""
    proc = _cli_run_in_child(tmp_path, {"task": {"kind": "synth-regression",
                                                 "params": {"noise": 1e308}},
                                        "mode": "none", "steps": 5})
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: ContractError: row 0 has a non-finite input or target"], proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_allocation_failure_exits_5(tmp_path, capsys, monkeypatch):
    """A MemoryError, here raised in place of building the task, is one
    stderr line and exit 5, before --out is made."""
    def build_task(spec):
        raise MemoryError("cannot allocate the task's data")

    monkeypatch.setattr(runner, "build_task", build_task)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_doc()))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: MemoryError: cannot allocate the task's data"]
    assert not out.exists()


def test_cli_grid(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_doc(steps=10)))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
    assert cli.main(["grid", "--config", str(cfg_path), "--sweep", str(sweep_path),
                     "--out", str(tmp_path / "g")]) == 0
    assert os.path.exists(tmp_path / "g" / "summary.csv")


# The benchmark's three tasks, an APO run of each mode on each, one KFAC run,
# the check suite and the ppm demo, all in one fresh interpreter whose import
# hook records and refuses every import of SciPy.
NO_SCIPY_SCRIPT = """
import importlib.abc, json, os, sys
blocked = []
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoScipy())
from apobench.harness import checks, cli, config, ppmdemo, runner
from apobench import tasks
task_docs, out = json.loads(sys.argv[1])
for task in task_docs:
    tasks.build_task(config.parse_config({"task": task}).task)
for i, task in enumerate(task_docs):
    for mode in ("apo-lr", "apo-precond"):
        doc = {"task": task, "mode": mode, "steps": 5, "seed": i,
               "proximal": {"lambda_fsd": 1.0, "lambda_wsd": 0.1, "meta_interval": 1}}
        runner.run(config.parse_config(doc), os.path.join(out, f"{mode}-{i}"))
doc = {"task": task_docs[0], "mode": "none", "base_opt": {"kind": "kfac"}, "steps": 5}
runner.run(config.parse_config(doc), os.path.join(out, "kfac"))
checks_passed = checks.run_checks()["passed"]
_, meta = ppmdemo.ppm_demo()
print(json.dumps({"checks": checks_passed,
                  "ppm": all(c["pass"] for c in ppmdemo.regime_checks(meta)),
                  "blocked": blocked,
                  "loaded": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""
BENCH_TASKS = [{"kind": "synth-classification"}, {"kind": "bottleneck-autoencoder"},
               {"kind": "illcond-linear", "batch_size": 64,
                "params": {"d": 64, "kappa": 1e10}}]


def test_no_path_imports_scipy(tmp_path):
    """Task builds, APO and KFAC training, the check suite and the ppm demo
    all run with every import of SciPy refused, and none attempts one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(apobench.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps([BENCH_TASKS, str(tmp_path)])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"checks": True, "ppm": True, "blocked": [], "loaded": []}
