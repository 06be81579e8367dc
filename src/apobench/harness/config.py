"""Experiment configuration: one JSON document per run.

Each object of the document (the top level, task, base_opt, proximal and
proximal/meta_opt) is declared once, as a table that maps each
document key to its dataclass field and its type. A type is a name in
JSON_TYPES (a trailing "?" also admits null), a tuple of the allowed values,
or the table of a nested object. parse_config reads every object through its
table with _read, and config_to_dict dumps the resolved configuration by
walking the same tables, keys in table order.

A number is finite (Python's json parses Infinity and NaN, which no number
field takes) and stored as a float, so an integer in a number field dumps as
a float; integer fields take integers only. A key left out takes the default of
the dataclass that owns the field; the proximal defaults depend on the mode.
base_opt holds KFAC's damping, update_every and ema_decay too. A setting the
run would ignore is an error unless it keeps its default: proximal under
mode none, init_lr under apo-precond, a KFAC setting under another kind.
Every error is a ConfigError that carries the JSON pointer of the offending
field; read_json, the reader of every JSON input file, raises one too.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial

from ..apo import (BATCH_POLICIES, FSD_KINDS, MODE_BASE_KINDS, ProximalConfig,
                   default_precond_config)
from ..baseopt import BASE_KINDS, KINDS, BaseOptKind
from ..errors import ConfigError, ContractError
from ..tasks import TASK_KINDS, TASK_PARAMS, TaskSpec

MODES = tuple(MODE_BASE_KINDS)


@dataclass(frozen=True)
class ExperimentConfig:
    task: TaskSpec
    mode: str = "none"
    base_opt: BaseOptKind = field(default_factory=BaseOptKind)
    proximal: ProximalConfig = field(default_factory=ProximalConfig)
    init_lr: float | None = None
    steps: int = 100
    seed: int = 0
    eval_every: int | None = None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# One test per JSON type, for the tables below and for tasks.TASK_PARAMS.
JSON_TYPES = {
    "int": _is_int,
    "number": lambda v: (math.isfinite(v) if isinstance(v, float)
                         else _is_int(v) and abs(v) <= sys.float_info.max),
    "string": lambda v: isinstance(v, str),
    "ints": lambda v: isinstance(v, (list, tuple)) and len(v) >= 2 and all(map(_is_int, v)),
    "object": lambda v: isinstance(v, dict),
}


def _table(**types):
    """A table whose document keys are the dataclass field names."""
    return {key: (key, kind) for key, kind in types.items()}


TASK = _table(kind=TASK_KINDS, batch_size="int", dataset_size="int?", seed="int",
              params="object?")
OPT_DECAYS = dict.fromkeys(("beta", "beta2", "rms_beta2", "eps"), "number")
KFAC_SETTINGS = dict(damping="number", update_every="int", ema_decay="number")
BASE_OPT = _table(kind=BASE_KINDS, **OPT_DECAYS, weight_decay="number", **KFAC_SETTINGS)
META_OPT = _table(kind=KINDS, **OPT_DECAYS)
PROXIMAL = {"lambda_fsd": ("lam_fsd", "number"), "lambda_wsd": ("lam_wsd", "number"),
            **_table(fsd_kind=(None, *FSD_KINDS), meta_interval="int", meta_lr="number",
                     meta_opt=META_OPT, warmup_steps="int", warmup_lr="number",
                     loss_batch_policy=BATCH_POLICIES, fsd_batch_policy=BATCH_POLICIES,
                     scale="number")}
CONFIG = _table(task=TASK, mode=MODES, base_opt=BASE_OPT, proximal=PROXIMAL,
                init_lr="number?", steps="int", seed="int", eval_every="int?")


def _expect(cond, message, pointer):
    if not cond:
        raise ConfigError(message, pointer)


def _read(doc, table, pointer, owner=None, number=float):
    """{dataclass field: value} for the keys doc sets, each checked against
    table; an unknown key or a wrong type raises ConfigError at its pointer,
    naming owner (by default the object's pointer). A number is stored as
    number(v); a nested object is returned as given (null as {}) for its own
    _read."""
    owner = owner or pointer[1:] or "configuration"
    _expect(isinstance(doc, dict), f"{owner} must be a JSON object", pointer)
    fields = {}
    for key, value in doc.items():
        where = f"{pointer}/{key}"
        _expect(key in table, f"unknown key {key!r}", where)
        name, kind = table[key]
        if isinstance(kind, dict):
            value = {} if value is None else value
        elif isinstance(kind, tuple):
            _expect(value in kind, f"{key} must be one of {kind}", where)
        elif value is not None or not kind.endswith("?"):
            kind = kind.rstrip("?")
            _expect(JSON_TYPES[kind](value), f"{owner} needs {key} of type {kind}", where)
            value = number(value) if kind == "number" else value
        fields[name] = value
    return fields


def _build(make, fields, pointer):
    """make(**fields), with a dataclass's ContractError as a ConfigError at pointer."""
    try:
        return make(**fields)
    except ContractError as exc:
        raise ConfigError(str(exc), pointer) from exc


def parse_config(doc):
    """Build an ExperimentConfig from a parsed JSON document."""
    top = _read(doc, CONFIG, "")
    _expect(isinstance(doc.get("task"), dict), "missing task object", "/task")
    task = _read(top["task"], TASK, "/task")
    kind = task.get("kind")
    _expect(kind in TASK_KINDS, f"task kind must be one of {TASK_KINDS}", "/task/kind")
    params = task.get("params") or {}
    if kind == "uci-csv":
        path = params.get("path")
        _expect(isinstance(path, str) and os.path.isfile(path),
                "uci-csv needs the path of an existing CSV file", "/task/params/path")
    # Task parameters are builder keywords, kept as given.
    task["params"] = _read(params, _table(**TASK_PARAMS[kind]), "/task/params", kind,
                           number=lambda v: v)

    mode = top.get("mode", ExperimentConfig.mode)
    base = _read(top.get("base_opt", {}), BASE_OPT, "/base_opt")
    defaults = default_precond_config() if mode == "apo-precond" else ProximalConfig()
    prox = _read(top.get("proximal", {}), PROXIMAL, "/proximal")
    prox["meta_opt"] = _build(partial(replace, defaults.meta_opt),
                              _read(prox.get("meta_opt", {}), META_OPT, "/proximal/meta_opt"),
                              "/proximal/meta_opt")

    cfg = ExperimentConfig(**{
        **top, "task": _build(TaskSpec, task, "/task"),
        "base_opt": _build(BaseOptKind, base, "/base_opt"),
        "proximal": _build(partial(replace, defaults), prox, "/proximal")})
    base_kind = cfg.base_opt.kind
    for ok, message, pointer in (
            (base_kind in MODE_BASE_KINDS[mode],
             f"mode {mode!r} takes base_opt.kind in {MODE_BASE_KINDS[mode]}", "/base_opt/kind"),
            *((base_kind == "kfac" or getattr(cfg.base_opt, key) == getattr(BaseOptKind, key),
               f"{key} is a kfac setting, unused by base_opt.kind {base_kind!r}",
               f"/base_opt/{key}") for key in KFAC_SETTINGS),
            (mode != "none" or cfg.proximal == defaults,
             "mode 'none' meta-learns nothing, so it takes no proximal settings", "/proximal"),
            (mode != "apo-precond" or cfg.init_lr is None,
             "apo-precond steps at proximal.warmup_lr, then with its preconditioner, "
             "so it takes no init_lr", "/init_lr"),
            (cfg.init_lr is None or cfg.init_lr > 0, "init_lr must be a positive number",
             "/init_lr"),
            (cfg.steps >= 1, "steps must be a positive integer", "/steps"),
            (cfg.eval_every is None or cfg.eval_every >= 0,
             "eval_every must be a nonnegative integer", "/eval_every")):
        _expect(ok, message, pointer)
    return cfg


def read_json(path):
    """The JSON document at path; a file that cannot be read or parsed is a
    ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def load_config(path):
    return parse_config(read_json(path))


def _dump(obj, table):
    """The document of a dataclass: table's keys in order, nested objects by
    their own tables."""
    return {key: _dump(getattr(obj, name), kind) if isinstance(kind, dict)
            else copy.copy(getattr(obj, name)) for key, (name, kind) in table.items()}


def config_to_dict(cfg):
    """Resolved configuration as a JSON-ready dict (sidecar contents)."""
    return _dump(cfg, CONFIG)


def config_hash(cfg):
    doc = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]
