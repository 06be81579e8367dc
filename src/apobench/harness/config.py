"""Experiment configuration: one JSON document per run.

Validation errors carry a JSON-pointer to the offending field.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace

from ..apo import (BATCH_POLICIES, FSD_KINDS, ProximalConfig, default_lr_config,
                   default_precond_config)
from ..baseopt import KINDS as BASE_KINDS
from ..baseopt import BaseOptKind
from ..errors import ConfigError, ContractError
from ..tasks import TASK_KINDS, TaskSpec

MODES = ("none", "apo-lr", "apo-precond")
BASELINE_KINDS = BASE_KINDS + ("kfac",)


@dataclass(frozen=True)
class KfacSettings:
    damping: float = 1e-3
    update_every: int = 5
    ema_decay: float = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    task: TaskSpec
    mode: str = "none"
    base_kind: str = "sgd"
    base_opt: BaseOptKind = field(default_factory=BaseOptKind)
    proximal: ProximalConfig = field(default_factory=ProximalConfig)
    init_lr: float | None = None
    kfac: KfacSettings = field(default_factory=KfacSettings)
    steps: int = 100
    seed: int = 0
    eval_every: int | None = None
    # an omitted fsd_kind falls back to the task's natural output divergence
    fsd_kind_from_task: bool = False


def _expect(cond, message, pointer):
    if not cond:
        raise ConfigError(message, pointer)


def _pick(d, key, default, pointer, types):
    value = d.get(key, default)
    if value is not None and not isinstance(value, types):
        raise ConfigError(f"expected {types}, got {type(value).__name__}",
                          f"{pointer}/{key}")
    return value


def _no_unknown_keys(d, allowed, pointer):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")


def _overrides(d, fields):
    """Dataclass field overrides for the keys of d that fields maps, as
    {key: (field name, cast)}; defaults stay with the dataclass that owns them."""
    return {name: cast(d[key]) for key, (name, cast) in fields.items() if key in d}


# Document key -> (dataclass field, cast) for each configurable object.
OPT_FIELDS = {k: (k, float) for k in ("beta", "beta2", "rms_beta2", "eps", "weight_decay")}
PROXIMAL_FIELDS = {
    "lambda_fsd": ("lam_fsd", float), "lambda_wsd": ("lam_wsd", float),
    "meta_interval": ("meta_interval", int), "meta_lr": ("meta_lr", float),
    "warmup_steps": ("warmup_steps", int), "warmup_lr": ("warmup_lr", float),
    "loss_batch_policy": ("loss_batch_policy", str),
    "fsd_batch_policy": ("fsd_batch_policy", str), "scale": ("scale", float),
}
KFAC_FIELDS = {"damping": ("damping", float), "update_every": ("update_every", int),
               "ema_decay": ("ema_decay", float)}


def parse_config(doc):
    """Build an ExperimentConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object", "")
    _no_unknown_keys(doc, {"task", "mode", "base_opt", "proximal", "init_lr",
                           "kfac", "steps", "seed", "eval_every"}, "")

    task_doc = doc.get("task")
    _expect(isinstance(task_doc, dict), "missing task object", "/task")
    _no_unknown_keys(task_doc, {"kind", "batch_size", "dataset_size", "seed",
                                "params"}, "/task")
    kind = task_doc.get("kind")
    _expect(kind in TASK_KINDS, f"task kind must be one of {TASK_KINDS}", "/task/kind")
    params = _pick(task_doc, "params", {}, "/task", dict)
    try:
        task = TaskSpec(kind,
                        batch_size=_pick(task_doc, "batch_size", 32, "/task", int),
                        dataset_size=_pick(task_doc, "dataset_size", None, "/task", int),
                        seed=_pick(task_doc, "seed", 0, "/task", int),
                        params=params)
    except ContractError as exc:
        raise ConfigError(str(exc), "/task") from exc
    if kind == "uci-csv":
        path = (params or {}).get("path")
        _expect(isinstance(path, str) and os.path.isfile(path),
                "uci-csv needs the path of an existing CSV file", "/task/params/path")

    mode = doc.get("mode", "none")
    _expect(mode in MODES, f"mode must be one of {MODES}", "/mode")

    base_doc = _pick(doc, "base_opt", {}, "", dict) or {}
    _no_unknown_keys(base_doc, {"kind", *OPT_FIELDS}, "/base_opt")
    base_kind = base_doc.get("kind", "sgd")
    _expect(base_kind in BASELINE_KINDS,
            f"base optimizer must be one of {BASELINE_KINDS}", "/base_opt/kind")
    _expect(base_kind != "kfac" or mode == "none",
            "the kfac baseline only runs with mode 'none'", "/base_opt/kind")
    try:
        base_opt = BaseOptKind(kind=base_kind if base_kind != "kfac" else "sgd",
                               **_overrides(base_doc, OPT_FIELDS))
    except ContractError as exc:
        raise ConfigError(str(exc), "/base_opt") from exc

    prox_doc = _pick(doc, "proximal", {}, "", dict) or {}
    _no_unknown_keys(prox_doc, {"fsd_kind", "meta_opt", *PROXIMAL_FIELDS}, "/proximal")
    meta_opt_doc = _pick(prox_doc, "meta_opt", {}, "/proximal", dict) or {}
    _no_unknown_keys(meta_opt_doc, {"kind", "beta", "beta2", "rms_beta2", "eps"},
                     "/proximal/meta_opt")
    defaults = default_precond_config() if mode == "apo-precond" else default_lr_config()
    meta_kind = meta_opt_doc.get("kind", defaults.meta_opt.kind)
    _expect(meta_kind in BASE_KINDS,
            f"meta optimizer must be one of {BASE_KINDS}", "/proximal/meta_opt/kind")
    fsd_kind = prox_doc.get("fsd_kind")
    _expect(fsd_kind is None or fsd_kind in FSD_KINDS,
            f"fsd_kind must be one of {FSD_KINDS}", "/proximal/fsd_kind")
    for policy_key in ("loss_batch_policy", "fsd_batch_policy"):
        value = prox_doc.get(policy_key)
        _expect(value is None or value in BATCH_POLICIES,
                f"must be one of {BATCH_POLICIES}", f"/proximal/{policy_key}")
    try:
        proximal = replace(
            defaults,
            fsd_kind=fsd_kind or defaults.fsd_kind,
            meta_opt=replace(defaults.meta_opt, kind=meta_kind,
                             **_overrides(meta_opt_doc, OPT_FIELDS)),
            **_overrides(prox_doc, PROXIMAL_FIELDS))
    except ContractError as exc:
        raise ConfigError(str(exc), "/proximal") from exc

    init_lr = doc.get("init_lr")
    if init_lr is not None:
        _expect(isinstance(init_lr, (int, float)) and init_lr > 0,
                "init_lr must be a positive number", "/init_lr")
        init_lr = float(init_lr)

    kfac_doc = _pick(doc, "kfac", {}, "", dict) or {}
    _no_unknown_keys(kfac_doc, KFAC_FIELDS, "/kfac")
    kfac = KfacSettings(**_overrides(kfac_doc, KFAC_FIELDS))
    _expect(kfac.damping >= 0, "damping must be nonnegative", "/kfac/damping")
    _expect(kfac.update_every >= 1, "update_every must be >= 1", "/kfac/update_every")
    _expect(0.0 <= kfac.ema_decay < 1.0, "ema_decay must lie in [0, 1)", "/kfac/ema_decay")

    steps = doc.get("steps", 100)
    _expect(isinstance(steps, int) and steps >= 1, "steps must be a positive integer",
            "/steps")
    seed = doc.get("seed", 0)
    _expect(isinstance(seed, int), "seed must be an integer", "/seed")
    eval_every = doc.get("eval_every")
    _expect(eval_every is None or (isinstance(eval_every, int) and eval_every >= 0),
            "eval_every must be a nonnegative integer", "/eval_every")

    return ExperimentConfig(task=task, mode=mode, base_kind=base_kind,
                            base_opt=base_opt, proximal=proximal, init_lr=init_lr,
                            kfac=kfac, steps=steps, seed=seed, eval_every=eval_every,
                            fsd_kind_from_task=fsd_kind is None)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "") from exc
    return parse_config(doc)


def config_to_dict(cfg):
    """Resolved configuration as a JSON-ready dict (sidecar contents)."""
    return {
        "task": {"kind": cfg.task.kind, "batch_size": cfg.task.batch_size,
                 "dataset_size": cfg.task.dataset_size, "seed": cfg.task.seed,
                 "params": dict(cfg.task.params)},
        "mode": cfg.mode,
        "base_opt": {"kind": cfg.base_kind, **{k: v for k, v in
                     asdict(cfg.base_opt).items() if k != "kind"}},
        "proximal": {
            "lambda_fsd": cfg.proximal.lam_fsd,
            "lambda_wsd": cfg.proximal.lam_wsd,
            "fsd_kind": None if cfg.fsd_kind_from_task else cfg.proximal.fsd_kind,
            "meta_interval": cfg.proximal.meta_interval,
            "meta_lr": cfg.proximal.meta_lr,
            "meta_opt": {k: v for k, v in asdict(cfg.proximal.meta_opt).items()
                         if k != "weight_decay"},
            "warmup_steps": cfg.proximal.warmup_steps,
            "warmup_lr": cfg.proximal.warmup_lr,
            "loss_batch_policy": cfg.proximal.loss_batch_policy,
            "fsd_batch_policy": cfg.proximal.fsd_batch_policy,
            "scale": cfg.proximal.scale,
        },
        "init_lr": cfg.init_lr,
        "kfac": asdict(cfg.kfac),
        "steps": cfg.steps,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
    }


def config_hash(cfg):
    doc = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]
