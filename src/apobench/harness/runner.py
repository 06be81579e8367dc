"""Single-experiment execution: training, metric emission, sidecar metadata.

The metrics CSV is byte-deterministic for a fixed config and seed; wall-clock
timing therefore lives in the JSON sidecar, never in the CSV.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from ..apo import DIVERGENCE_GUARD, TrainResult, TrainRow, apo_train, loss_and_grad
from ..baseopt import BaseOptKind
from ..diffnet import forward, predictive
from ..errors import NumericalError, TrainingDivergedError
from ..numkit import make_rng
from ..oracles import kfac_blocks, kfac_update
from ..tasks import build_task
from .config import config_hash, config_to_dict

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("step", "train_loss", "eval_loss", "meta_objective", "lr",
               "phi_frobenius_norm", "fsd_term", "wsd_term")


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def write_metrics_csv(path, rows, mode):
    """Fixed column order, '.' decimals, shortest-roundtrip float repr."""
    lr_mode = mode in ("none", "apo-lr", "kfac")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join([
                str(r.step),
                _fmt(r.train_loss),
                _fmt(r.eval_loss),
                _fmt(r.meta_objective),
                _fmt(r.lr_or_phi_norm) if lr_mode else "",
                "" if lr_mode else _fmt(r.lr_or_phi_norm),
                _fmt(r.fsd_term),
                _fmt(r.wsd_term),
            ]) + "\n")


def validate_metrics_csv(path):
    """Schema check: exact header and strictly increasing steps."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"bad metrics header in {path}: {header}")
        last = 0
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"bad column count in {path}: {line!r}")
            step = int(cells[0])
            if step <= last:
                raise ValueError(f"steps not strictly increasing in {path}")
            last = step
    return True


def train_kfac(model, theta0, task, steps, rng, lr, damping, update_every,
               ema_decay, eval_fn=None, eval_every=0):
    """KFAC baseline: exponentially averaged Kronecker statistics from the
    current batch, damped Kronecker-inverse steps."""
    theta = theta0.copy()
    stats = None
    rows = []
    for t in range(1, steps + 1):
        batch = task.sample_batch(rng)
        try:
            loss, g = loss_and_grad(model, theta, batch)
            if not np.isfinite(loss) or loss > DIVERGENCE_GUARD:
                raise TrainingDivergedError(f"loss {loss} at step {t}", t, rows)
            if stats is None or t % update_every == 0:
                fresh = kfac_blocks(model, theta, batch.inputs, rng=rng)
                if stats is None:
                    stats = [(a.copy(), b.copy()) for a, b in fresh]
                else:
                    stats = [(ema_decay * a0 + (1 - ema_decay) * a1,
                              ema_decay * b0 + (1 - ema_decay) * b1)
                             for (a0, b0), (a1, b1) in zip(stats, fresh)]
            theta = kfac_update(theta, g, stats, damping, lr)
        except NumericalError as exc:
            raise TrainingDivergedError(f"non-finite at step {t}: {exc}", t, rows) from exc
        eval_loss = None
        if eval_fn is not None and eval_every and (t % eval_every == 0 or t == steps):
            eval_loss = float(eval_fn(theta))
        rows.append(TrainRow(t, loss, None, lr, None, None, eval_loss))
    return TrainResult(rows, theta, None)


def _final_accuracy(task, theta):
    if task.model.head != "classification-softmax" or "dataset" not in task.extras:
        return None
    features, labels = task.extras["dataset"]
    outputs, _ = forward(task.model, theta, features)
    pred = predictive("classification-softmax", outputs).argmax(axis=1)
    return float((pred == np.asarray(labels).reshape(-1)).mean())


@dataclass
class RunOutcome:
    metrics_path: str
    sidecar_path: str
    summary: dict


def execute(cfg):
    """Run the configured experiment; returns (rows, result, task)."""
    seed_override = os.environ.get("APO_SEED")
    seed = int(seed_override) if seed_override else cfg.seed
    task = build_task(cfg.task)
    rng = make_rng(seed)
    theta0 = task.init_theta(rng)
    eval_every = cfg.eval_every
    if eval_every is None:
        eval_every = max(1, cfg.steps // 100)
    if cfg.base_kind == "kfac":
        result = train_kfac(task.model, theta0, task, cfg.steps, rng,
                            lr=cfg.init_lr if cfg.init_lr is not None else 0.01,
                            damping=cfg.kfac.damping,
                            update_every=cfg.kfac.update_every,
                            ema_decay=cfg.kfac.ema_decay,
                            eval_fn=task.eval_loss, eval_every=eval_every)
    else:
        result = apo_train(task.model, theta0, cfg.proximal, task, cfg.steps, rng,
                           mode=cfg.mode, base_kind=cfg.base_opt,
                           init_lr=cfg.init_lr, eval_fn=task.eval_loss,
                           eval_every=eval_every)
    return result, task, seed


def summarize(rows, result, task):
    finals = [r.eval_loss for r in rows if r.eval_loss is not None]
    train = [r.train_loss for r in rows]
    summary = {
        "steps": len(rows),
        "final_train_loss": train[-1] if train else None,
        "best_train_loss": min(train) if train else None,
        "final_eval_loss": finals[-1] if finals else None,
        "best_eval_loss": min(finals) if finals else None,
        "final_accuracy": _final_accuracy(task, result.theta),
        "final_lr_or_phi_norm": rows[-1].lr_or_phi_norm if rows else None,
    }
    return summary


def run(cfg, out_dir):
    """Execute one experiment and write metrics.csv plus config.json sidecar.

    Raises TrainingDivergedError on divergence, after writing the rows of the
    steps before it to metrics.csv and the failure to the sidecar.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    sidecar_path = os.path.join(out_dir, "config.json")
    sidecar = {"schema_version": CSV_SCHEMA_VERSION,
               "config": config_to_dict(cfg),
               "config_hash": config_hash(cfg)}
    csv_mode = cfg.mode if cfg.base_kind != "kfac" else "kfac"
    started = time.monotonic()
    try:
        result, task, seed = execute(cfg)
    except TrainingDivergedError as exc:
        write_metrics_csv(metrics_path, exc.rows, csv_mode)
        validate_metrics_csv(metrics_path)
        sidecar["runtime"] = {"wallclock_ms": round((time.monotonic() - started) * 1e3),
                              "status": f"diverged at step {exc.step}"}
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
        raise
    rows = result.rows
    write_metrics_csv(metrics_path, rows, csv_mode)
    validate_metrics_csv(metrics_path)
    summary = summarize(rows, result, task)
    sidecar["resolved_seed"] = seed
    sidecar["summary"] = summary
    sidecar["runtime"] = {"wallclock_ms": round((time.monotonic() - started) * 1e3),
                          "status": "ok"}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    return RunOutcome(metrics_path, sidecar_path, summary)
