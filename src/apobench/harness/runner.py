"""Single-experiment execution: training, metric emission, sidecar metadata.

The metrics CSV is byte-deterministic for a fixed config and seed; wall-clock
timing therefore lives in the JSON sidecar, never in the CSV.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..apo import apo_train
from ..diffnet import forward, softmax
from ..errors import IngestionError, TrainingDivergedError
from ..numkit import make_rng
from ..tasks import build_task
from . import write_csv
from .config import config_hash, config_to_dict

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("step", "train_loss", "eval_loss", "meta_objective", "lr",
               "phi_frobenius_norm", "fsd_term", "wsd_term")


def write_metrics_csv(path, rows, mode):
    """Fixed column order, '.' decimals, shortest-roundtrip float repr; a
    row's rate (apo_train's float) fills lr, apo-precond's phi norm
    phi_frobenius_norm."""
    lr_mode = mode in ("none", "apo-lr")
    write_csv(path, CSV_COLUMNS, [
        (r.step, r.train_loss, r.eval_loss, r.meta_objective,
         r.lr_or_phi_norm if lr_mode else None,
         None if lr_mode else r.lr_or_phi_norm, r.fsd_term, r.wsd_term)
        for r in rows])


def validate_metrics_csv(path):
    """Schema check: exact header and strictly increasing integer steps.  A
    violation is an IngestionError at its 0-based line of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise IngestionError(f"bad metrics header in {path}: {header}", row=0)
        last = 0
        for r, line in enumerate(fh, start=1):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise IngestionError(f"bad column count in {path}: {line!r}", row=r)
            step = int(cells[0]) if cells[0].isdecimal() else 0
            if step <= last:
                raise IngestionError(f"steps not strictly increasing integers in {path}",
                                     row=r)
            last = step
    return True


def _final_accuracy(task, theta):
    if task.model.head != "classification-softmax" or "dataset" not in task.extras:
        return None
    features, labels = task.extras["dataset"]
    outputs, _ = forward(task.model, theta, features)
    pred = softmax(outputs).argmax(axis=1)
    return float((pred == labels).mean())


@dataclass
class RunOutcome:
    metrics_path: str
    sidecar_path: str
    summary: dict


def execute(cfg):
    """Run the configured experiment; returns (result, task)."""
    task = build_task(cfg.task)
    rng = make_rng(cfg.seed)
    theta0 = task.init_theta(rng)
    eval_every = cfg.eval_every
    if eval_every is None:
        eval_every = max(1, cfg.steps // 100)
    result = apo_train(task.model, theta0, cfg.proximal, task, cfg.steps, rng,
                       mode=cfg.mode, base_kind=cfg.base_opt, init_lr=cfg.init_lr,
                       eval_fn=task.eval_loss, eval_every=eval_every)
    return result, task


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
    started = time.monotonic()
    failure = None
    try:
        result, task = execute(cfg)
        rows = result.rows
    except TrainingDivergedError as exc:
        failure, rows = exc, exc.rows
    write_metrics_csv(metrics_path, rows, cfg.mode)
    validate_metrics_csv(metrics_path)
    if failure is None:
        sidecar["summary"] = summary = summarize(rows, result, task)
    sidecar["runtime"] = {"wallclock_ms": round((time.monotonic() - started) * 1e3),
                          "status": f"diverged at step {failure.step}" if failure else "ok"}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    if failure is not None:
        raise failure
    return RunOutcome(metrics_path, sidecar_path, summary)
