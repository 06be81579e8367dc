"""Single-experiment execution: training, metric emission, sidecar metadata.

The metrics CSV is byte-deterministic for a fixed config and seed; wall-clock
timing therefore lives in the JSON sidecar, never in the CSV.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..apo import TrainRow, apo_train
from ..diffnet import forward, softmax
from ..errors import IngestionError, TrainingDivergedError
from ..numkit import make_rng
from ..tasks import build_task
from . import write_csv
from .config import config_hash, config_to_dict

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = TrainRow._fields


def write_metrics_csv(path, rows):
    """apo_train's TrainRows in column order, '.' decimals, shortest-roundtrip
    float repr."""
    write_csv(path, CSV_COLUMNS, rows)


def validate_metrics_csv(path):
    """Schema check: exact header and strictly increasing integer steps.  A
    violation is an IngestionError naming its 0-based line of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise IngestionError(f"bad metrics header at line 0 of {path}: {header}")
        last = 0
        for r, line in enumerate(fh, start=1):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise IngestionError(f"bad column count at line {r} of {path}: {line!r}")
            step = int(cells[0]) if cells[0].isdecimal() else 0
            if step <= last:
                raise IngestionError(f"steps not strictly increasing integers at line {r} "
                                     f"of {path}")
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


def summarize(rows, theta, task):
    """The sidecar's summary of a completed run's rows (one or more)."""
    finals = [r.eval_loss for r in rows if r.eval_loss is not None]
    last = rows[-1]
    return {
        "steps": len(rows),
        "final_train_loss": last.train_loss,
        "best_train_loss": min(r.train_loss for r in rows),
        "final_eval_loss": finals[-1] if finals else None,
        "best_eval_loss": min(finals) if finals else None,
        "final_accuracy": _final_accuracy(task, theta),
        "final_lr_or_phi_norm": last.lr if last.lr is not None else last.phi_frobenius_norm,
    }


def run(cfg, out_dir):
    """Build the configured task, train on it, and write metrics.csv plus
    the config.json sidecar to out_dir; a task that fails to build raises
    before out_dir is made.

    Raises TrainingDivergedError on divergence, after writing the rows of the
    steps before it to metrics.csv and the failure to the sidecar.
    """
    started = time.monotonic()
    task = build_task(cfg.task)
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    sidecar_path = os.path.join(out_dir, "config.json")
    sidecar = {"schema_version": CSV_SCHEMA_VERSION,
               "config": config_to_dict(cfg),
               "config_hash": config_hash(cfg)}
    rng = make_rng(cfg.seed)
    theta0 = task.init_theta(rng)
    eval_every = cfg.eval_every
    if eval_every is None:
        eval_every = max(1, cfg.steps // 100)
    rows, failure = [], None
    try:
        theta, _ = apo_train(task, theta0, cfg.proximal, cfg.steps, rng, rows.append,
                             mode=cfg.mode, base_kind=cfg.base_opt, init_lr=cfg.init_lr,
                             eval_every=eval_every)
    except TrainingDivergedError as exc:
        failure = exc
    write_metrics_csv(metrics_path, rows)
    validate_metrics_csv(metrics_path)
    if failure is None:
        sidecar["summary"] = summary = summarize(rows, theta, task)
    sidecar["runtime"] = {"wallclock_ms": round((time.monotonic() - started) * 1e3),
                          "status": f"diverged at step {failure.step}" if failure else "ok"}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    if failure is not None:
        raise failure
    return RunOutcome(metrics_path, sidecar_path, summary)
