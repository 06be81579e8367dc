"""Cartesian grid sweeps over experiment configurations.

A sweep spec is JSON: {"axes": {"<dotted.path>": [values...], ...}}, where a
dotted path addresses a field of the experiment document (for example
"proximal.lambda_wsd" or "init_lr").  Every combination is run in its own
subdirectory; per-run failures (an ApoBenchError, an OSError from writing
the run's files, or a MemoryError, whose status line names its type as the
CLI does) are recorded and the sweep continues.  The summary is sorted by
axis values, numbers by value and any other value by its repr, so it never
depends on execution order.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor

from ..errors import ApoBenchError, ConfigError
from . import write_csv
from .config import config_hash, parse_config
from .runner import run


def _set_path(doc, dotted, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"path {dotted!r} does not address an object", "")
    node[keys[-1]] = value


def expand_grid(template_doc, sweep_doc):
    """All (overrides, config-doc) pairs of the sweep's Cartesian product."""
    if not isinstance(sweep_doc, dict) or "axes" not in sweep_doc:
        raise ConfigError("sweep spec needs an 'axes' object", "/axes")
    axes = sweep_doc["axes"]
    if not axes or not isinstance(axes, dict) or any(
            not isinstance(values, list) or not values for values in axes.values()):
        raise ConfigError("sweep axes must map each path to a nonempty list", "/axes")
    names = sorted(axes)
    combos = []
    for values in itertools.product(*(axes[n] for n in names)):
        doc = copy.deepcopy(template_doc)
        for name, value in zip(names, values):
            _set_path(doc, name, value)
        combos.append((dict(zip(names, values)), doc))
    return combos


SUMMARY_FIELDS = ("config_hash", "status", "final_train_loss", "best_train_loss",
                  "final_eval_loss", "best_eval_loss", "final_accuracy")


def _run_one(doc, run_dir):
    """Worker: returns a JSON-ready summary row for one grid point, every
    SUMMARY_FIELDS key present (None where a failed point has no value)."""
    row = dict.fromkeys(SUMMARY_FIELDS)
    try:
        cfg = parse_config(doc)
        outcome = run(cfg, run_dir)
        row.update({key: outcome.summary[key] for key in SUMMARY_FIELDS[2:]},
                   status="ok", config_hash=config_hash(cfg))
    except (ApoBenchError, OSError) as exc:
        row.update(status=f"failed: {exc}", config_hash="")
    except MemoryError as exc:
        row.update(status=f"failed: MemoryError: {exc}", config_hash="")
    return row


def _axis_key(value):
    """Numbers by value, then any other value (null included) by its repr."""
    return (0, value) if isinstance(value, (int, float)) else (1, repr(value))


def grid(template_doc, sweep_doc, out_dir, parallel=1):
    """Run the sweep in up to `parallel` processes, at most one per point;
    returns the summary rows (also written to summary.csv)."""
    if parallel < 1:
        raise ConfigError(f"must be >= 1, got {parallel}", "--parallel")
    combos = expand_grid(template_doc, sweep_doc)
    os.makedirs(out_dir, exist_ok=True)
    axis_names = sorted(sweep_doc["axes"])
    run_dirs = [os.path.join(out_dir, f"run{i:04d}") for i in range(len(combos))]

    workers = min(parallel, len(combos))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, [doc for _, doc in combos], run_dirs))
    else:
        results = [_run_one(doc, rd) for (_, doc), rd in zip(combos, run_dirs)]

    rows = []
    for (overrides, _), result, run_dir in zip(combos, results, run_dirs):
        row = {"run_dir": os.path.basename(run_dir)}
        row.update({f"axis:{k}": v for k, v in overrides.items()})
        row.update(result)
        rows.append(row)
    rows.sort(key=lambda r: tuple(_axis_key(r[f"axis:{k}"]) for k in axis_names))

    header = (["run_dir"] + [f"axis:{k}" for k in axis_names] + list(SUMMARY_FIELDS))
    write_csv(os.path.join(out_dir, "summary.csv"), header,
              ([row[key] for key in header] for row in rows))
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump({"template": template_doc, "sweep": sweep_doc,
                   "n_runs": len(rows)}, fh, indent=2)
    return rows

