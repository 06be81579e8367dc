"""Cartesian grid sweeps over experiment configurations.

A sweep spec is JSON: {"axes": {"<dotted.path>": [values...], ...}}, where a
dotted path addresses a field of the experiment document (for example
"proximal.lambda_wsd" or "init_lr").  Every combination is run in its own
subdirectory; per-run failures (an ApoBenchError, or an OSError from writing
the run's files) are recorded and the sweep continues.  The summary is sorted
by axis values, so it never depends on execution order.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor

from ..errors import ApoBenchError, ConfigError
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


def _run_one(doc, run_dir):
    """Worker: returns a JSON-ready summary row for one grid point."""
    try:
        cfg = parse_config(doc)
        outcome = run(cfg, run_dir)
        row = {"status": "ok", "config_hash": config_hash(cfg)}
        row.update({
            "final_train_loss": outcome.summary["final_train_loss"],
            "best_train_loss": outcome.summary["best_train_loss"],
            "final_eval_loss": outcome.summary["final_eval_loss"],
            "best_eval_loss": outcome.summary["best_eval_loss"],
            "final_accuracy": outcome.summary["final_accuracy"],
        })
        return row
    except (ApoBenchError, OSError) as exc:
        return {"status": f"failed: {exc}", "config_hash": "",
                "final_train_loss": None, "best_train_loss": None,
                "final_eval_loss": None, "best_eval_loss": None,
                "final_accuracy": None}


SUMMARY_FIELDS = ("config_hash", "status", "final_train_loss", "best_train_loss",
                  "final_eval_loss", "best_eval_loss", "final_accuracy")


def grid(template_doc, sweep_doc, out_dir, parallel=1):
    """Run the sweep; returns the summary rows (also written to summary.csv)."""
    combos = expand_grid(template_doc, sweep_doc)
    os.makedirs(out_dir, exist_ok=True)
    axis_names = sorted(sweep_doc["axes"])
    run_dirs = []
    for i, (overrides, _) in enumerate(combos):
        run_dirs.append(os.path.join(out_dir, f"run{i:04d}"))

    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_one, [doc for _, doc in combos], run_dirs))
    else:
        results = [_run_one(doc, rd) for (_, doc), rd in zip(combos, run_dirs)]

    rows = []
    for (overrides, _), result, run_dir in zip(combos, results, run_dirs):
        row = {"run_dir": os.path.basename(run_dir)}
        row.update({f"axis:{k}": v for k, v in overrides.items()})
        row.update(result)
        rows.append(row)
    rows.sort(key=lambda r: tuple(repr(r[f"axis:{k}"]) for k in axis_names))

    header = (["run_dir"] + [f"axis:{k}" for k in axis_names] + list(SUMMARY_FIELDS))
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for key in header:
                value = row.get(key)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(repr(value))
                else:
                    cells.append(str(value).replace(",", ";"))
            fh.write(",".join(cells) + "\n")
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump({"template": template_doc, "sweep": sweep_doc,
                   "n_runs": len(rows)}, fh, indent=2)
    return rows

