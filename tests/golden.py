"""Golden digests of the program's deterministic outputs.

tests/golden_metrics.json records, for every cycle-0 unit of the benchmark's
three training workloads at bench seeds 1 and 2 (config seeds 1000 and
2000) and for every extra_units unit, each of which takes a path the
benchmark never does, the unit's config document, the sha256 of its
metrics.csv and of each of its columns, and its final eval loss or
divergence step; plus the sha256 of `check --json` and of the default
`ppm-demo --out` table, and the numpy and CPython versions that
made them, and the one BLAS thread they are measured with.
tests/test_golden.py reruns everything and compares.

A change that moves these bytes on purpose regenerates the file with

    PYTHONPATH=src python3 tests/golden.py

which prints every entry whose digest moved, old -> new final eval loss or
divergence step and the metrics.csv columns that moved, for CHANGES.md to
name.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np

from apobench.errors import TrainingDivergedError
from apobench.harness import config, runner, write_csv
from apobench.harness.checks import run_checks
from apobench.harness.ppmdemo import CSV_COLUMNS, ppm_demo

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden_metrics.json"
BENCH_SEEDS = (1, 2)


# The BLAS thread count every measurement runs with: a default ppm-demo table
# differs in its last bits between one thread and two.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def versions():
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas_threads": BLAS_THREADS}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def column_digests(data):
    """{column name: sha256 of its cells, one a line} of a CSV file's bytes."""
    rows = csv.reader(io.StringIO(data.decode()))
    return {name: sha256("\n".join(cells).encode()) for name, *cells in zip(*rows)}


def run_unit(doc, out_dir):
    """{"sha256", "columns" (column_digests), and "final_eval_loss" or
    "diverged_at"} of one training unit."""
    try:
        outcome = runner.run(config.parse_config(doc), out_dir)
        end = {"final_eval_loss": outcome.summary["final_eval_loss"]}
    except TrainingDivergedError as exc:
        end = {"diverged_at": exc.step}
    data = (pathlib.Path(out_dir) / "metrics.csv").read_bytes()
    return {"sha256": sha256(data), "columns": column_digests(data), **end}


def check_digest():
    """sha256 of the text `check --json` writes."""
    return sha256((json.dumps(run_checks(), indent=2) + "\n").encode())


def ppm_demo_digest(out_dir):
    """sha256 of the table the default `ppm-demo --out` writes."""
    path = pathlib.Path(out_dir) / "ppm.csv"
    write_csv(path, CSV_COLUMNS, ppm_demo()[0])
    return sha256(path.read_bytes())


def measure(units):
    """The golden record of units, a {label: config document} map, measured
    in a child interpreter with BLAS_THREADS BLAS threads."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, BLAS_THREADS), PYTHONPATH=path)
    child = subprocess.run([sys.executable, __file__, "--measure"], input=json.dumps(units),
                           stdout=subprocess.PIPE, text=True, env=env, check=True)
    return json.loads(child.stdout)


def measure_here(units):
    """measure's record, in this interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        results = {label: {"config": doc, **run_unit(doc, pathlib.Path(tmp) / str(i))}
                   for i, (label, doc) in enumerate(units.items())}
        return {"versions": versions(), "units": results, "check_json": check_digest(),
                "ppm_demo": ppm_demo_digest(tmp)}


def end_of(record):
    if "diverged_at" in record:
        return f"diverged at step {record['diverged_at']}"
    return f"final eval loss {record['final_eval_loss']!r}"


def moved_columns(old, new):
    """The columns whose digests differ between two unit records, in
    order; none unless both records have column digests."""
    if "columns" not in old or "columns" not in new:
        return []
    names = {**old["columns"], **new["columns"]}
    return [name for name in names if old["columns"].get(name) != new["columns"].get(name)]


def moved(golden, now):
    """One line per unit or digest of golden that differs in now, naming a
    unit's moved columns, and per unit that only one of them has."""
    units, now_units = golden["units"], now["units"]
    lines = []
    for label, old in units.items():
        new = now_units.get(label)
        if new is None:
            lines.append(f"{label}: {end_of(old)} -> not measured")
        elif new["sha256"] != old["sha256"]:
            columns = moved_columns(old, new)
            lines.append(f"{label}: {end_of(old)} -> {end_of(new)}"
                         + (f"; columns moved: {', '.join(columns)}" if columns else ""))
    lines += [f"{label}: new, {end_of(unit)}" for label, unit in now_units.items()
              if label not in units]
    lines += [f"{name} digest moved" for name in ("check_json", "ppm_demo")
              if now[name] != golden[name]]
    return lines


def bench_units():
    """{"<bench seed> <unit label>": config document} of every cycle-0 unit."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # the benchmark's own unit definitions
    return {f"{seed} {unit.label}": unit.doc for workload in workloads.WORKLOADS
            for seed in BENCH_SEEDS for unit in workloads.cycle(workload, seed, 0)}


def extra_units():
    """{"extra <label>": config document} of the units that take what the
    benchmark's never do, 60 steps at seed 5 each: apo-precond's steps after
    its warm-up and before its first meta step (warm-up 0 and meta_interval
    10; warm-up 3, meta_interval 7 and the fresh loss and same fsd batches),
    and apo-lr meta steps under weight decay with lam_fsd 0 and the fresh
    loss batch."""
    run = {"steps": 60, "seed": 5}
    units = {}
    for name, proximal in (("warmup 0, interval 10", {"warmup_steps": 0, "meta_interval": 10}),
                           ("warmup 3, interval 7, fresh loss, same fsd",
                            {"warmup_steps": 3, "meta_interval": 7,
                             "loss_batch_policy": "fresh", "fsd_batch_policy": "same"})):
        for task in ("synth-classification", "bottleneck-autoencoder"):
            units[f"extra apo-precond:{task}/{name}"] = {
                "task": {"kind": task}, "mode": "apo-precond", **run,
                "proximal": {"lambda_fsd": 1.0, "lambda_wsd": 0.1, "scale": 0.3, **proximal}}
    for kind in ("sgd-momentum", "adam"):
        units[f"extra apo-lr:synth-classification/{kind}, lambda_fsd 0"] = {
            "task": {"kind": "synth-classification"}, "mode": "apo-lr", **run,
            "base_opt": {"kind": kind, "weight_decay": 0.01},
            "proximal": {"lambda_fsd": 0.0, "lambda_wsd": 0.1, "meta_interval": 3,
                         "loss_batch_policy": "fresh"}}
    return units


if __name__ == "__main__" and sys.argv[1:] == ["--measure"]:
    print(json.dumps(measure_here(json.load(sys.stdin))))
elif __name__ == "__main__":
    record = measure({**bench_units(), **extra_units()})
    if GOLDEN_PATH.exists():
        for line in moved(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")), record):
            print(line)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
