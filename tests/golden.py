"""Golden digests of the program's deterministic outputs.

tests/golden_metrics.json records, for every cycle-0 unit of the benchmark's
three training workloads at bench seeds 1 and 2 (config seeds 1000 and
2000), the unit's config document, the sha256 of its metrics.csv and its
final eval loss or divergence step; plus the sha256 of `check --json` and of
the default `ppm-demo --out` table, and the numpy and CPython versions that
made them, and the one BLAS thread they are measured with.
tests/test_golden.py reruns everything and compares.

A change that moves these bytes on purpose regenerates the file with

    PYTHONPATH=src python3 tests/golden.py

and names every moved unit, old -> new final loss, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
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
from apobench.harness.checks import report_to_json, run_checks
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


def run_unit(doc, out_dir):
    """{"sha256", and "final_eval_loss" or "diverged_at"} of one training unit."""
    try:
        outcome = runner.run(config.parse_config(doc), out_dir)
        end = {"final_eval_loss": outcome.summary["final_eval_loss"]}
    except TrainingDivergedError as exc:
        end = {"diverged_at": exc.step}
    with open(pathlib.Path(out_dir) / "metrics.csv", "rb") as fh:
        return {"sha256": sha256(fh.read()), **end}


def check_digest():
    """sha256 of the text `check --json` writes."""
    return sha256((report_to_json(run_checks()) + "\n").encode())


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


def bench_units():
    """{"<bench seed> <unit label>": config document} of every cycle-0 unit."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # the benchmark's own unit definitions
    return {f"{seed} {unit.label}": unit.doc for workload in workloads.WORKLOADS
            for seed in BENCH_SEEDS for unit in workloads.cycle(workload, seed, 0)}


if __name__ == "__main__" and sys.argv[1:] == ["--measure"]:
    print(json.dumps(measure_here(json.load(sys.stdin))))
elif __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(measure(bench_units()), indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
