"""The benchmark's workloads: which units a cycle runs, how one unit runs
through apobench's public entry points, and how its output is verified.

A unit is one ``harness.runner.run()`` experiment, or the one
``harness.ppmdemo.ppm_demo()`` a traced run makes to measure
``oracles.exact_ppm_solve``.  The program is always called through module
attributes (``runner.run``), so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass

from apobench.errors import TrainingDivergedError
from apobench.harness import config, ppmdemo, runner
from refspeed import REF_SECONDS, RefKernel

# Three tasks that differ in depth, width and divergence kind.  The first two
# are bound by interpreter overhead, illcond-linear by BLAS.
TASKS = {
    "synth-classification": {"kind": "synth-classification"},
    "bottleneck-autoencoder": {"kind": "bottleneck-autoencoder"},
    "illcond-linear": {"kind": "illcond-linear", "batch_size": 64,
                       "params": {"d": 64, "kappa": 1e10}},
}
STEPS = 400
# Cycle k of a run uses config seed SEED_STRIDE * seed + k, so final_loss
# averages QUALITY_CYCLES training seeds; one seed alone spreads by 60% on
# the KFAC autoencoder unit.
SEED_STRIDE = 1000
QUALITY_CYCLES = 8
# Both discrepancy terms on, so the fsd and wsd paths of the meta-objective run.
DISCREPANCY = {"lambda_fsd": 1.0, "lambda_wsd": 0.1}
# apo-precond diverges on illcond-linear at the default scale 0.9 (step
# 314-317, d=64 and d=32); scales 0.01-0.3 converge on all three tasks.
PRECOND_SCALE = 0.3

TRAINING = {
    "plain": {"mode": "none", "bases": ("sgd-momentum", "adam", "kfac"),
              "proximal": None},
    "apo-lr": {"mode": "apo-lr", "bases": ("sgd-momentum", "adam"),
               "proximal": {**DISCREPANCY, "meta_interval": 10}},
    "apo-precond": {"mode": "apo-precond", "bases": (None,),
                    "proximal": {**DISCREPANCY, "meta_interval": 1,
                                 "scale": PRECOND_SCALE}},
}
WORKLOADS = tuple(TRAINING)

# Divergences that reproduce on every run at the commit that defined the
# benchmark.  Such a unit is attempted and never dropped: while it diverges it
# lowers ok_frac without counting as failed, and once a fix makes it converge
# it is verified and counted like any other unit.
KNOWN_DIVERGENCES = {
    ("plain", "illcond-linear", "kfac"):
        "KFAC at its default damping 1e-3 diverges at step 3",
}


@dataclass(frozen=True)
class Unit:
    workload: str
    cycle: int = 0
    task: str | None = None
    base: str | None = None
    doc: dict | None = None

    @property
    def label(self):
        if self.task is None:
            return self.workload
        return f"{self.workload}:{self.task}/{self.base or 'precond'}"


@dataclass
class Outcome:
    label: str
    cycle: int
    status: str            # "ok", "known-divergence" or "failed"
    seconds: float         # wall time scaled to the reference speed
    steps: int = 0
    final_loss: float | None = None
    detail: str = ""
    wall_s: float = math.nan


def config_doc(workload, task, base, seed):
    spec = TRAINING[workload]
    doc = {"task": dict(TASKS[task]), "mode": spec["mode"], "steps": STEPS,
           "seed": seed}
    if base is not None:
        doc["base_opt"] = {"kind": base}
    if spec["proximal"] is not None:
        doc["proximal"] = dict(spec["proximal"])
    return doc


# ppm_demo takes no seed from the benchmark: it runs the demo's own input, as
# the CLI does (other demo seeds do not converge, see bench/baseline.json).
PPM_UNIT = Unit("ppm")


def cycle(workload, seed, k):
    """The units of cycle k, in the order they run."""
    unit_seed = SEED_STRIDE * seed + k
    return [Unit(workload, k, task, base, config_doc(workload, task, base, unit_seed))
            for task in TASKS for base in TRAINING[workload]["bases"]]


class UnitRunner:
    """Runs units one after another, verifies each one's output and scales
    its wall time by the reference kernel timed before and after it.

    Repeats of one unit with one config must produce byte-identical output;
    the first run is the reference.
    """

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.digests = {}
        self.ref = RefKernel()
        self.ref_before = None

    def __call__(self, unit):
        if self.ref_before is None:
            self.ref_before = self.ref.seconds()
        try:
            outcome = self._ppm(unit) if unit.task is None else self._training(unit)
        except Exception as exc:  # a failing unit is counted, never dropped
            outcome = Outcome(unit.label, unit.cycle, "failed", math.nan,
                              detail=f"{type(exc).__name__}: {exc}")
        ref_after = self.ref.seconds()
        outcome.wall_s = outcome.seconds
        outcome.seconds *= REF_SECONDS / ((self.ref_before + ref_after) / 2)
        self.ref_before = ref_after
        return outcome

    def _same_as_first(self, unit, payload):
        key = (unit.label, unit.doc and unit.doc["seed"])
        digest = hashlib.sha256(payload).hexdigest()
        return self.digests.setdefault(key, digest) == digest

    def _training(self, unit):
        cfg = config.parse_config(unit.doc)
        out_dir = os.path.join(self.work_dir, unit.label.replace("/", "_").replace(":", "_"))
        metrics_path = os.path.join(out_dir, "metrics.csv")
        if os.path.exists(metrics_path):
            os.remove(metrics_path)
        start = time.perf_counter()
        try:
            runner.run(cfg, out_dir)
        except TrainingDivergedError as exc:
            seconds = time.perf_counter() - start
            known = KNOWN_DIVERGENCES.get((unit.workload, unit.task, unit.base))
            detail = f"diverged at step {exc.step}"
            return Outcome(unit.label, unit.cycle,
                           "known-divergence" if known else "failed", seconds,
                           detail=detail)
        seconds = time.perf_counter() - start
        final_loss = verify_metrics_csv(metrics_path, cfg.steps)
        with open(metrics_path, "rb") as fh:
            if not self._same_as_first(unit, fh.read()):
                return Outcome(unit.label, unit.cycle, "failed", seconds,
                               detail="metrics.csv differs from the unit's first run")
        return Outcome(unit.label, unit.cycle, "ok", seconds, cfg.steps, final_loss)

    def _ppm(self, unit):
        start = time.perf_counter()
        rows, meta = ppmdemo.ppm_demo()
        seconds = time.perf_counter() - start
        failed = [c["check"] for c in ppmdemo.regime_checks(meta) if not c["pass"]]
        if failed:
            return Outcome(unit.label, unit.cycle, "failed", seconds,
                           detail=f"regime checks failed: {failed}")
        if not rows or not all(math.isfinite(v) for row in rows for v in row):
            return Outcome(unit.label, unit.cycle, "failed", seconds,
                           detail="non-finite demo rows")
        if not self._same_as_first(unit, repr(rows).encode()):
            return Outcome(unit.label, unit.cycle, "failed", seconds,
                           detail="demo rows differ from the first run")
        return Outcome(unit.label, unit.cycle, "ok", seconds)


def verify_metrics_csv(path, steps):
    """Validate a unit's metrics.csv; return its final eval loss.

    Raises ValueError unless the schema validates, every step is present and
    every loss is finite."""
    runner.validate_metrics_csv(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    train_col, eval_col = header.index("train_loss"), header.index("eval_loss")
    if len(rows) != steps:
        raise ValueError(f"{path} has {len(rows)} rows, expected {steps}")
    for row in rows:
        losses = [row[train_col]] + ([row[eval_col]] if row[eval_col] else [])
        if not all(math.isfinite(float(v)) for v in losses):
            raise ValueError(f"non-finite loss at step {row[0]} in {path}")
    if not rows[-1][eval_col]:
        raise ValueError(f"{path} has no final eval loss")
    return float(rows[-1][eval_col])


def closed_loop(workload, seed, seconds, run_unit, min_cycles=1):
    """Run whole cycles back to back until `seconds` have passed and at least
    `min_cycles` cycles have run; each unit starts when the previous ends."""
    outcomes = []
    start = time.perf_counter()
    k = 0
    while True:
        outcomes.extend(run_unit(unit) for unit in cycle(workload, seed, k))
        k += 1
        if k >= min_cycles and time.perf_counter() - start >= seconds:
            return outcomes
