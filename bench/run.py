"""apobench benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload plain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The correctness gate (``harness.checks.run_checks``) runs first.
With ``--trace 0`` the run measures set-up in fresh interpreters, then runs
whole cycles of units back to back for ``--seconds`` seconds and reports
the end-to-end metrics.  With ``--trace 1`` it measures the APO overhead
ratio, runs half the time untraced and half traced, traces one ppm demo for
``oracles.exact_ppm_solve``, and reports the per-layer metrics.  The last
line of standard output is one JSON object; the full result, and the spans
of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

# One BLAS thread: the tasks are small, and a single thread keeps run-to-run
# spread low.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The runner would let APO_SEED override the config seed the benchmark sets.
os.environ.pop("APO_SEED", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
PROBE_ROUNDS = 3

SETUP = """
import json, sys
from apobench.harness import config
from apobench import tasks
built = set()
for doc in json.loads(sys.argv[1]):
    cfg = config.parse_config(doc)
    key = json.dumps(doc["task"], sort_keys=True)
    if key not in built:
        tasks.build_task(cfg.task)
        built.add(key)
"""


def import_program():
    """Import apobench from this checkout's src/, or exit with a nonzero code."""
    if not os.path.isfile(os.path.join(SRC, "apobench", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import apobench

    if os.path.dirname(os.path.dirname(os.path.abspath(apobench.__file__))) != SRC:
        sys.exit(f"bench: imported apobench from {apobench.__file__}, not {SRC}")


def measure_setup(workload, seed):
    """Seconds of fresh interpreters that import the program, parse every
    unit config and build each task once, scaled like unit times."""
    from refspeed import REF_SECONDS, RefKernel
    from workloads import cycle

    docs = [u.doc for u in cycle(workload, seed, 0)]
    argv = [sys.executable, "-c", SETUP, json.dumps(docs)]
    env = dict(os.environ, PYTHONPATH=SRC)
    ref = RefKernel()
    ref_before = ref.seconds()
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120)
        wall = time.perf_counter() - start
        ref_after = ref.seconds()
        samples.append(wall * REF_SECONDS / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return samples


def gate():
    """The program's own invariant and oracle suite must pass in full."""
    from apobench.harness.checks import run_checks

    report = run_checks()
    passed = sum(1 for c in report["checks"] if c["pass"])
    print(f"gate: harness.checks.run_checks {passed}/{report['n_checks']} passed")
    return report["passed"]


def overhead_probe(run_unit, seed):
    """Untraced plain and apo-lr units of the (task, base) pairs the two
    workloads share, interleaved; returns apo.overhead_ratio and outcomes."""
    from report import overhead_ratio
    from workloads import cycle

    plain, apo = [], []
    for k in range(PROBE_ROUNDS):
        apo_units = cycle("apo-lr", seed, k)
        pairs = {(u.task, u.base) for u in apo_units}
        plain_units = [u for u in cycle("plain", seed, k) if (u.task, u.base) in pairs]
        for p_unit, a_unit in zip(plain_units, apo_units):
            plain.append(run_unit(p_unit))
            apo.append(run_unit(a_unit))
    return overhead_ratio(plain, apo), plain + apo


def summarize(outcomes):
    by_label = {}
    for o in outcomes:
        entry = by_label.setdefault(o.label, {"attempted": 0, "ok": 0, "seconds": []})
        entry["attempted"] += 1
        if o.status == "ok":
            entry["ok"] += 1
            entry["seconds"].append(o.seconds)
        else:
            entry.setdefault("outcomes", {})
            key = f"{o.status}: {o.detail}"
            entry["outcomes"][key] = entry["outcomes"].get(key, 0) + 1
    for entry in by_label.values():
        secs = sorted(entry.pop("seconds"))
        entry["median_s"] = secs[len(secs) // 2] if secs else None
    return by_label


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    import report
    from tracer import Tracer
    from workloads import PPM_UNIT, QUALITY_CYCLES, WORKLOADS, UnitRunner, closed_loop

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    os.makedirs(OUT, exist_ok=True)
    env = report.environment(ROOT, args.workload, args.seed, args.trace)
    print("env: " + json.dumps(env))
    gate_ok = gate()

    with tempfile.TemporaryDirectory(dir=OUT, prefix="units-") as work_dir:
        run_unit = UnitRunner(work_dir)
        if not args.trace:
            setup = measure_setup(args.workload, args.seed)
            outcomes = closed_loop(args.workload, args.seed, args.seconds, run_unit,
                                   min_cycles=QUALITY_CYCLES)
            metrics = report.end_to_end(outcomes, setup)
            attempted = outcomes
            ok = [o for o in outcomes if o.status == "ok"]
            wall = sorted(o.wall_s for o in ok)
            detail = {"units": summarize(outcomes), "setup_samples_s": setup,
                      "wall_clock": {"steps_per_s": sum(o.steps for o in ok) / sum(wall),
                                     "run_s_p50": wall[len(wall) // 2]} if ok else {}}
        else:
            ratio, probe = overhead_probe(run_unit, args.seed)
            # Both phases start at cycle 0, so traced units repeat untraced
            # ones and their metrics.csv must match byte for byte.
            untraced = closed_loop(args.workload, args.seed, args.seconds / 2, run_unit)
            tracer = Tracer()
            with tracer.installed():
                traced = closed_loop(args.workload, args.seed, args.seconds / 2, run_unit)
            ppm_tracer = Tracer()
            with ppm_tracer.installed():
                ppm = run_unit(PPM_UNIT)
            layer = report.per_layer(tracer, traced, untraced, ratio,
                                     report.exact_ppm(ppm_tracer))
            metrics = {k: (v, unit, len(traced)) for k, (v, unit) in layer.items()}
            attempted = probe + untraced + traced + [ppm]
            stem = f"trace-{args.workload}-seed{args.seed}"
            tracer.save(os.path.join(OUT, stem + ".npz"))
            ppm_tracer.save(os.path.join(OUT, stem + "-ppm.npz"))
            detail = {"units": summarize(traced), "untraced_units": summarize(untraced),
                      "probe_units": summarize(probe), "spans": len(tracer.span_start),
                      "functions": tracer.table(), "counts": dict(tracer.counts)}

    failed = sum(1 for o in attempted if o.status == "failed")
    known = sum(1 for o in attempted if o.status == "known-divergence")
    correct = gate_ok and failed == 0
    print(f"workload {args.workload} seed {args.seed}: {len(attempted)} units attempted, "
          f"{failed} failed, {known} known divergences")
    for label, entry in detail["units"].items():
        print(f"  {label}: {json.dumps(entry)}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={n})")
    result = {"correct": correct, "attempted": len(attempted), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    record = dict(result, env=env, samples={k: n for k, (_, _, n) in metrics.items()},
                  detail=detail)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
