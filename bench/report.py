"""Metric computation: end-to-end metrics from unit outcomes, per-layer
metrics from a traced run, and the environment record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np
import scipy

from tracer import LAYERS, PARAMSET_OPS
from workloads import QUALITY_CYCLES

END_TO_END_UNITS = {"steps_per_s": "1/s", "run_s_p50": "s", "run_s_p90": "s",
                    "setup_s": "s", "final_loss": "loss", "ok_frac": "share",
                    "peak_rss_mb": "MB"}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steps_per_s(outcomes):
    ok = [o for o in outcomes if o.status == "ok"]
    seconds = sum(o.seconds for o in ok)
    return sum(o.steps for o in ok) / seconds if seconds else 0.0


def end_to_end(outcomes, setup_samples):
    """Every end-to-end metric as {name: (value, unit, samples)}."""
    ok = [o for o in outcomes if o.status == "ok"]
    times = [o.seconds for o in ok]
    finals = [o.final_loss for o in ok if o.cycle < QUALITY_CYCLES]
    values = {
        "steps_per_s": (steps_per_s(outcomes), len(ok)),
        "run_s_p50": (float(np.percentile(times, 50)) if times else 0.0, len(times)),
        "run_s_p90": (float(np.percentile(times, 90)) if times else 0.0, len(times)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "final_loss": (statistics.fmean(finals) if finals else 0.0, len(finals)),
        "ok_frac": (len(ok) / len(outcomes), len(outcomes)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in values.items()}


def overhead_ratio(plain, apo_lr):
    """Median apo-lr unit time over median plain unit time, same pairs."""
    p = [o.seconds for o in plain if o.status == "ok"]
    a = [o.seconds for o in apo_lr if o.status == "ok"]
    return statistics.median(a) / statistics.median(p) if p and a else 0.0


def exact_ppm(tracer):
    """From a traced ppm_demo: objective evaluations (loss_and_grad calls)
    per exact_ppm_solve call, and microseconds of exact_ppm_solve per
    evaluation."""
    name, _, start, end = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    solve = name == ids.get("oracles.exact_ppm_solve", -1)
    evals = int(np.count_nonzero(tracer.under(solve)
                                 & (name == ids.get("apo.loss_and_grad", -1))))
    calls = int(np.count_nonzero(solve))
    seconds = float((end - start)[solve].sum())
    return (evals / calls if calls else 0.0, seconds * 1e6 / evals if evals else 0.0)


def per_layer(tracer, traced, untraced, ratio, ppm):
    """Every per-layer metric as {name: (value, unit)}.

    `traced` and `untraced` are the outcomes of the traced phase and of the
    untraced phase before it; `ratio` is apo.overhead_ratio and `ppm` the
    pair exact_ppm() returns.  Timings and counts cover the spans inside
    run() only, so the benchmark's own verification calls are excluded.
    """
    name, parent, start, end = tracer.arrays()
    dur = end - start
    own = tracer.self_time()
    top = parent < 0
    is_unit = tracer.name_mask(lambda n: n == "harness.runner.run") & top
    in_unit = tracer.under(is_unit)
    table = tracer.table(in_unit | is_unit)

    def row(n):
        return table.get(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per(value, denominator):
        return value / denominator if denominator else 0.0

    ok = [o for o in traced if o.status == "ok"]
    steps = sum(o.steps for o in ok)
    units = len(traced)
    meta_steps = row("apo.meta_step")["calls"]

    # A meta step's passes are those under the apo calls apo_train makes
    # directly, other than the training step's own loss_and_grad.
    ids = {n: i for i, n in enumerate(tracer.names)}
    train_id = ids.get("apo.apo_train", -1)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    meta_root = (tracer.name_mask(lambda n: n.startswith("apo.")
                                  and n not in ("apo.apo_train", "apo.loss_and_grad"))
                 & (parent_name == train_id))
    in_meta = tracer.under(meta_root)
    in_tasks = tracer.under(tracer.name_mask(lambda n: n.startswith("tasks.")))
    in_training = tracer.under(tracer.name_mask(
        lambda n: n in ("apo.apo_train", "harness.runner.train_kfac")))
    train_pass = in_unit & in_training & ~in_meta & ~in_tasks

    def calls(n, mask):
        return int(np.count_nonzero((name == ids[n]) & mask)) if n in ids else 0

    csv_io = row("harness.runner.write_metrics_csv")["self_s"] + \
        row("harness.runner.validate_metrics_csv")["self_s"]
    unit_self = float(own[is_unit].sum())
    unit_total = float(dur[is_unit].sum())
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for n, r in table.items():
        layer_self[n.split(".", 1)[0]] += r["self_s"]
    counts = tracer.counts

    m = {
        "apo.overhead_ratio": (ratio, "ratio"),
        "apo.forwards_per_meta_step":
            (per(calls("diffnet.forward", in_meta & in_unit), meta_steps), "count"),
        "apo.backwards_per_meta_step":
            (per(calls("diffnet.backward", in_meta & in_unit), meta_steps), "count"),
        "apo.meta_gradient.self_us":
            (per(row("apo.meta_gradient")["self_s"] * 1e6, meta_steps), "us/meta-step"),
        "apo.meta_gradient.total_us":
            (per(row("apo.meta_gradient")["total_s"] * 1e6, meta_steps), "us/meta-step"),
        "apo.meta_step.self_us":
            (per(row("apo.meta_step")["self_s"] * 1e6, meta_steps), "us/meta-step"),
        "kronprecond.precond_vjp.self_us":
            (per(row("kronprecond.precond_vjp")["self_s"] * 1e6, steps), "us/step"),
        "kronprecond.apply_precond_update.self_us":
            (per(row("kronprecond.apply_precond_update")["self_s"] * 1e6, steps), "us/step"),
        "kronprecond.matmul_flops": (per(counts["kronprecond.matmul_flops"], steps), "flop/step"),
        "diffnet.forward.calls": (per(row("diffnet.forward")["calls"], steps), "count/step"),
        "diffnet.forward.rows": (per(counts["diffnet.forward.rows"], steps), "rows/step"),
        "diffnet.forward.self_us": (per(row("diffnet.forward")["self_s"] * 1e6, steps), "us/step"),
        "diffnet.backward.calls": (per(row("diffnet.backward")["calls"], steps), "count/step"),
        "diffnet.backward.self_us": (per(row("diffnet.backward")["self_s"] * 1e6, steps), "us/step"),
        "diffnet.paramset_ops":
            (per(sum(counts[f"diffnet.ParamSet.{op}"] for op in PARAMSET_OPS), steps), "count/step"),
        "diffnet.forwards_per_train_step":
            (per(calls("diffnet.forward", train_pass), steps), "count/step"),
        "diffnet.backwards_per_train_step":
            (per(calls("diffnet.backward", train_pass), steps), "count/step"),
        "baseopt.update_direction.self_us":
            (per(row("baseopt.update_direction")["self_s"] * 1e6, steps), "us/step"),
        "baseopt.apply_lr_update.self_us":
            (per(row("baseopt.apply_lr_update")["self_s"] * 1e6, steps), "us/step"),
        "oracles.exact_ppm_solve.objective_evals": (ppm[0], "evals/setting"),
        "oracles.exact_ppm_solve.us_per_eval": (ppm[1], "us/eval"),
        "oracles.kfac_blocks.self_us": (per(row("oracles.kfac_blocks")["self_s"] * 1e6, steps), "us/step"),
        "oracles.kfac_update.self_us": (per(row("oracles.kfac_update")["self_s"] * 1e6, steps), "us/step"),
        "numkit.solve_spd.calls": (per(row("numkit.solve_spd")["calls"], steps), "count/step"),
        "tasks.sample_batch.self_us": (per(row("tasks.sample_batch")["self_s"] * 1e6, steps), "us/step"),
        "tasks.eval_loss.self_us": (per(row("tasks.eval_loss")["self_s"] * 1e6, steps), "us/step"),
        "tasks.build_task.total_ms":
            (per(row("tasks.build_task")["total_s"] * 1e3, row("tasks.build_task")["calls"]), "ms/call"),
        "harness.runner.csv_io.self_ms": (per(csv_io * 1e3, units), "ms/unit"),
        "harness.unaccounted_share": (per(unit_self, unit_total), "share"),
        "trace.steps_per_s_ratio": (per(steps_per_s(traced), steps_per_s(untraced)), "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_us"] = (per(layer_self[layer] * 1e6, steps), "us/step")
    return m


def environment(root, workload, seed, trace):
    """What a result depends on besides the code: versions, BLAS, CPUs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # The ceiling stops git from looking for a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                              capture_output=True, text=True, timeout=10)
        sha = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": sha or "unavailable (not a git checkout)",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "platform": platform.platform(), "executable": sys.executable,
    }
