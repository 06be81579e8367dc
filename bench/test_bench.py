"""Tests of the benchmark itself: tracing is harmless, traced counts repeat
exactly, and the command honours its output contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import report  # noqa: E402
from tracer import LAYER_MODULES, PARAMSET_OPS, Tracer  # noqa: E402
from workloads import UnitRunner, cycle  # noqa: E402

COUNT_METRICS = ("apo.forwards_per_meta_step", "apo.backwards_per_meta_step",
                 "kronprecond.matmul_flops", "diffnet.forward.calls",
                 "diffnet.forward.rows", "diffnet.backward.calls",
                 "diffnet.paramset_ops", "diffnet.forwards_per_train_step",
                 "diffnet.backwards_per_train_step", "numkit.solve_spd.calls")


def _bindings():
    """Every function-valued attribute of every apobench module, and the
    ParamSet methods the tracer counts."""
    seen = {}
    for name, module in sys.modules.items():
        if module is not None and name.startswith("apobench"):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    seen[(name, attr)] = obj
    paramset = importlib.import_module("apobench.diffnet").ParamSet
    for op in PARAMSET_OPS:
        seen[("ParamSet", op)] = vars(paramset)[op]
    return seen


def _one_unit_per_workload(seed):
    """A short mix that reaches every training mode and the KFAC path."""
    picks = (("plain", "synth-classification/kfac"),
             ("apo-lr", "bottleneck-autoencoder/adam"),
             ("apo-precond", "synth-classification/precond"))
    units = []
    for workload, suffix in picks:
        units += [u for u in cycle(workload, seed, 0) if u.label.endswith(suffix)]
    return units


def test_tracer_patches_every_binding_and_restores_it():
    for module_name in LAYER_MODULES:
        importlib.import_module(module_name)
    before = _bindings()
    forward = before[("apobench.diffnet", "forward")]
    holders = [key for key, obj in before.items() if obj is forward]
    assert {m for m, _ in holders} >= {"apobench.apo", "apobench.tasks", "apobench.oracles",
                                       "apobench.harness.runner", "apobench.harness.ppmdemo"}
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[key] is not forward for key in holders)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_metrics_csv_is_byte_identical(tmp_path):
    units = _one_unit_per_workload(seed=7)
    run_unit = UnitRunner(str(tmp_path))
    untraced = [run_unit(u) for u in units]
    with Tracer().installed():
        traced = [run_unit(u) for u in units]
    # UnitRunner fails a unit whose metrics.csv differs from its first run.
    assert [o.status for o in untraced + traced] == ["ok"] * (2 * len(units))


def test_traced_counts_repeat_exactly(tmp_path):
    units = _one_unit_per_workload(seed=3)
    counts = []
    for _ in range(2):
        run_unit = UnitRunner(str(tmp_path))
        tracer = Tracer()
        with tracer.installed():
            traced = [run_unit(u) for u in units]
        metrics = report.per_layer(tracer, traced, traced, 1.0, (0.0, 0.0))
        counts.append({k: metrics[k][0] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["apo.forwards_per_meta_step"] > 0
    assert counts[0]["kronprecond.matmul_flops"] > 0
    assert counts[0]["numkit.solve_spd.calls"] > 0


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_declared_metric(trace, kind):
    result = _run_bench(ROOT, "--workload", "apo-lr", "--seed", "5",
                        "--seconds", "0.1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == _declared(kind)
    if trace == "1":
        assert last["metrics"]["oracles.exact_ppm_solve.objective_evals"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    result = _run_bench(tmp_path, "--workload", "plain", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
