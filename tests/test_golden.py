"""The byte-identity rule: every golden unit's metrics.csv, `check --json`
and the default `ppm-demo` table match tests/golden_metrics.json.  A
deliberate move regenerates the file with `PYTHONPATH=src python3
tests/golden.py` (see golden.py)."""

import json

from golden import GOLDEN_PATH, measure, versions


def end_of(record):
    if "diverged_at" in record:
        return f"diverged at step {record['diverged_at']}"
    return f"final eval loss {record['final_eval_loss']!r}"


def moved(golden, now):
    """One line per unit or digest of golden that differs in now."""
    lines = [f"{label}: {end_of(old)} -> {end_of(now['units'][label])}"
             for label, old in golden["units"].items()
             if now["units"][label]["sha256"] != old["sha256"]]
    lines += [f"{name} digest moved" for name in ("check_json", "ppm_demo")
              if now[name] != golden[name]]
    return lines


def test_moved_lists_each_changed_unit_and_digest():
    golden = {"units": {"a": {"sha256": "1", "final_eval_loss": 0.5},
                        "b": {"sha256": "2", "diverged_at": 3}},
              "check_json": "c", "ppm_demo": "p"}
    now = {"units": {"a": {"sha256": "9", "diverged_at": 7},
                     "b": {"sha256": "2", "diverged_at": 3}},
           "check_json": "c", "ppm_demo": "q"}
    assert moved(golden, now) == ["a: final eval loss 0.5 -> diverged at step 7",
                                  "ppm_demo digest moved"]


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    now = measure({label: unit["config"] for label, unit in golden["units"].items()})
    lines = moved(golden, now)
    assert not lines, "\n".join([
        f"{len(lines)} golden outputs moved (recorded with {golden['versions']}, "
        f"running {versions()}):", *lines])
