"""The byte-identity rule: every golden unit's metrics.csv, `check --json`
and the default `ppm-demo` table match tests/golden_metrics.json.  A
deliberate move regenerates the file with `PYTHONPATH=src python3
tests/golden.py` (see golden.py)."""

import json

from golden import GOLDEN_PATH, measure, moved, versions


def test_moved_lists_each_changed_unit_and_digest():
    golden = {"units": {"a": {"sha256": "1", "final_eval_loss": 0.5},
                        "b": {"sha256": "2", "diverged_at": 3},
                        "c": {"sha256": "3", "final_eval_loss": 0.25}},
              "check_json": "c", "ppm_demo": "p"}
    now = {"units": {"a": {"sha256": "9", "diverged_at": 7},
                     "b": {"sha256": "2", "diverged_at": 3},
                     "d": {"sha256": "4", "final_eval_loss": 2.0}},
           "check_json": "c", "ppm_demo": "q"}
    assert moved(golden, now) == ["a: final eval loss 0.5 -> diverged at step 7",
                                  "c: final eval loss 0.25 -> not measured",
                                  "d: new, final eval loss 2.0",
                                  "ppm_demo digest moved"]


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    now = measure({label: unit["config"] for label, unit in golden["units"].items()})
    lines = moved(golden, now)
    assert not lines, "\n".join([
        f"{len(lines)} golden outputs moved (recorded with {golden['versions']}, "
        f"running {versions()}):", *lines])
