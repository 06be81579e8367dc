"""The byte-identity rule: every golden unit's metrics.csv, `check --json`
and the default `ppm-demo` table match tests/golden_metrics.json.  A
deliberate move regenerates the file with `PYTHONPATH=src python3
tests/golden.py` (see golden.py)."""

import json

from golden import GOLDEN_PATH, column_digests, measure, moved, sha256, versions


def test_moved_lists_each_changed_unit_and_digest():
    golden = {"units": {"a": {"sha256": "1", "final_eval_loss": 0.5},
                        "b": {"sha256": "2", "diverged_at": 3},
                        "c": {"sha256": "3", "final_eval_loss": 0.25},
                        "e": {"sha256": "5", "columns": {"step": "s", "lr": "l", "x": "x"},
                              "final_eval_loss": 1.0}},
              "check_json": "c", "ppm_demo": "p"}
    now = {"units": {"a": {"sha256": "9", "diverged_at": 7},
                     "b": {"sha256": "2", "diverged_at": 3},
                     "d": {"sha256": "4", "final_eval_loss": 2.0},
                     "e": {"sha256": "6", "columns": {"step": "s", "lr": "m", "y": "y"},
                           "final_eval_loss": 1.0}},
           "check_json": "c", "ppm_demo": "q"}
    assert moved(golden, now) == [
        "a: final eval loss 0.5 -> diverged at step 7",
        "c: final eval loss 0.25 -> not measured",
        "e: final eval loss 1.0 -> final eval loss 1.0; columns moved: lr, x, y",
        "d: new, final eval loss 2.0",
        "ppm_demo digest moved"]


def test_column_digests_hash_each_column_of_a_csv():
    digests = column_digests(b"step,lr\n1,0.5\n2,\n")
    assert digests == {"step": sha256(b"1\n2"), "lr": sha256(b"0.5\n")}


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    now = measure({label: unit["config"] for label, unit in golden["units"].items()})
    lines = moved(golden, now)
    assert not lines, "\n".join([
        f"{len(lines)} golden outputs moved (recorded with {golden['versions']}, "
        f"running {versions()}):", *lines])
