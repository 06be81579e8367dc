"""Command-line entry point.

Subcommands: run, grid, check, ppm-demo.  Exit codes: 0 success, 2 config
error, 3 training divergence, 4 check failure, 5 any other apobench error
(bad input data, a solver that did not converge, a violated contract), each
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ApoBenchError, ConfigError, TrainingDivergedError
from .checks import report_to_json, run_checks
from .config import load_config, read_json
from .gridsearch import grid
from .ppmdemo import DEFAULT_SETTINGS, ppm_demo, regime_checks, write_demo_csv
from .runner import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4
EXIT_ERROR = 5


def _cmd_run(args):
    cfg = load_config(args.config)
    outcome = run(cfg, args.out)
    print(f"wrote {outcome.metrics_path}")
    for key, value in outcome.summary.items():
        if value is not None:
            print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_grid(args):
    rows = grid(read_json(args.config), read_json(args.sweep), args.out,
                parallel=args.parallel)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"{n_ok}/{len(rows)} runs completed; summary at {args.out}/summary.csv")
    return EXIT_OK


def _cmd_check(args):
    report = run_checks()
    text = report_to_json(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        print(f"[{mark}] {c['check']}: value={c['value']} threshold={c['threshold']}")
    print(f"{report['n_checks']} checks, passed={report['passed']}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_ppm_demo(args):
    if args.lambda_fsd or args.lambda_wsd:
        fsds = args.lambda_fsd or [s[0] for s in DEFAULT_SETTINGS]
        wsds = args.lambda_wsd or [s[1] for s in DEFAULT_SETTINGS]
        if len(fsds) != len(wsds):
            print("need matching --lambda-fsd/--lambda-wsd counts", file=sys.stderr)
            return EXIT_CONFIG
        settings = tuple(zip(fsds, wsds))
    else:
        settings = DEFAULT_SETTINGS
    rows, meta = ppm_demo(lambda_settings=settings)
    write_demo_csv(rows, args.out)
    print(f"wrote {args.out}")
    if settings == DEFAULT_SETTINGS:
        for c in regime_checks(meta):
            mark = "PASS" if c["pass"] else "FAIL"
            print(f"[{mark}] {c['check']}: value={c['value']:.4g}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apobench",
        description="Proximal meta-optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_grid = sub.add_parser("grid", help="run a Cartesian sweep")
    p_grid.add_argument("--config", required=True, help="template config JSON")
    p_grid.add_argument("--sweep", required=True, help="sweep spec JSON")
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--parallel", type=int, default=1)
    p_grid.set_defaults(fn=_cmd_grid)

    p_check = sub.add_parser("check", help="run the invariant/oracle suite")
    p_check.add_argument("--json", default=None, help="write the JSON report here")
    p_check.set_defaults(fn=_cmd_check)

    p_demo = sub.add_parser("ppm-demo", help="emit 1-D exact proximal update curves")
    p_demo.add_argument("--out", required=True)
    p_demo.add_argument("--lambda-fsd", type=float, nargs="*", default=None)
    p_demo.add_argument("--lambda-wsd", type=float, nargs="*", default=None)
    p_demo.set_defaults(fn=_cmd_ppm_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ApoBenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
