"""1-D illustration of the exact proximal update.

A small sigmoid network is first fitted to a fixed 1-D regression set whose
inputs avoid a window around x0 = 0.  A single new example is then placed at
x0, one unit above the current prediction, and the exact proximal step is
solved for several (lambda_fsd, lambda_wsd) settings:

  * both large        -> the function barely moves anywhere;
  * wsd only          -> the minimal-norm weight change, a global adjustment;
  * fsd only (large)  -> a spike carved around the new example, predictions
                         pinned at the discrepancy sample points.

Each step is oracles.exact_ppm_solve (Levenberg-Marquardt); the fsd-only
setting's minimum is 0, so it ends on the solver's certified Q(u) <=
tol * Q(theta).  Emits (lambda_fsd, lambda_wsd, x, f_before, f_after) rows
for plotting; regime_checks turns the three regimes into check results,
built like the `check` suite's by checks.result.
"""

from __future__ import annotations

import numpy as np

from ..apo import ProximalConfig, apo_train
from ..baseopt import BaseOptKind
from ..diffnet import Batch, forward, init_params, mlp
from ..numkit import make_rng
from ..oracles import exact_ppm_solve
from ..tasks import Task
from .checks import result

DEFAULT_SETTINGS = ((1e6, 1e6), (0.0, 1.0), (100.0, 0.0))
CSV_COLUMNS = ("lambda_fsd", "lambda_wsd", "x", "f_before", "f_after")
X0, BUMP, WINDOW = 0.0, 1.0, 0.5  # the new example, its lift, the spike window


def _base_inputs():
    left = np.linspace(-3.0, -0.7, 17)
    right = np.linspace(0.7, 3.0, 17)
    return np.concatenate([left, right])[:, None]


def _fit_base_model(seed=0):
    """3,000 steps of full-batch Adam on a 48-unit network through
    apo_train's mode 'none', which steps at init_lr 0.02 exactly."""
    rng = make_rng(seed)
    model = mlp([1, 48, 1], activation="sigmoid")
    x = _base_inputs()
    batch = Batch(x, np.sin(1.5 * x) * 0.8)
    theta, _ = apo_train(Task(model, lambda _: batch, None, None), init_params(model, rng),
                         ProximalConfig(), 3000, rng, lambda row: None, mode="none",
                         base_kind=BaseOptKind("adam"), init_lr=0.02)
    return model, theta, x


def ppm_demo(lambda_settings=DEFAULT_SETTINGS, seed=0):
    """Solve the exact proximal update per lambda setting to tol 1e-8 and
    read it on a 241-point grid; returns (rows, meta) where rows are
    (lam_fsd, lam_wsd, x, f_before, f_after)."""
    model, theta, fsd_x = _fit_base_model(seed=seed)
    grid = np.linspace(-3.0, 3.0, 241)[:, None]
    before, _ = forward(model, theta, grid)
    y0_before, _ = forward(model, theta, np.array([[X0]]))
    new_batch = Batch(np.array([[X0]]), np.array([[float(y0_before[0, 0]) + BUMP]]))

    rows = []
    per_setting = {}
    for lam_fsd, lam_wsd in lambda_settings:
        u = exact_ppm_solve(model, theta, new_batch, lam_fsd, lam_wsd, fsd_x,
                            tol=1e-8, fsd_kind="kl-gaussian-unit-variance")
        after, _ = forward(model, u, grid)
        per_setting[(lam_fsd, lam_wsd)] = (grid[:, 0].copy(), before[:, 0].copy(),
                                           after[:, 0].copy())
        for xi, fb, fa in zip(grid[:, 0], before[:, 0], after[:, 0]):
            rows.append((lam_fsd, lam_wsd, float(xi), float(fb), float(fa)))
    meta = {"x0": X0, "bump": BUMP, "window": WINDOW,
            "settings": list(lambda_settings), "per_setting": per_setting}
    return rows, meta


def locality_metrics(meta, lam_fsd, lam_wsd):
    """Per-setting change statistics: |df| at x0, mean |df| off the window,
    and the pointwise max |df|."""
    grid, before, after = meta["per_setting"][(lam_fsd, lam_wsd)]
    x0, window = meta["x0"], meta["window"]
    df = np.abs(after - before)
    at_x0 = float(df[np.argmin(np.abs(grid - x0))])
    off = df[np.abs(grid - x0) > window]
    return {"at_x0": at_x0, "mean_off_window": float(off.mean()),
            "max_anywhere": float(df.max())}


def regime_checks(meta):
    """The three qualitative regimes as pass/fail check results."""
    frozen = locality_metrics(meta, *meta["settings"][0])
    glob = locality_metrics(meta, *meta["settings"][1])
    ratio_glob = glob["mean_off_window"] / max(glob["at_x0"], 1e-12)
    spike = locality_metrics(meta, *meta["settings"][2])
    ratio_spike = spike["mean_off_window"] / max(spike["at_x0"], 1e-12)
    return [result("ppm-frozen-regime", frozen["max_anywhere"], 1e-3),
            result("ppm-global-regime", ratio_glob, 0.10,
                   glob["at_x0"] > 1e-3 and ratio_glob > 0.10),
            result("ppm-spike-regime", ratio_spike, 0.10,
                   spike["at_x0"] > 0.1 and ratio_spike < 0.10)]
