"""1-D illustration of the exact proximal update.

A small sigmoid network is first fitted to a fixed 1-D regression set whose
inputs avoid a window around x0 = 0.  A single new example is then placed at
x0, one unit above the current prediction, and the exact proximal step is
solved for several (lambda_fsd, lambda_wsd) settings:

  * both large        -> the function barely moves anywhere;
  * wsd only          -> the minimal-norm weight change, a global adjustment;
  * fsd only (large)  -> a spike carved around the new example, predictions
                         pinned at the discrepancy sample points.

Emits (lambda_fsd, lambda_wsd, x, f_before, f_after) rows for plotting;
regime_checks turns the three regimes into check results, built like the
`check` suite's by checks.result.
"""

from __future__ import annotations

import numpy as np

from ..apo import loss_and_grad
from ..baseopt import BaseOptKind, apply_lr_update, init_state, update_direction
from ..diffnet import Batch, forward, init_params, mlp
from ..numkit import make_rng
from ..oracles import exact_ppm_solve
from .checks import result

DEFAULT_SETTINGS = ((1e6, 1e6), (0.0, 1.0), (100.0, 0.0))
WINDOW = 0.5


def _base_inputs():
    left = np.linspace(-3.0, -0.7, 17)
    right = np.linspace(0.7, 3.0, 17)
    return np.concatenate([left, right])[:, None]


def _fit_base_model(seed=0, hidden=48, iters=3000, lr=0.02):
    rng = make_rng(seed)
    model = mlp([1, hidden, 1], activation="sigmoid")
    theta = init_params(model, rng)
    x = _base_inputs()
    y = np.sin(1.5 * x) * 0.8
    batch = Batch(x, y)
    kind = BaseOptKind("adam")
    state = init_state(kind, theta.flat)
    for _ in range(iters):
        _, g = loss_and_grad(model, theta, batch)
        delta, state = update_direction(kind, state, g.flat)
        theta = apply_lr_update(theta, lr, delta)
    return model, theta, x


def ppm_demo(lambda_settings=DEFAULT_SETTINGS, x0=0.0, bump=1.0, seed=0,
             grid_points=241, tol=1e-8):
    """Solve the exact proximal update per lambda setting; returns
    (rows, meta) where rows are (lam_fsd, lam_wsd, x, f_before, f_after)."""
    model, theta, fsd_x = _fit_base_model(seed=seed)
    grid = np.linspace(-3.0, 3.0, grid_points)[:, None]
    before, _ = forward(model, theta, grid)
    y0_before, _ = forward(model, theta, np.array([[x0]]))
    new_batch = Batch(np.array([[x0]]), np.array([[float(y0_before[0, 0]) + bump]]))

    rows = []
    per_setting = {}
    for lam_fsd, lam_wsd in lambda_settings:
        u = exact_ppm_solve(model, theta, new_batch, lam_fsd, lam_wsd, fsd_x,
                            tol=tol, fsd_kind="kl-gaussian-unit-variance")
        after, _ = forward(model, u, grid)
        per_setting[(lam_fsd, lam_wsd)] = (grid[:, 0].copy(), before[:, 0].copy(),
                                           after[:, 0].copy())
        for xi, fb, fa in zip(grid[:, 0], before[:, 0], after[:, 0]):
            rows.append((lam_fsd, lam_wsd, float(xi), float(fb), float(fa)))
    meta = {"x0": x0, "bump": bump, "window": WINDOW,
            "settings": list(lambda_settings), "per_setting": per_setting}
    return rows, meta


def write_demo_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda_fsd,lambda_wsd,x,f_before,f_after\n")
        for lam_fsd, lam_wsd, x, fb, fa in rows:
            fh.write(f"{lam_fsd!r},{lam_wsd!r},{x!r},{fb!r},{fa!r}\n")


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
