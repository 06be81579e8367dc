"""Independent numerical oracles shared by the test modules.

Finite differences here are written directly against the public evaluation
functions so they stay independent of the reverse-mode code paths they check.
"""

import numpy as np

from apobench.apo import divergence
from apobench.diffnet import forward, loss_eval


def fd_param_gradient(model, theta, batch, h=1e-5, head=None):
    """Central finite differences of the batch loss over every parameter."""
    head = head or model.head
    flat = theta.to_flat()
    out = np.zeros_like(flat)

    def value(vec):
        th = theta.from_flat(vec)
        outputs, _ = forward(model, th, batch.inputs)
        return loss_eval(head, outputs, batch.targets)

    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        out[i] = (value(flat + e) - value(flat - e)) / (2 * h)
    return out


def fd_scalar_fn(fn, x0, h=1e-4):
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (fn(x0 + e) - fn(x0 - e)) / (2 * h)
    return g


def rel_err(approx, exact, floor=1e-12):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(np.abs(exact).max(), floor)
    return float(np.abs(approx - exact).max() / scale)


def fsd_value(model, theta_new, theta_old, inputs, kind):
    """Mean output discrepancy of kind between theta_new and theta_old on
    inputs: the fsd term of the proximal objective, evaluated on its own."""
    y_new, _ = forward(model, theta_new, inputs)
    y_old, _ = forward(model, theta_old, inputs)
    return float(np.mean(divergence(model, kind).value_and_grad(y_new, y_old)[0]))


def write_dataset_csv(features, targets, path):
    """Write a dataset in the CSV ingestion convention: no header, target last."""
    np.savetxt(path, np.column_stack([features, targets]), delimiter=",", fmt="%.17g")
