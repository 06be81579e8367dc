"""Independent numerical oracles shared by the test modules, and the
meta-gradient as one meta step takes it.

Finite differences here are written directly against the public evaluation
functions so they stay independent of the reverse-mode code paths they check.
"""

import numpy as np

from apobench.apo import MetaWork, divergence, loss_and_grad, meta_gradient, meta_work
from apobench.diffnet import forward, loss_eval


def prox_work(model, theta, batch):
    """A new MetaWork holding every array proximal_value_and_grad writes
    over batch's rows: the seed, dQ/du and the wsd difference."""
    return MetaWork(seed=np.empty((len(batch.inputs), model.d_out)),
                    diff=np.empty(theta.size), grad=theta.map(np.empty_like))


def fresh_meta_gradient(model, theta, phi, train, prox, cfg, delta=None):
    """(a copy of dQ/dphi, Q, Q's terms): meta_gradient after the training
    pass over train, into a new meta_work record whose seed fits prox."""
    _, g, outputs = loss_and_grad(model, theta, train)
    work = meta_work(model, theta, phi, cfg, len(train.targets))._replace(
        seed=np.empty((len(prox.inputs), model.d_out)))
    dphi, q, parts = meta_gradient(model, theta, phi, train, prox, cfg, g, delta, outputs, work)
    return dphi.copy(), q, parts


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


def wsd(theta_new, theta_old):
    """0.5 * sum of squared parameter differences, biases included: the wsd
    term of the proximal objective, evaluated on its own."""
    return 0.5 * theta_new.sq_norm(theta_new.flat - theta_old.flat)


def write_dataset_csv(features, targets, path):
    """Write a dataset in the CSV ingestion convention: no header, target last."""
    np.savetxt(path, np.column_stack([features, targets]), delimiter=",", fmt="%.17g")


def textbook_step(kind, m, v, t, g):
    """(Delta, m', v') of step t, each formula written out in one expression."""
    if kind.kind == "sgd":
        return g, m, v
    if kind.kind == "sgd-momentum":
        m = kind.beta * m + g
        return m, m, v
    if kind.kind == "rmsprop":
        v = kind.rms_beta2 * v + (1.0 - kind.rms_beta2) * g * g
        return g / (np.sqrt(v) + kind.eps), m, v
    m = kind.beta * m + (1.0 - kind.beta) * g
    v = kind.beta2 * v + (1.0 - kind.beta2) * g * g
    c1, c2 = 1.0 - kind.beta ** t, 1.0 - kind.beta2 ** t
    return (m / c1) / (np.sqrt(v / c2) + kind.eps), m, v
