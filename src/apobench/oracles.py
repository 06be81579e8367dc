"""Reference implementations used to cross-validate the meta-learned
optimizers: the exact proximal point, the closed-form proximal step (damped
Newton is its lam_fsd = 1 case on the loss Hessian), dense discrepancy
Hessians, the optimal dense preconditioner, and exact KFAC statistics.

Everything here is oracle-scale: dense matrices over the parameters, each
oracle refusing more than numkit.ORACLE_MAX_PARAMS of them at entry, and
exact curvature as one contraction over the per-example Jacobians of
diffnet.preact_jacobians (one forward, d_out backwards).  The exact proximal
point is solved by Levenberg-Marquardt on that Gauss-Newton curvature.
No training path imports this module: the KFAC base optimizer lives in
baseopt, and kfac_blocks here gives its statistics with the target
integrated out, for the checks.  The checks that compare these oracles with
each other and with the meta-learned optimizers (Thm 1, KFAC recovery, the
proximal-point limits) live in harness.checks.
"""

from __future__ import annotations

import numpy as np

from .apo import (HEAD_LOSS_CURVATURE, MetaWork, divergence, loss_and_grad,
                  proximal_value_and_grad)
from .baseopt import kfac_input_moments
from .diffnet import Batch, forward, per_example_jacobian, preact_jacobians
from .errors import ContractError, ConvergenceError, NumericalError
from .numkit import FLOAT, cholesky_spd, require_oracle_scale, solve_spd


def _mean_sandwich(jac, hessians):
    """mean_b jac[b]^T hessians[b] jac[b] of a B x d x n stack, one matmul."""
    rows = jac.reshape(-1, jac.shape[2])
    return rows.T @ (hessians @ jac).reshape(rows.shape) / len(jac)


def fsd_hessian_exact(model, params, inputs, kind=None):
    """Exact discrepancy Hessian G = mean_b J_b^T H_rho J_b.

    For the categorical KL this is the Fisher information matrix.  Parameter
    ordering is the ParamSet storage order; a None kind means the model head's
    divergence.
    """
    outputs, jac = per_example_jacobian(model, params, inputs)
    g = _mean_sandwich(jac, divergence(model, kind).hessian(outputs))
    return 0.5 * (g + g.T)


def spd_inverse(m):
    """Inverse of an SPD matrix from its Cholesky factor, symmetrized."""
    inv = cholesky_spd(m).inverse
    return 0.5 * (inv + inv.T)


def optimal_dense_precond(g, lam_fsd, lam_wsd):
    """Closed-form minimizer of the quadratic meta-objective:
    (lam_fsd * G + lam_wsd * I)^-1."""
    g = np.asarray(g, dtype=FLOAT)
    reg = lam_fsd * g + lam_wsd * np.eye(g.shape[0])
    return spd_inverse(reg)


def qhat_value(p, g, grad_samples, lam_fsd, lam_wsd):
    """Quadratic approximate meta-objective over the preconditioner, with the
    constant current-loss summand dropped:

        mean_i [ -g_i^T P g_i + lam_fsd/2 g_i^T P^T G P g_i
                                + lam_wsd/2 g_i^T P^T P g_i ].
    """
    samples = np.asarray(grad_samples, dtype=FLOAT)
    pg = samples @ p.T  # rows P g_i
    lin = -np.einsum("ij,ij->i", samples, pg)
    quad_f = 0.5 * lam_fsd * np.einsum("ij,ij->i", pg, pg @ g.T)
    quad_w = 0.5 * lam_wsd * np.einsum("ij,ij->i", pg, pg)
    return float(np.mean(lin + quad_f + quad_w))


def qhat_grad(p, g, grad_samples, lam_fsd, lam_wsd):
    """Gradient of qhat_value w.r.t. P: (lam_fsd G P + lam_wsd P - I) M with
    M the sample second-moment matrix."""
    samples = np.asarray(grad_samples, dtype=FLOAT)
    m2 = samples.T @ samples / samples.shape[0]
    return (lam_fsd * g @ p + lam_wsd * p - np.eye(p.shape[0])) @ m2


def approx_ppm_update(theta, g, curvature, lam_fsd, lam_wsd):
    """Closed-form approximate proximal step
    theta - (lam_fsd C + lam_wsd I)^-1 g; with C the fsd Hessian G this is
    the linearized proximal point, with lam_fsd = 1 and C the loss Hessian
    the damped Newton step.  Requires the damped matrix to be SPD."""
    reg = lam_fsd * np.asarray(curvature, dtype=FLOAT) + lam_wsd * np.eye(g.size)
    return theta.from_flat(theta.flat - solve_spd(reg, g.flat))


def fd_jacobian(fn, x0, h):
    """Central-difference Jacobian of fn at the flat vector x0: column i is
    (fn(x0 + h e_i) - fn(x0 - h e_i)) / 2h, so a scalar fn gives its gradient."""
    cols = []
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        cols.append((fn(x0 + e) - fn(x0 - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def loss_hessian_fd(model, theta, batch):
    """Dense loss Hessian by central differences (step 1e-5) of the exact gradient."""
    require_oracle_scale("loss_hessian_fd", theta.size)
    out = fd_jacobian(lambda x: loss_and_grad(model, theta.from_flat(x), batch)[1].flat,
                      theta.flat, 1e-5)
    return 0.5 * (out + out.T)


def exact_ppm_solve(model, theta, batch, lam_fsd, lam_wsd, fsd_inputs,
                    tol=1e-10, max_iter=1000, fsd_kind=None):
    """Minimize the proximal objective
    Q(u) = J_batch(u) + lam_fsd * FSD(u, theta) + lam_wsd * 0.5 ||u - theta||^2
    by Levenberg-Marquardt: steps u - (H + lam_wsd I + mu I)^-1 dQ/du, with
    H the Gauss-Newton curvature of the loss (its HEAD_LOSS_CURVATURE
    divergence) and of lam_fsd * FSD.  A step is taken when Q decreases or,
    below Q's rounding, when ||dQ/du|| does; mu then follows Nielsen's
    gain-ratio rule, and grows 4x on a rejected step.

    A None fsd_kind means the model head's divergence.  Returns u with
    ||dQ/du|| <= tol or Q(u) <= tol * Q(theta), which bounds Q(u) - min Q
    since every term of Q is >= 0.  Raises ConvergenceError, whose message
    names the gradient norm, after max_iter objective evaluations or when a
    step no longer moves u, and OracleScaleError above numkit.ORACLE_MAX_PARAMS
    parameters.
    """
    if tol <= 0:
        raise ContractError("tol must be positive")
    require_oracle_scale("exact_ppm_solve", theta.size)
    divergence(model, fsd_kind)  # rejects an unknown kind before the first step
    loss_kind = HEAD_LOSS_CURVATURE[model.head]

    # The stacked rows, y_ref and one record serve every evaluation; the
    # gradient is copied out, as a rejected step keeps the last accepted one.
    prox, y_ref, seed = batch, None, None
    if lam_fsd:
        prox = Batch(np.concatenate((batch.inputs, fsd_inputs)), batch.targets)
        y_ref = forward(model, theta, fsd_inputs)[0]
        seed = np.empty((len(prox.inputs), model.d_out))
    work = MetaWork(seed=seed, diff=np.empty(theta.size) if lam_wsd else None,
                    grad=theta.map(np.empty_like))

    def objective(u):
        value, _, grad = proximal_value_and_grad(model, u, theta, prox, y_ref, lam_fsd,
                                                 lam_wsd, fsd_kind, work)
        return value, grad.flat.copy()

    u = theta.copy()
    value, grad = objective(u)
    floor = tol * value
    evals, mu = 1, None
    while True:
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= tol or value <= floor:
            return u
        h = fsd_hessian_exact(model, u, batch.inputs, loss_kind)
        if lam_fsd:
            h += lam_fsd * fsd_hessian_exact(model, u, fsd_inputs, fsd_kind)
        h += lam_wsd * np.eye(u.size)
        if mu is None:
            mu = 1e-3 * float(h.diagonal().max())
        while True:
            if evals >= max_iter:
                raise ConvergenceError(f"inner solver hit {max_iter} objective evaluations "
                                       f"with gradient norm {gnorm}")
            damped = h + mu * np.eye(u.size)
            try:
                cholesky_spd(damped)
            except NumericalError:  # mu below the rounding of a singular h
                mu *= 4
                continue
            step = np.linalg.solve(damped, grad)
            cand_flat = u.flat - step
            if np.array_equal(cand_flat, u.flat):
                raise ConvergenceError(f"inner solver stalled with gradient norm {gnorm}")
            cand = u.from_flat(cand_flat)
            cand_value, cand_grad = objective(cand)
            evals += 1
            predicted = 0.5 * float(step @ grad + mu * (step @ step))
            if predicted <= 4 * np.finfo(FLOAT).eps * abs(value):
                rho = 1.0 if cand_grad @ cand_grad < gnorm * gnorm else 0.0
            else:
                rho = (value - cand_value) / predicted
            if rho > 0:
                mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
                u, value, grad = cand, cand_value, cand_grad
                break
            mu *= 4


def kfac_blocks(model, params, inputs):
    """Per-layer exact KFAC statistics (A, B): A is baseopt's
    kfac_input_moments, B the expected second moment of the pre-activation
    gradients with the target integrated out in closed form,
    B_l = mean_b M_b^T H_rho M_b over the preact_jacobians sweep, whose M_b
    holds d y / d s_l for example b.  Training samples B instead
    (baseopt.kfac_sampled_blocks).
    """
    inputs = np.asarray(inputs, dtype=FLOAT)
    if inputs.shape[0] == 0:
        raise ContractError("kfac_blocks needs a nonempty dataset")
    outputs, trace, ds_stacks = preact_jacobians(model, params, inputs)
    hessians = divergence(model).hessian(outputs)
    return [(a, _mean_sandwich(stack, hessians))
            for a, stack in zip(kfac_input_moments(model, trace), ds_stacks)]
