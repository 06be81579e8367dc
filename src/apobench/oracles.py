"""Reference implementations used to cross-validate the meta-learned
optimizers: exact and closed-form proximal-point updates, damped Newton,
dense discrepancy Hessians, the optimal dense preconditioner, and KFAC.

Everything here is oracle-scale: dense matrices, explicit loops, guards on
the parameter count.  Training calls into this module only for the KFAC base
optimizer, whose steps apo_train takes with kfac_statistics and kfac_update.
The checks that compare these oracles with each other and with the
meta-learned optimizers (Thm 1, KFAC recovery, the proximal-point limits)
live in harness.checks.
"""

from __future__ import annotations

import numpy as np

from .apo import divergence, loss_and_grad, proximal_value_and_grad
from .diffnet import backward, forward, per_example_jacobian, predictive
from .errors import ContractError, ConvergenceError, NumericalError, OracleScaleError
from .numkit import FLOAT, solve_spd

HESSIAN_MAX_PARAMS = 2000


def fsd_hessian_exact(model, params, inputs, kind=None):
    """Exact discrepancy Hessian G = mean_b J_b^T H_rho J_b.

    For the categorical KL this is the Fisher information matrix.  Parameter
    ordering is the ParamSet storage order; a None kind means the model head's
    divergence.
    """
    hessian = divergence(model, kind).hessian
    m = params.size
    if m > HESSIAN_MAX_PARAMS:
        raise OracleScaleError(f"fsd_hessian_exact limited to {HESSIAN_MAX_PARAMS} params, got {m}")
    inputs = np.asarray(inputs, dtype=FLOAT)
    outputs, _ = forward(model, params, inputs)
    jac = per_example_jacobian(model, params, inputs)
    g = np.zeros((m, m))
    for b in range(inputs.shape[0]):
        g += jac[b].T @ hessian(outputs[b]) @ jac[b]
    g /= inputs.shape[0]
    return 0.5 * (g + g.T)


def spd_inverse(m):
    """Inverse of an SPD matrix via column-wise Cholesky solves."""
    m = np.asarray(m, dtype=FLOAT)
    inv = solve_spd(m, np.eye(m.shape[0]))
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


def approx_ppm_update(theta, g, fsd_hessian, lam_fsd, lam_wsd):
    """Closed-form approximate proximal step
    theta - (lam_fsd G + lam_wsd I)^-1 g."""
    reg = lam_fsd * np.asarray(fsd_hessian, dtype=FLOAT) + lam_wsd * np.eye(g.size)
    return theta.from_flat(theta.flat - solve_spd(reg, g.flat))


def damped_newton_update(theta, g, loss_hessian, lam_wsd):
    """theta - (H + lam_wsd I)^-1 g; requires the damped Hessian to be SPD."""
    h = np.asarray(loss_hessian, dtype=FLOAT) + lam_wsd * np.eye(g.size)
    return theta.from_flat(theta.flat - solve_spd(h, g.flat))


def loss_hessian_fd(model, theta, batch, h=1e-5):
    """Dense loss Hessian by central differences of the exact gradient."""
    flat, m = theta.flat, theta.size
    if m > HESSIAN_MAX_PARAMS:
        raise OracleScaleError(f"loss_hessian_fd limited to {HESSIAN_MAX_PARAMS} params")
    out = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        _, gp = loss_and_grad(model, theta.from_flat(flat + e), batch)
        _, gm = loss_and_grad(model, theta.from_flat(flat - e), batch)
        out[:, i] = (gp.flat - gm.flat) / (2 * h)
    return 0.5 * (out + out.T)


def exact_ppm_solve(model, theta, batch, lam_fsd, lam_wsd, fsd_inputs,
                    tol=1e-10, max_iter=100_000, fsd_kind=None):
    """Minimize the proximal objective
    J_batch(u) + lam_fsd * FSD(u, theta) + lam_wsd * 0.5 ||u - theta||^2
    over u by gradient descent with Armijo backtracking; the trial step per
    iteration is a Barzilai-Borwein spectral step, which copes with the
    ill-conditioned inner problems the plain unit step cannot.

    A None fsd_kind means the model head's divergence.  Returns u with inner
    gradient 2-norm <= tol.  Raises ConvergenceError when the iteration cap
    is hit.
    """
    if tol <= 0:
        raise ContractError("tol must be positive")
    divergence(model, fsd_kind)  # rejects an unknown kind before the first step

    def objective(u):
        value, _, grad = proximal_value_and_grad(model, u, theta, batch, fsd_inputs,
                                                 lam_fsd, lam_wsd, fsd_kind)
        return value, grad

    theta_norm = float(np.sqrt(theta.sq_norm()))

    def stalled_exit(gnorm, value, step):
        # Value progress has hit float resolution.  Accept if the gradient is
        # tiny relative to the objective scale, or if the remaining distance
        # to the minimizer (about step * gnorm, the BB step approximating the
        # inverse curvature) is negligible -- the high-curvature regimes
        # bottom out at gradient norms ~ sqrt(eps * curvature) under any
        # value-based line search.
        if gnorm <= tol * max(1.0, abs(value)) * 1e3:
            return True
        if gnorm * step <= 1e-9 * (1.0 + theta_norm):
            return True
        raise ConvergenceError(
            f"inner solver stalled with gradient norm {gnorm}", grad_norm=gnorm)

    u = theta.copy()
    value, grad = objective(u)
    flat, gflat = u.flat, grad.flat
    prev_flat = prev_gflat = None
    step = 1.0
    no_progress = 0
    for _ in range(max_iter):
        gnorm2 = float(gflat @ gflat)
        if np.sqrt(gnorm2) <= tol:
            return u
        if no_progress > 50 and stalled_exit(float(np.sqrt(gnorm2)), value, step):
            return u
        if prev_flat is not None:
            dg = gflat - prev_gflat
            du = flat - prev_flat
            denom = float(dg @ dg)
            if denom > 0 and np.isfinite(denom):
                step = float(np.clip(du @ dg / denom, 1e-30, 1e12))
        accepted = False
        trial = step
        for _ in range(80):
            cand_flat = flat - trial * gflat
            cand = u.from_flat(cand_flat)
            cand_value, cand_grad = objective(cand)
            if np.isfinite(cand_value) and cand_value <= value - 1e-4 * trial * gnorm2:
                if value - cand_value <= 1e-16 * max(1.0, abs(value)):
                    no_progress += 1
                else:
                    no_progress = 0
                prev_flat, prev_gflat = flat, gflat
                u, value, grad = cand, cand_value, cand_grad
                flat, gflat = cand_flat, grad.flat
                accepted = True
                break
            trial *= 0.5
        if not accepted and stalled_exit(float(np.sqrt(gnorm2)), value, step):
            return u
    gnorm = float(np.sqrt(gflat @ gflat))
    raise ConvergenceError(
        f"inner solver hit {max_iter} iterations with gradient norm {gnorm}",
        grad_norm=gnorm)


def _sample_targets(head, outputs, rng):
    """Targets drawn from the model's predictive distribution (true Fisher)."""
    if head == "regression-gaussian-unit-variance":
        return outputs + rng.standard_normal(outputs.shape)
    if head == "classification-softmax":
        p = predictive("classification-softmax", outputs)
        u = rng.random(p.shape[0])
        return np.array([np.searchsorted(np.cumsum(row), uu) for row, uu in zip(p, u)])
    raise ContractError(f"cannot sample Fisher targets for head {head!r}")


def _nll_seed(head, outputs, targets):
    """Per-example d NLL / d outputs at the sampled targets (no 1/B)."""
    if head == "regression-gaussian-unit-variance":
        return outputs - targets
    p = predictive("classification-softmax", outputs)
    seed = p.copy()
    seed[np.arange(outputs.shape[0]), np.asarray(targets).reshape(-1)] -= 1.0
    return seed


def _homogeneous(a, has_bias):
    if not has_bias:
        return a
    return np.hstack([a, np.ones((a.shape[0], 1))])


def kfac_blocks(model, params, inputs, rng=None, exact=False):
    """Per-layer KFAC statistics (A, B): A is the second moment of the layer
    inputs (homogeneous coordinate appended when the layer has a bias), B the
    second moment of the pre-activation gradients.

    Sampled mode backpropagates one target drawn from the predictive
    distribution per example.  Exact mode integrates the target out in closed
    form through per-output backward passes.
    """
    if model.kind != "mlp":
        raise ContractError("kfac statistics are defined for layered models only")
    inputs = np.asarray(inputs, dtype=FLOAT)
    if inputs.shape[0] == 0:
        raise ContractError("kfac_blocks needs a nonempty dataset")
    outputs, trace = forward(model, params, inputs)
    bsz, d_out = outputs.shape

    a_blocks = []
    for spec, a_in in zip(model.layers, trace.layer_inputs):
        abar = _homogeneous(a_in, spec.has_bias)
        a_blocks.append(abar.T @ abar / bsz)

    n_layers = len(model.layers)
    if not exact:
        if rng is None:
            raise ContractError("sampled kfac_blocks needs an rng")
        targets = _sample_targets(model.head, outputs, rng)
        seed = _nll_seed(model.head, outputs, targets)
        _, ds_list = backward(model, params, trace, seed)
        b_blocks = [ds.T @ ds / bsz for ds in ds_list]
    else:
        # M[j] holds d y_j / d s_l for every example; B_l = E[M^T H_rho M].
        per_out_ds = [[] for _ in range(n_layers)]
        for j in range(d_out):
            seed = np.zeros((bsz, d_out))
            seed[:, j] = 1.0
            _, ds_list = backward(model, params, trace, seed)
            for l in range(n_layers):
                per_out_ds[l].append(ds_list[l])
        hessian = divergence(model).hessian
        hs = [hessian(outputs[b]) for b in range(bsz)]
        b_blocks = []
        for l in range(n_layers):
            stack = np.stack(per_out_ds[l], axis=1)  # bsz x d_out x n_l
            acc = np.zeros((stack.shape[2], stack.shape[2]))
            for b in range(bsz):
                acc += stack[b].T @ hs[b] @ stack[b]
            b_blocks.append(acc / bsz)
    return list(zip(a_blocks, b_blocks))


def kfac_statistics(model, params, inputs, rng, stats, t, settings):
    """The KFAC statistics for training step t: sampled kfac_blocks on the
    first step, then every settings.update_every-th step averaged into stats
    with decay settings.ema_decay; stats unchanged on the other steps."""
    if stats is not None and t % settings.update_every:
        return stats
    fresh = kfac_blocks(model, params, inputs, rng=rng)
    if stats is None:
        return fresh
    d = settings.ema_decay
    return [(d * a0 + (1 - d) * a1, d * b0 + (1 - d) * b1)
            for (a0, b0), (a1, b1) in zip(stats, fresh)]


def kfac_update(theta, g, blocks, damping, lr):
    """Damped Kronecker-inverse step: with weights stored fan_in x fan_out
    (bias as the appended homogeneous row), each layer takes

        Wbar' = Wbar - lr * (A + damping I)^-1  grad(Wbar)  (B + damping I)^-1.
    """
    if damping < 0:
        raise ContractError("damping must be nonnegative")
    out = theta.map(np.empty_like)
    for w, b, gw, gb, ow, ob, (a_blk, b_blk) in zip(theta.weights, theta.biases, g.weights,
                                                    g.biases, out.weights, out.biases, blocks):
        gbar = gw if b is None else np.vstack([gw, gb])
        try:
            left = solve_spd(a_blk + damping * np.eye(a_blk.shape[0]), gbar)
            right = solve_spd(b_blk + damping * np.eye(b_blk.shape[0]), left.T).T
        except NumericalError as exc:
            raise NumericalError(f"kfac block factorization failed: {exc}",
                                 pivot=exc.pivot) from exc
        np.subtract(w, lr * right[:w.shape[0]], out=ow)
        if b is not None:
            np.subtract(b, lr * right[-1], out=ob)
    return out

