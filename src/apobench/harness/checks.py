"""Invariant and oracle check suite behind the `check` CLI subcommand.

Every check returns JSON-ready dicts {check, value, threshold, pass}; the
suite is deterministic and runs from a fresh checkout in well under a minute.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .. import oracles
from ..apo import (LrPhi, ProximalConfig, meta_gradient, meta_objective)
from ..baseopt import BaseOptKind, init_state, update_direction
from ..diffnet import Batch, init_params, mlp
from ..kronprecond import (KronBlocks, apply_precond, apply_precond_update,
                           dense_precond, init_identity)
from ..numkit import kron_dense, make_rng, solve_spd, sym_eig_min, unvec_cm, vec_cm


def _result(name, value, threshold, ok):
    return {"check": name, "value": value, "threshold": threshold, "pass": bool(ok)}


def _random_blocks(rng, fan_in, fan_out):
    return KronBlocks(rng.standard_normal((fan_out, fan_out)),
                      rng.standard_normal((fan_in, fan_in)),
                      rng.standard_normal((fan_in, fan_out)))


def check_kron_vec_identity():
    rng = make_rng(101)
    worst = 0.0
    for _ in range(20):
        q, r = rng.integers(2, 7), rng.integers(2, 7)
        a = rng.standard_normal((r, r))
        b = rng.standard_normal((q, q))
        x = rng.standard_normal((q, r))
        lhs = kron_dense(a, b) @ vec_cm(x)
        rhs = vec_cm(b @ x @ a.T)
        worst = max(worst, np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))
    return [_result("kron-vec-identity", worst, 1e-12, worst <= 1e-12)]


def check_solve_spd_residual():
    rng = make_rng(102)
    worst = 0.0
    for n in (8, 64):
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_spd(spd, rhs)
        worst = max(worst, np.linalg.norm(spd @ x - rhs) / np.linalg.norm(rhs))
    return [_result("solve-spd-residual", worst, 1e-8, worst <= 1e-8)]


def check_rng_stability():
    a = make_rng(103).standard_normal(64)
    b = make_rng(103).standard_normal(64)
    same = bool(np.array_equal(a, b))
    return [_result("rng-bit-stability", int(same), 1, same)]


def check_gradient_fd():
    from ..apo import loss_and_grad
    rng = make_rng(104)
    worst = 0.0
    for head in ("regression-gaussian-unit-variance", "classification-softmax"):
        model = mlp([3, 4, 2], activation="sigmoid", head=head)
        theta = init_params(model, rng)
        x = rng.standard_normal((4, 3))
        t = (rng.integers(0, 2, size=4) if head.startswith("classification")
             else rng.standard_normal((4, 2)))
        batch = Batch(x, t)
        _, g = loss_and_grad(model, theta, batch)
        flat = theta.to_flat()
        fd = np.zeros_like(flat)
        h = 1e-5
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            lp, _ = loss_and_grad(model, theta.from_flat(flat + e), batch)
            lm, _ = loss_and_grad(model, theta.from_flat(flat - e), batch)
            fd[i] = (lp - lm) / (2 * h)
        worst = max(worst, np.abs(g.to_flat() - fd).max() / max(np.abs(fd).max(), 1e-12))
    return [_result("gradient-finite-difference", worst, 1e-5, worst <= 1e-5)]


def check_jacobian_chain():
    from ..diffnet import forward, loss_out_grad, per_example_jacobian, grad_params
    rng = make_rng(105)
    model = mlp([3, 5, 2], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    jac = per_example_jacobian(model, theta, batch.inputs)
    outputs, _ = forward(model, theta, batch.inputs)
    dy = loss_out_grad(model.head, outputs, batch.targets)
    contracted = np.einsum("bj,bjm->m", dy, jac)
    exact = grad_params(model, theta, batch).to_flat()
    err = np.abs(contracted - exact).max() / max(np.abs(exact).max(), 1e-12)
    return [_result("jacobian-chain-consistency", err, 1e-10, err <= 1e-10)]


def _equivalence_error(blocks, grad, apply_fn):
    eff = apply_fn(blocks, grad)
    dense = dense_precond(blocks)
    ref = unvec_cm(dense @ vec_cm(grad), *grad.shape)
    return np.abs(eff - ref).max() / max(1.0, np.abs(ref).max())


def check_precond_equivalence_and_psd(n_sets=120):
    rng = make_rng(106)
    worst_eq = 0.0
    worst_eig = 0.0
    for _ in range(n_sets):
        fan_in, fan_out = rng.integers(1, 9), rng.integers(1, 9)
        blocks = _random_blocks(rng, fan_in, fan_out)
        grad = rng.standard_normal((fan_in, fan_out))
        worst_eq = max(worst_eq, _equivalence_error(blocks, grad, apply_precond))
        p = dense_precond(blocks)
        worst_eig = min(worst_eig, sym_eig_min(0.5 * (p + p.T)))
    return [
        _result("eq10-eq11-equivalence", worst_eq, 1e-12, worst_eq <= 1e-12),
        _result("precond-psd-min-eig", worst_eig, -1e-10, worst_eig >= -1e-10),
    ]


def check_equivalence_negative_control():
    """A deliberately transposed application must be caught by the dense
    comparison; this guards the sensitivity of the equivalence check."""

    def broken_apply(blocks, grad_w):
        inner = blocks.b @ grad_w @ blocks.a  # wrong: missing the transpose
        return blocks.b @ ((blocks.s * blocks.s) * inner) @ blocks.a.T

    rng = make_rng(107)
    detected = False
    for _ in range(10):
        blocks = _random_blocks(rng, 4, 3)
        grad = rng.standard_normal((4, 3))
        if _equivalence_error(blocks, grad, broken_apply) > 1e-6:
            detected = True
            break
    return [_result("eq11-negative-control", int(detected), 1, detected)]


def check_precond_param_count():
    ok = True
    for fan_in, fan_out in ((3, 2), (8, 8), (1, 5)):
        blocks = _random_blocks(make_rng(108), fan_in, fan_out)
        ok &= blocks.param_count == fan_in ** 2 + fan_out ** 2 + fan_in * fan_out
    return [_result("precond-param-count", int(ok), 1, ok)]


def check_identity_init_scaling():
    rng = make_rng(109)
    model = mlp([4, 3, 2], activation="relu")
    theta = init_params(model, rng)
    g = theta.map(lambda a: rng.standard_normal(a.shape))
    phi = init_identity(model, scale=0.9)
    stepped = apply_precond_update(theta, phi, g)
    expect = theta.map2(g, lambda t, gg: t - 0.9 * gg)
    exact = np.array_equal(stepped.flat, expect.flat)
    return [_result("identity-init-scaling-bitwise", int(exact), 1, exact)]


def _fd_phi(fn, x0, h=1e-4):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (fn(x0 + e) - fn(x0 - e)) / (2 * h)
    return g


def check_metagrad_lr_fd(n_instances=5):
    worst = 0.0
    for seed in range(n_instances):
        rng = make_rng(200 + seed)
        model = mlp([3, 4, 2], activation="sigmoid")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.3, lam_wsd=0.4)
        kind = BaseOptKind("sgd-momentum")
        state = init_state(kind, theta.flat)
        from ..apo import loss_and_grad
        _, g0 = loss_and_grad(model, theta, bp)
        _, state = update_direction(kind, state, g0.flat)
        phi = LrPhi(math.log(0.05))
        grad = meta_gradient(model, theta, phi, state, b, bp, cfg, base_kind=kind)
        fd = _fd_phi(lambda v: meta_objective(model, theta, LrPhi(float(v[0])),
                                              state, b, bp, cfg, base_kind=kind),
                     np.array([phi.log_lr]))
        worst = max(worst, abs(grad.log_lr - fd[0]) / max(abs(fd[0]), 1e-12))
    return [_result("metagrad-fd-lr", worst, 1e-4, worst <= 1e-4)]


def check_metagrad_precond_fd(n_instances=5):
    worst = 0.0
    for seed in range(n_instances):
        rng = make_rng(300 + seed)
        model = mlp([3, 2], activation="sigmoid", out_activation="linear")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.4, lam_wsd=0.5)
        phi = init_identity(model)
        flat0 = phi.to_flat() + 0.25 * rng.standard_normal(phi.to_flat().size)
        phi = phi.from_flat(flat0)
        grad = meta_gradient(model, theta, phi, None, b, bp, cfg)
        fd = _fd_phi(lambda v: meta_objective(model, theta, phi.from_flat(v),
                                              None, b, bp, cfg), flat0)
        worst = max(worst, np.abs(grad.to_flat() - fd).max() / max(np.abs(fd).max(), 1e-12))
    return [_result("metagrad-fd-precond", worst, 1e-4, worst <= 1e-4)]


def check_thm1():
    rng = make_rng(110)
    g = np.diag([2.0, 4.0])
    samples = rng.standard_normal((60, 2))
    return oracles.verify_thm1(g, samples, 1.0, 0.5, rng=make_rng(111))


def check_kfac_recovery():
    return oracles.verify_kfac_recovery(make_rng(112))


def check_ppm_closed_form_limit():
    rng = make_rng(113)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    fsd_inputs = rng.standard_normal((8, 2))
    from ..apo import loss_and_grad
    g_mat = oracles.fsd_hessian_exact(model, theta, fsd_inputs,
                                      "kl-gaussian-unit-variance")
    _, g = loss_and_grad(model, theta, batch)
    gaps = []
    for lam_w in (10.0, 100.0, 1000.0):
        exact = oracles.exact_ppm_solve(model, theta, batch, 1.0, lam_w,
                                        fsd_inputs, tol=1e-10)
        closed = oracles.approx_ppm_update(theta, g, g_mat, 1.0, lam_w)
        step = np.linalg.norm(exact.to_flat() - theta.to_flat())
        gaps.append(np.linalg.norm(closed.to_flat() - exact.to_flat()) / step)
    monotone = gaps[0] > gaps[1] > gaps[2]
    return [_result("ppm-closed-form-limit", gaps[2], 1e-2,
                    monotone and gaps[2] <= 1e-2)]


def check_adam_scale_invariance():
    kind = BaseOptKind("adam", eps=1e-12)
    rng = make_rng(114)
    g = rng.standard_normal(6) + 2.0
    g10 = 10.0 * g
    d1, _ = update_direction(kind, init_state(kind, g), g)
    d2, _ = update_direction(kind, init_state(kind, g10), g10)
    err = np.abs(d1 - d2).max() / np.abs(d2).max()
    return [_result("adam-scale-invariance", err, 1e-6, err <= 1e-6)]


CHECKS = (
    check_kron_vec_identity,
    check_solve_spd_residual,
    check_rng_stability,
    check_gradient_fd,
    check_jacobian_chain,
    check_precond_equivalence_and_psd,
    check_equivalence_negative_control,
    check_precond_param_count,
    check_identity_init_scaling,
    check_metagrad_lr_fd,
    check_metagrad_precond_fd,
    check_thm1,
    check_kfac_recovery,
    check_ppm_closed_form_limit,
    check_adam_scale_invariance,
)


def run_checks():
    results = []
    for fn in CHECKS:
        results.extend(fn())
    report = {"n_checks": len(results),
              "passed": all(r["pass"] for r in results),
              "checks": results}
    return report


def report_to_json(report):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not serializable: {type(o)}")

    return json.dumps(report, indent=2, default=default)
