"""Invariant and oracle check suite behind the `check` CLI subcommand.

Every check returns a list of JSON-ready dicts {check, value, threshold,
pass}, each built by `result`, the one place in the package that builds that
format (harness.ppmdemo uses it for its regime checks); a value is an int or a
float (numpy's float64 included), so json.dumps writes the report.  CHECKS lists the
checks in report order and run_checks runs them all.  The suite is
deterministic and takes well under a second; tier-1 (tests/test_checks.py)
runs every entry and pins each check's name and threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .. import oracles
from ..apo import (LrPhi, ProximalConfig, loss_and_grad, meta_batches, meta_gradient,
                   meta_work)
from ..baseopt import BaseOptKind, init_state, update_direction
from ..diffnet import (Batch, LayerSpec, Model, init_params, loss_value_and_grad,
                       mlp, per_example_jacobian)
from ..errors import ContractError, NumericalError
from ..kronprecond import (KronBlocks, apply_precond, apply_precond_update,
                           dense_precond, init_identity)
from ..numkit import FLOAT, make_rng, solve_spd


def result(name, value, threshold, ok=None):
    """One check's JSON-ready dict; ok defaults to value <= threshold."""
    return {"check": name, "value": value, "threshold": threshold,
            "pass": bool(value <= threshold if ok is None else ok)}


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
        lhs = np.kron(b, a) @ x.ravel()
        rhs = (b @ x @ a.T).ravel()
        worst = max(worst, np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))
    return [result("kron-vec-identity", worst, 1e-12)]


def check_solve_spd_residual():
    rng = make_rng(102)
    worst = 0.0
    for n in (8, 64):
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_spd(spd, rhs)
        worst = max(worst, np.linalg.norm(spd @ x - rhs) / np.linalg.norm(rhs))
    return [result("solve-spd-residual", worst, 1e-8)]


def check_rng_stability():
    a = make_rng(103).standard_normal(64)
    b = make_rng(103).standard_normal(64)
    same = bool(np.array_equal(a, b))
    return [result("rng-bit-stability", int(same), 1, same)]


def check_gradient_fd():
    rng = make_rng(104)
    worst = 0.0
    for head in ("regression-gaussian-unit-variance", "classification-softmax"):
        model = mlp([3, 4, 2], activation="sigmoid", head=head)
        theta = init_params(model, rng)
        x = rng.standard_normal((4, 3))
        t = (rng.integers(0, 2, size=4) if head.startswith("classification")
             else rng.standard_normal((4, 2)))
        batch = Batch(x, t)
        g = loss_and_grad(model, theta, batch)[1]
        fd = oracles.fd_jacobian(lambda v: loss_and_grad(model, theta.from_flat(v), batch)[0],
                                 theta.to_flat(), 1e-5)
        worst = max(worst, np.abs(g.to_flat() - fd).max() / max(np.abs(fd).max(), 1e-12))
    return [result("gradient-finite-difference", worst, 1e-5)]


def check_jacobian_chain():
    rng = make_rng(105)
    model = mlp([3, 5, 2], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    outputs, jac = per_example_jacobian(model, theta, batch.inputs)
    _, dy = loss_value_and_grad(model.head, outputs, batch.targets)
    contracted = np.einsum("bj,bjm->m", dy, jac)
    exact = loss_and_grad(model, theta, batch)[1].to_flat()
    err = np.abs(contracted - exact).max() / max(np.abs(exact).max(), 1e-12)
    return [result("jacobian-chain-consistency", err, 1e-10)]


def _equivalence_error(blocks, grad, apply_fn):
    eff = apply_fn(blocks, grad)
    dense = dense_precond(blocks)
    ref = (dense @ grad.ravel()).reshape(grad.shape)
    return np.abs(eff - ref).max() / max(1.0, np.abs(ref).max())


def check_precond_equivalence_and_psd():
    rng = make_rng(106)
    worst_eq = 0.0
    worst_eig = 0.0
    for _ in range(120):
        fan_in, fan_out = rng.integers(1, 9), rng.integers(1, 9)
        blocks = _random_blocks(rng, fan_in, fan_out)
        grad = rng.standard_normal((fan_in, fan_out))
        worst_eq = max(worst_eq, _equivalence_error(blocks, grad, apply_precond))
        p = dense_precond(blocks)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(0.5 * (p + p.T))[0]))
    return [
        result("eq10-eq11-equivalence", worst_eq, 1e-12),
        result("precond-psd-min-eig", worst_eig, -1e-10, worst_eig >= -1e-10),
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
    return [result("eq11-negative-control", int(detected), 1, detected)]


def check_precond_param_count():
    ok = True
    for fan_in, fan_out in ((3, 2), (8, 8), (1, 5)):
        blocks = _random_blocks(make_rng(108), fan_in, fan_out)
        ok &= blocks.param_count == fan_in ** 2 + fan_out ** 2 + fan_in * fan_out
    return [result("precond-param-count", int(ok), 1, ok)]


def check_identity_init_scaling():
    rng = make_rng(109)
    model = mlp([4, 3, 2], activation="relu")
    theta = init_params(model, rng)
    g = theta.map(lambda a: rng.standard_normal(a.shape))
    phi = init_identity(model, scale=0.9)
    stepped = apply_precond_update(theta, phi, g, phi.lookahead_products(),
                                   theta.map(np.empty_like))
    expect = theta.map2(g, lambda t, gg: t - 0.9 * gg)
    exact = np.array_equal(stepped.flat, expect.flat)
    return [result("identity-init-scaling-bitwise", int(exact), 1, exact)]


def _metagrad_fd_error(model, theta, phi, b, bp, cfg, delta=None):
    """Max-norm relative error of meta_gradient's dQ/dphi against central
    differences of Q over phi's flat vector, every call into one MetaWork."""
    train, prox = meta_batches(cfg, b, bp)
    _, g, outputs = loss_and_grad(model, theta, train)
    work = meta_work(model, theta, phi, cfg, len(b.targets))

    def meta(p):
        return meta_gradient(model, theta, p, train, prox, cfg, g, delta, outputs, work)

    grad = meta(phi)[0].flat.copy()  # the difference loop below reuses work
    fd = oracles.fd_jacobian(lambda v: meta(phi.from_flat(v))[1], phi.flat, 1e-4)
    return np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)


def check_metagrad_lr_fd():
    worst = 0.0
    for seed in range(5):
        rng = make_rng(200 + seed)
        model = mlp([3, 4, 2], activation="sigmoid")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.3, lam_wsd=0.4)
        kind = BaseOptKind("sgd-momentum")
        state = init_state(kind, theta.flat)
        update_direction(kind, state, loss_and_grad(model, theta, bp)[1].flat)
        delta = update_direction(kind, state, loss_and_grad(model, theta, b)[1].flat)
        phi = LrPhi(math.log(0.05))
        worst = max(worst, _metagrad_fd_error(model, theta, phi, b, bp, cfg, delta))
    return [result("metagrad-fd-lr", worst, 1e-4)]


def check_metagrad_precond_fd():
    worst = 0.0
    for seed in range(5):
        rng = make_rng(300 + seed)
        model = mlp([3, 2], activation="sigmoid", out_activation="linear")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.4, lam_wsd=0.5)
        phi = init_identity(model).map(lambda f: f + 0.25 * rng.standard_normal(f.size))
        worst = max(worst, _metagrad_fd_error(model, theta, phi, b, bp, cfg))
    return [result("metagrad-fd-precond", worst, 1e-4)]


def verify_thm1(g, grad_samples, lam_fsd, lam_wsd, rng):
    """Check that the closed-form preconditioner is a stationary point and a
    local minimizer of the quadratic meta-objective (no lower value at 100
    rng-drawn perturbations of norm 1e-3), and report the gradient norm at an
    offset preconditioner as a sensitivity (negative) control."""
    g = np.asarray(g, dtype=FLOAT)
    samples = np.asarray(grad_samples, dtype=FLOAT)
    m2 = samples.T @ samples / samples.shape[0]
    if np.linalg.matrix_rank(m2, tol=1e-10) < m2.shape[0]:
        raise ContractError("gradient second-moment matrix is singular")

    p_star = oracles.optimal_dense_precond(g, lam_fsd, lam_wsd)
    grad_max = float(np.abs(oracles.qhat_grad(p_star, g, samples, lam_fsd, lam_wsd)).max())

    q_star = oracles.qhat_value(p_star, g, samples, lam_fsd, lam_wsd)
    violations = 0
    for _ in range(100):
        d = rng.standard_normal(p_star.shape)
        d *= 1e-3 / np.linalg.norm(d)
        if oracles.qhat_value(p_star + d, g, samples, lam_fsd, lam_wsd) < q_star:
            violations += 1

    p_off = p_star + 1e-2
    off_grad_max = float(np.abs(oracles.qhat_grad(p_off, g, samples, lam_fsd,
                                                  lam_wsd)).max())
    return [
        result("thm1-gradient-zero", grad_max, 1e-8),
        result("thm1-local-min", violations, 0),
        result("thm1-offset-sensitivity", off_grad_max, 1e-8, off_grad_max > 1e-8),
    ]


def check_thm1():
    rng = make_rng(110)
    g = np.diag([2.0, 4.0])
    samples = rng.standard_normal((60, 2))
    return verify_thm1(g, samples, 1.0, 0.5, make_rng(111))


def _msqrt_inv(m):
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=FLOAT))
    if vals.min() <= 0:
        raise NumericalError("matrix is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T


def verify_kfac_recovery(rng):
    """On a single-layer 5 x 3 instance engineered so the layer inputs and
    output-gradient statistics are exactly independent, confirm that the
    closed-form optimal preconditioner (KL discrepancy, lam_fsd=1, lam_wsd=0)
    equals the Kronecker product of the inverse KFAC blocks, and exhibit
    structured blocks that reproduce it."""
    fan_in, fan_out = 5, 3
    model = Model((LayerSpec(fan_in, fan_out, "linear", has_bias=False),),
                  "regression-gaussian-unit-variance")
    params = init_params(model, rng)

    def run_instance(name, inputs):
        blocks = oracles.kfac_blocks(model, params, inputs)
        a_stat, b_stat = blocks[0]
        g = oracles.fsd_hessian_exact(model, params, inputs, "kl-gaussian-unit-variance")
        p_star = oracles.optimal_dense_precond(g, 1.0, 0.0)
        target = np.kron(oracles.spd_inverse(a_stat), oracles.spd_inverse(b_stat))
        scale = max(np.abs(target).max(), 1e-30)
        rel = float(np.abs(p_star - target).max() / scale)

        # Exhibit Eq-family blocks achieving the same matrix.
        exhibit = KronBlocks(_msqrt_inv(b_stat), _msqrt_inv(a_stat),
                             np.ones((fan_in, fan_out)))
        rel2 = float(np.abs(dense_precond(exhibit) - target).max() / scale)
        return [result(f"kfac-recovery-{name}", rel, 1e-6),
                result(f"kfac-structured-{name}", rel2, 1e-6)]

    # Identity statistics: scaled basis vectors make E[x x^T] exactly I.
    ident = np.repeat(np.sqrt(fan_in) * np.eye(fan_in), 2, axis=0)
    checks = run_instance("identity", ident)
    checks += run_instance("generic", rng.standard_normal((40, fan_in)))

    # Hand-checkable Kronecker-inverse arithmetic on diagonal statistics.
    a_diag, b_diag = np.diag([1.0, 2.0]), np.array([[3.0]])
    inv = oracles.optimal_dense_precond(np.kron(a_diag, b_diag), 1.0, 0.0)
    target = np.diag([1 / 3, 1 / 6])
    rel = float(np.abs(inv - target).max() / np.abs(target).max())
    return checks + [result("kfac-diagonal-arithmetic", rel, 1e-12)]


def check_kfac_recovery():
    return verify_kfac_recovery(make_rng(112))


def check_ppm_limits():
    """As lam_wsd grows, the exact proximal step approaches the closed-form
    step theta - (G + lam_wsd I)^-1 g at lam_fsd = 1, and the damped Newton
    step theta - (H + lam_wsd I)^-1 g at lam_fsd = 0."""
    rng = make_rng(113)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    fsd_inputs = rng.standard_normal((8, 2))
    g = loss_and_grad(model, theta, batch)[1]
    g_mat = oracles.fsd_hessian_exact(model, theta, fsd_inputs, "kl-gaussian-unit-variance")
    hessian = oracles.loss_hessian_fd(model, theta, batch)

    def limit(name, lam_fsd, approx_step, threshold):
        # The gap to exact_ppm_solve, relative to the exact step, must fall
        # monotonically along the lam_wsd ladder and end <= threshold.
        gaps = []
        for lam_w in (10.0, 100.0, 1000.0):
            exact = oracles.exact_ppm_solve(model, theta, batch, lam_fsd, lam_w,
                                            fsd_inputs, tol=1e-10)
            step = np.linalg.norm(exact.to_flat() - theta.to_flat())
            gaps.append(np.linalg.norm(approx_step(lam_w).to_flat() - exact.to_flat()) / step)
        monotone = gaps[0] > gaps[1] > gaps[2]
        return result(name, gaps[2], threshold, monotone and gaps[2] <= threshold)

    return [
        limit("ppm-closed-form-limit", 1.0,
              lambda lam_w: oracles.approx_ppm_update(theta, g, g_mat, 1.0, lam_w), 1e-2),
        limit("ppm-damped-newton-limit", 0.0,
              lambda lam_w: oracles.approx_ppm_update(theta, g, hessian, 1.0, lam_w), 1e-4),
    ]


def check_adam_scale_invariance():
    kind = BaseOptKind("adam", eps=1e-12)
    rng = make_rng(114)
    g = rng.standard_normal(6) + 2.0
    g10 = 10.0 * g
    d1 = update_direction(kind, init_state(kind, g), g)
    d2 = update_direction(kind, init_state(kind, g10), g10)
    err = np.abs(d1 - d2).max() / np.abs(d2).max()
    return [result("adam-scale-invariance", err, 1e-6)]


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
    check_ppm_limits,
    check_adam_scale_invariance,
)


def run_checks():
    results = []
    for fn in CHECKS:
        results.extend(fn())
    return {"n_checks": len(results),
            "passed": all(r["pass"] for r in results),
            "checks": results}

