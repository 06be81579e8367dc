import numpy as np
import pytest

from apobench import numkit, oracles
from apobench.apo import loss_and_grad
from apobench.diffnet import (Batch, LayerSpec, Model, ParamSet, forward,
                              init_params, mlp)
from apobench.errors import ContractError, NumericalError
from apobench.harness import checks
from apobench.numkit import kron_dense

from helpers import fsd_value, rel_err


# ---------------------------------------------------------- fsd_hessian_exact


def test_output_hessian_softmax_uniform():
    from apobench.apo import DIVERGENCES
    h = DIVERGENCES["kl-categorical"].hessian(np.zeros(2))
    assert np.allclose(h, [[0.25, -0.25], [-0.25, 0.25]])


def test_fsd_hessian_scalar_linear_model():
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[0.7]]), None)])
    g = oracles.fsd_hessian_exact(model, theta, np.array([[1.0]]),
                                  "kl-gaussian-unit-variance")
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0)
    g2 = oracles.fsd_hessian_exact(model, theta, np.array([[1.0]]),
                                   "squared-output-distance")
    assert g2[0, 0] == pytest.approx(2.0)


def test_fsd_hessian_symmetric_psd():
    rng = numkit.make_rng(0)
    model = mlp([3, 4, 2], activation="sigmoid", head="classification-softmax")
    theta = init_params(model, rng)
    g = oracles.fsd_hessian_exact(model, theta, rng.standard_normal((6, 3)),
                                  "kl-categorical")
    assert np.abs(g - g.T).max() < 1e-12
    assert numkit.sym_eig_min(g) >= -1e-8


def test_fsd_hessian_matches_fd_of_fsd():
    """Independent oracle: G should be the Hessian of the scalar FSD value."""
    rng = numkit.make_rng(1)
    model = mlp([2, 3, 2], activation="sigmoid")
    theta = init_params(model, rng)
    inputs = rng.standard_normal((4, 2))
    g = oracles.fsd_hessian_exact(model, theta, inputs, "kl-gaussian-unit-variance")
    flat = theta.to_flat()
    h = 1e-4
    m = flat.size
    fd = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            steps = []
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                v = flat.copy()
                v[i] += si * h
                v[j] += sj * h
                steps.append(fsd_value(model, theta.from_flat(v), theta, inputs,
                                       "kl-gaussian-unit-variance"))
            fd[i, j] = (steps[0] - steps[1] - steps[2] + steps[3]) / (4 * h * h)
    # FD of the full FSD Hessian includes curvature-of-f terms that vanish at
    # zero displacement only in expectation of the Gauss-Newton part; at the
    # expansion point they vanish identically because the displacement is 0.
    assert rel_err(g, fd) < 1e-4


# ------------------------------------------------------ optimal_dense_precond


def test_optimal_precond_diagonal():
    p = oracles.optimal_dense_precond(np.diag([2.0, 4.0]), 1.0, 0.0)
    assert np.allclose(p, np.diag([0.5, 0.25]))


def test_optimal_precond_pure_wsd_is_scaled_identity():
    g = np.diag([5.0, 7.0])
    p = oracles.optimal_dense_precond(g, 0.0, 2.0)
    assert np.allclose(p, 0.5 * np.eye(2))


def test_optimal_precond_identity_case():
    p = oracles.optimal_dense_precond(np.eye(3), 1.0, 1.0)
    assert np.allclose(p, 0.5 * np.eye(3))


def test_optimal_precond_inverse_property():
    rng = numkit.make_rng(2)
    for n in (4, 12):
        m = rng.standard_normal((n, n))
        g = m @ m.T / n
        p = oracles.optimal_dense_precond(g, 0.7, 0.3)
        assert np.abs(p @ (0.7 * g + 0.3 * np.eye(n)) - np.eye(n)).max() <= 1e-8
        assert np.abs(p - p.T).max() <= 1e-8


# ------------------------------------------------------------------ verify_thm1


def isotropic_samples(rng, n, m, scale=1.0):
    return scale * rng.standard_normal((n, m))


def test_verify_thm1_pure_euclidean():
    rng = numkit.make_rng(5)
    results = checks.verify_thm1(np.zeros((3, 3)), isotropic_samples(rng, 80, 3),
                                 0.0, 2.0, numkit.make_rng(6))
    assert all(c["pass"] for c in results)
    # P* = I / lam_wsd in this case
    p = oracles.optimal_dense_precond(np.zeros((3, 3)), 0.0, 2.0)
    assert np.allclose(p, np.eye(3) / 2.0)


def test_verify_thm1_negative_control():
    rng = numkit.make_rng(7)
    g = np.diag([2.0, 4.0])
    samples = isotropic_samples(rng, 60, 2)
    p_star = oracles.optimal_dense_precond(g, 1.0, 0.0)
    bad = p_star + 1e-2
    grad = oracles.qhat_grad(bad, g, samples, 1.0, 0.0)
    assert np.abs(grad).max() > 1e-8


def test_verify_thm1_singular_second_moment_rejected():
    samples = np.zeros((10, 2))
    with pytest.raises(ContractError):
        checks.verify_thm1(np.eye(2), samples, 1.0, 1.0, numkit.make_rng(0))


def test_qhat_gradient_matches_fd():
    rng = numkit.make_rng(8)
    g = np.diag([1.0, 3.0])
    samples = isotropic_samples(rng, 40, 2)
    p = rng.standard_normal((2, 2))
    grad = oracles.qhat_grad(p, g, samples, 0.6, 0.4)
    h = 1e-6
    fd = np.zeros_like(p)
    for i in range(2):
        for j in range(2):
            dp = np.zeros_like(p)
            dp[i, j] = h
            fd[i, j] = (oracles.qhat_value(p + dp, g, samples, 0.6, 0.4)
                        - oracles.qhat_value(p - dp, g, samples, 0.6, 0.4)) / (2 * h)
    assert rel_err(grad, fd) < 1e-7


# ------------------------------------------------------------- closed-form PPM


def test_approx_ppm_zero_gradient_no_move():
    theta = ParamSet.from_layers([(np.array([[1.0, 2.0]]), None)])
    g = theta.zeros_like()
    out = oracles.approx_ppm_update(theta, g, np.eye(2), 1.0, 1.0)
    assert np.array_equal(out.to_flat(), theta.to_flat())


def test_approx_ppm_scalar_hand_value():
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[4.0]]), None)])
    out = oracles.approx_ppm_update(theta, g, np.array([[2.0]]), 1.0, 0.0)
    assert out.weights[0][0, 0] == pytest.approx(-1.0)


def test_approx_ppm_large_damping_freezes():
    rng = numkit.make_rng(9)
    theta = ParamSet.from_layers([(rng.standard_normal((2, 3)), None)])
    g = theta.map(lambda a: rng.standard_normal(a.shape))
    out = oracles.approx_ppm_update(theta, g, np.eye(6), 1.0, 1e12)
    assert np.abs(out.to_flat() - theta.to_flat()).max() < 1e-10


# -------------------------------------------------------------- damped Newton


def quadratic_1p():
    # J(u) = u^2 realized as (u * x)^2 with x = 1: H = 2, g(1) = 2
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    batch = Batch(np.array([[1.0]]), np.array([[0.0]]))
    return model, theta, batch


def test_damped_newton_exact_on_quadratic():
    model, theta, batch = quadratic_1p()
    _, g = loss_and_grad(model, theta, batch)
    assert g.weights[0][0, 0] == pytest.approx(2.0)
    out = oracles.damped_newton_update(theta, g, np.array([[2.0]]), 0.0)
    assert out.weights[0][0, 0] == pytest.approx(0.0)


def test_damped_newton_hand_value():
    model, theta, batch = quadratic_1p()
    _, g = loss_and_grad(model, theta, batch)
    out = oracles.damped_newton_update(theta, g, np.array([[2.0]]), 2.0)
    assert out.weights[0][0, 0] == pytest.approx(0.5)


def test_damped_newton_zero_gradient():
    theta = ParamSet.from_layers([(np.array([[3.0]]), None)])
    out = oracles.damped_newton_update(theta, theta.zeros_like(), np.array([[2.0]]), 1.0)
    assert out.weights[0][0, 0] == 3.0


def test_damped_newton_indefinite_rejected():
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[1.0]]), None)])
    with pytest.raises(NumericalError):
        oracles.damped_newton_update(theta, g, np.array([[-3.0]]), 1.0)


def test_loss_hessian_fd_on_quadratic():
    model, theta, batch = quadratic_1p()
    h = oracles.loss_hessian_fd(model, theta, batch)
    assert h[0, 0] == pytest.approx(2.0, abs=1e-6)


# ------------------------------------------------------------ exact PPM solve


def test_exact_ppm_stays_put_when_optimal():
    model, theta, batch = quadratic_1p()
    theta0 = ParamSet.from_layers([(np.array([[0.0]]), None)])  # J(0) = 0, the minimum
    u = oracles.exact_ppm_solve(model, theta0, batch, 1.0, 1.0,
                                batch.inputs, tol=1e-10)
    assert np.abs(u.to_flat() - theta0.to_flat()).max() < 1e-9


def test_exact_ppm_scalar_hand_value():
    # J(u) = 0.5 (u - 1)^2 via x = 1/sqrt2, t = x; theta = 0, lam_wsd = 1:
    # minimize 0.5 (u-1)^2 + 0.5 u^2 -> u = 0.5
    x = 1.0 / np.sqrt(2.0)
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[0.0]]), None)])
    batch = Batch(np.array([[x]]), np.array([[x]]))
    u = oracles.exact_ppm_solve(model, theta, batch, 0.0, 1.0, batch.inputs,
                                tol=1e-12)
    assert u.weights[0][0, 0] == pytest.approx(0.5, abs=1e-9)


def test_exact_ppm_huge_wsd_freezes():
    rng = numkit.make_rng(10)
    model = mlp([2, 4, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((3, 2)), rng.standard_normal((3, 1)))
    u_ref = oracles.exact_ppm_solve(model, theta, batch, 0.0, 1.0,
                                    batch.inputs, tol=1e-10)
    u_frozen = oracles.exact_ppm_solve(model, theta, batch, 0.0, 1e6,
                                       batch.inputs, tol=1e-10)
    ref_step = np.linalg.norm(u_ref.to_flat() - theta.to_flat())
    frozen_step = np.linalg.norm(u_frozen.to_flat() - theta.to_flat())
    assert frozen_step <= 1e-3 * ref_step


def test_exact_ppm_monotone_descent_invariant():
    rng = numkit.make_rng(11)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    fsd_inputs = rng.standard_normal((6, 2))
    u = oracles.exact_ppm_solve(model, theta, batch, 0.5, 0.5, fsd_inputs, tol=1e-9)

    def inner(params):
        from apobench.apo import wsd
        loss, _ = loss_and_grad(model, params, batch)
        return (loss + 0.5 * fsd_value(model, params, theta, fsd_inputs,
                                       "kl-gaussian-unit-variance")
                + 0.5 * wsd(params, theta))

    assert inner(u) <= inner(theta)


# -------------------------------------------------------------------- KFAC


def test_kfac_blocks_shapes_with_bias():
    rng = numkit.make_rng(13)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    blocks = oracles.kfac_blocks(model, theta, rng.standard_normal((6, 3)),
                                 rng=numkit.make_rng(0))
    (a1, b1), (a2, b2) = blocks
    assert a1.shape == (4, 4) and b1.shape == (4, 4)
    assert a2.shape == (5, 5) and b2.shape == (2, 2)
    for blk in (a1, b1, a2, b2):
        assert numkit.sym_eig_min(blk) >= -1e-8


def test_kfac_single_example_input_stat():
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    theta = init_params(model, numkit.make_rng(14))
    x = np.array([[1.0, 2.0, -1.0]])
    blocks = oracles.kfac_blocks(model, theta, x, rng=numkit.make_rng(0))
    assert np.allclose(blocks[0][0], x.T @ x)


def test_kfac_identity_statistics_gives_sgd_direction():
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    rng = numkit.make_rng(15)
    theta = init_params(model, rng)
    inputs = np.repeat(np.sqrt(3.0) * np.eye(3), 2, axis=0)
    blocks = oracles.kfac_blocks(model, theta, inputs, exact=True)
    assert np.abs(blocks[0][0] - np.eye(3)).max() < 1e-12
    assert np.abs(blocks[0][1] - np.eye(2)).max() < 1e-12
    g = ParamSet.from_layers([(rng.standard_normal((3, 2)), None)])
    out = oracles.kfac_update(theta, g, blocks, damping=0.0, lr=0.25)
    expect = theta.map2(g, lambda t, gg: t - 0.25 * gg)
    assert np.abs(out.to_flat() - expect.to_flat()).max() < 1e-12


def test_kfac_update_scalar_hand_value():
    theta = ParamSet.from_layers([(np.array([[0.0]]), None)])
    g = ParamSet.from_layers([(np.array([[6.0]]), None)])
    blocks = [(np.array([[2.0]]), np.array([[3.0]]))]
    out = oracles.kfac_update(theta, g, blocks, damping=0.0, lr=1.0)
    assert out.weights[0][0, 0] == pytest.approx(-1.0)


def test_kfac_update_huge_damping_freezes():
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[6.0]]), None)])
    blocks = [(np.array([[2.0]]), np.array([[3.0]]))]
    out = oracles.kfac_update(theta, g, blocks, damping=1e12, lr=1.0)
    assert abs(out.weights[0][0, 0] - 1.0) < 1e-10


def test_kfac_blocks_empty_dataset_rejected():
    model = mlp([2, 2])
    theta = init_params(model, numkit.make_rng(0))
    with pytest.raises(ContractError):
        oracles.kfac_blocks(model, theta, np.zeros((0, 2)), rng=numkit.make_rng(0))


# ------------------------------------------ exact Fisher vs sampled estimator


def test_fsd_hessian_categorical_matches_sampled_fisher():
    """Monte-Carlo oracle: for the categorical KL the exact discrepancy
    Hessian is the Fisher, estimated here by sampling labels from the
    predictive distribution (1e5 samples, 3 standard errors)."""
    rng = numkit.make_rng(17)
    model = Model((LayerSpec(2, 2, "linear", True),), "classification-softmax")
    theta = init_params(model, rng)
    inputs = rng.standard_normal((4, 2))
    m = theta.size
    assert m <= 10
    g_exact = oracles.fsd_hessian_exact(model, theta, inputs, "kl-categorical")

    outputs, _ = forward(model, theta, inputs)
    from apobench.diffnet import per_example_jacobian, predictive
    jac = per_example_jacobian(model, theta, inputs)
    probs = predictive("classification-softmax", outputs)

    n_total = 100_000
    sample_rng = numkit.make_rng(18)
    idx = sample_rng.integers(0, inputs.shape[0], size=n_total)
    u = sample_rng.random(n_total)
    grads = np.empty((n_total, m))
    for b in range(inputs.shape[0]):
        mask = idx == b
        labels = np.searchsorted(np.cumsum(probs[b]), u[mask])
        seed = probs[b][None, :].repeat(mask.sum(), axis=0)
        seed[np.arange(mask.sum()), labels] -= 1.0
        grads[mask] = seed @ jac[b]
    prods = grads[:, :, None] * grads[:, None, :]
    est = prods.mean(axis=0)
    se = prods.std(axis=0) / np.sqrt(n_total)
    assert np.all(np.abs(est - g_exact) <= 3.0 * se + 1e-12)


def test_oracles_deterministic_given_seed():
    a = checks.verify_kfac_recovery(numkit.make_rng(19))
    b = checks.verify_kfac_recovery(numkit.make_rng(19))
    assert a == b
