from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import baseopt, diffnet, numkit, oracles
from apobench.apo import DIVERGENCES, loss_and_grad
from apobench.diffnet import (Batch, LayerSpec, Model, ParamSet, forward,
                              init_params, mlp, softmax)
from apobench.errors import ContractError, ConvergenceError, NumericalError, OracleScaleError
from apobench.harness import checks
from apobench.kronprecond import KronBlocks, dense_precond

from helpers import fsd_value, rel_err, wsd


# ---------------------------------------------------------- fsd_hessian_exact


def test_output_hessian_softmax_uniform():
    h = DIVERGENCES["kl-categorical"].hessian(np.zeros(2)[None])[0]
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
    assert np.linalg.eigvalsh(g)[0] >= -1e-8


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
    g = theta.map(np.zeros_like)
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
# The damped Newton step is approx_ppm_update with lam_fsd = 1 and the loss
# Hessian.


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
    out = oracles.approx_ppm_update(theta, g, np.array([[2.0]]), 1.0, 0.0)
    assert out.weights[0][0, 0] == pytest.approx(0.0)


def test_damped_newton_hand_value():
    model, theta, batch = quadratic_1p()
    _, g = loss_and_grad(model, theta, batch)
    out = oracles.approx_ppm_update(theta, g, np.array([[2.0]]), 1.0, 2.0)
    assert out.weights[0][0, 0] == pytest.approx(0.5)


def test_damped_newton_zero_gradient():
    theta = ParamSet.from_layers([(np.array([[3.0]]), None)])
    out = oracles.approx_ppm_update(theta, theta.map(np.zeros_like), np.array([[2.0]]), 1.0, 1.0)
    assert out.weights[0][0, 0] == 3.0


def test_damped_newton_indefinite_rejected():
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[1.0]]), None)])
    with pytest.raises(NumericalError):
        oracles.approx_ppm_update(theta, g, np.array([[-3.0]]), 1.0, 1.0)


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
        loss, _ = loss_and_grad(model, params, batch)
        return (loss + 0.5 * fsd_value(model, params, theta, fsd_inputs,
                                       "kl-gaussian-unit-variance")
                + 0.5 * wsd(params, theta))

    assert inner(u) <= inner(theta)


def test_exact_ppm_capped_solve_raises_with_grad_norm():
    rng = numkit.make_rng(11)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    fsd_inputs = rng.standard_normal((6, 2))
    with pytest.raises(ConvergenceError) as info:
        oracles.exact_ppm_solve(model, theta, batch, 0.5, 0.5, fsd_inputs, tol=1e-9,
                                max_iter=2)
    assert info.value.grad_norm > 1e-9


def test_exact_ppm_damps_a_singular_curvature():
    # Unregularized softmax loss on 4 rows: the 33 x 33 Gauss-Newton matrix
    # has rank <= 8, and once mu shrinks below its rounding the damped matrix
    # does not factor; that counts as a rejected step, not a NumericalError.
    rng = numkit.make_rng(45)
    model = mlp([2, 5, 3], activation="sigmoid", head="classification-softmax")
    theta = init_params(model, rng)
    labels = rng.integers(0, 3, 4)
    batch = Batch(rng.standard_normal((4, 2)), labels)
    loss0, _ = loss_and_grad(model, theta, batch)
    u = oracles.exact_ppm_solve(model, theta, batch, 0.0, 0.0, batch.inputs, tol=1e-13)
    loss, g = loss_and_grad(model, u, batch)
    assert np.sqrt(g.flat @ g.flat) <= 1e-13 or loss <= 1e-13 * loss0


# -------------------------------------------------------------------- KFAC


def test_kfac_blocks_shapes_with_bias():
    rng = numkit.make_rng(13)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    blocks = baseopt.kfac_sampled_blocks(model, theta, rng.standard_normal((6, 3)),
                                         numkit.make_rng(0))
    (a1, b1), (a2, b2) = blocks
    assert a1.shape == (4, 4) and b1.shape == (4, 4)
    assert a2.shape == (5, 5) and b2.shape == (2, 2)
    for blk in (a1, b1, a2, b2):
        assert np.abs(blk - blk.T).max() <= 1e-12 * np.abs(blk).max()
        assert np.linalg.eigvalsh(blk)[0] >= -1e-8


def test_kfac_single_example_input_stat():
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    theta = init_params(model, numkit.make_rng(14))
    x = np.array([[1.0, 2.0, -1.0]])
    blocks = baseopt.kfac_sampled_blocks(model, theta, x, numkit.make_rng(0))
    assert np.allclose(blocks[0][0], x.T @ x)


def test_kfac_identity_statistics_gives_sgd_direction():
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    rng = numkit.make_rng(15)
    theta = init_params(model, rng)
    inputs = np.repeat(np.sqrt(3.0) * np.eye(3), 2, axis=0)
    blocks = oracles.kfac_blocks(model, theta, inputs)
    assert np.abs(blocks[0][0] - np.eye(3)).max() < 1e-12
    assert np.abs(blocks[0][1] - np.eye(2)).max() < 1e-12
    g = ParamSet.from_layers([(rng.standard_normal((3, 2)), None)])
    delta = baseopt.kfac_direction(g, baseopt.kfac_factors(blocks, 0.0))
    assert np.abs(delta - g.flat).max() < 1e-12


def test_kfac_update_scalar_hand_value():
    """A^-1 g B^-1 = 6 / (2 * 3)."""
    g = ParamSet.from_layers([(np.array([[6.0]]), None)])
    blocks = [(np.array([[2.0]]), np.array([[3.0]]))]
    delta = baseopt.kfac_direction(g, baseopt.kfac_factors(blocks, 0.0))
    assert delta.tolist() == [pytest.approx(1.0)]


def test_kfac_update_huge_damping_freezes():
    g = ParamSet.from_layers([(np.array([[6.0]]), None)])
    blocks = [(np.array([[2.0]]), np.array([[3.0]]))]
    delta = baseopt.kfac_direction(g, baseopt.kfac_factors(blocks, 1e12))
    assert abs(delta[0]) < 1e-10


def kfac_update_reference(theta, g, blocks, damping, lr):
    """The KFAC step as written out in full: [W; b] stacked by vstack, a
    solve_spd on each raw damped block (B's first), then the subtracts."""
    out = theta.map(np.empty_like)
    for w, b, gw, gb, ow, ob, (a_blk, b_blk) in zip(theta.weights, theta.biases, g.weights,
                                                    g.biases, out.weights, out.biases, blocks):
        gbar = gw if b is None else np.vstack([gw, gb])
        right = numkit.solve_spd(b_blk + damping * np.eye(b_blk.shape[0]), gbar.T)
        step = numkit.solve_spd(a_blk + damping * np.eye(a_blk.shape[0]), right.T)
        np.subtract(w, lr * step[:w.shape[0]], out=ow)
        if b is not None:
            np.subtract(b, lr * step[-1], out=ob)
    return out


def random_spd(rng, n):
    m = rng.standard_normal((n, n + 2))
    return m @ m.T / (n + 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.data(),
       st.sampled_from([0.0, 1e-3, 1e12]), st.integers(0, 2**32 - 1))
def test_kfac_update_from_factors_is_byte_identical_to_full_formula(widths, data, damping,
                                                                    seed):
    has_bias = data.draw(st.lists(st.booleans(), min_size=len(widths) - 1,
                                  max_size=len(widths) - 1))
    rng = numkit.make_rng(seed)
    shapes = list(zip(widths, widths[1:], has_bias))
    theta, g = (ParamSet.from_layers([(rng.standard_normal((m, n)),
                                       rng.standard_normal(n) if bias else None)
                                      for m, n, bias in shapes]) for _ in range(2))
    blocks = [(random_spd(rng, m + bias), random_spd(rng, n)) for m, n, bias in shapes]
    expect = kfac_update_reference(theta, g, blocks, damping, lr=0.3)
    flat, g_before = theta.flat, g.to_flat()
    delta = baseopt.kfac_direction(g, baseopt.kfac_factors(blocks, damping))
    assert not np.shares_memory(delta, g.flat)
    baseopt.apply_lr_update(theta, 0.3, delta, theta)
    assert theta.flat is flat and np.array_equal(theta.flat, expect.flat)
    assert np.array_equal(g.flat, g_before)


def test_kfac_factors_non_spd_reports_pivot():
    blocks = [(np.diag([1.0, 0.0, 2.0]), np.eye(2))]
    with pytest.raises(NumericalError, match="^kfac block factorization failed") as err:
        baseopt.kfac_factors(blocks, 0.0)
    assert err.value.pivot == 2


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(2, 6), st.sampled_from([0.5, 5.0, 1e3]),
       st.integers(0, 2**32 - 1))
def test_sampled_classification_targets_match_per_row_search(rows, classes, spread, seed):
    """One vectorized draw gives the per-row searchsorted(cumsum(row), u)
    indices (clamped to the last class), saturated softmax rows (spread 1e3)
    included, and leaves the rng where the per-row search would."""
    outputs = spread * numkit.make_rng(seed + 1).standard_normal((rows, classes))
    rng, ref_rng = numkit.make_rng(seed), numkit.make_rng(seed)
    got = baseopt._sample_targets("classification-softmax", outputs, rng)
    p = softmax(outputs)
    u = ref_rng.random(rows)
    expect = np.array([min(np.searchsorted(np.cumsum(row), uu), classes - 1)
                       for row, uu in zip(p, u)])
    assert got.dtype == expect.dtype and np.array_equal(got, expect)
    assert rng.random() == ref_rng.random()


def test_sampled_classification_target_clamped_to_last_class():
    """A softmax row whose running total rounds to below 1, with a draw
    above that total, gets the last class instead of one past it."""
    outputs = 3.0 * numkit.make_rng(12).standard_normal((1, 10))
    assert np.cumsum(softmax(outputs))[-1] < 1.0
    top = SimpleNamespace(random=lambda n: np.full(n, np.nextafter(1.0, 0.0)))
    targets = baseopt._sample_targets("classification-softmax", outputs, top)
    assert targets.tolist() == [9]
    seed = baseopt._nll_seed("classification-softmax", outputs, targets)
    assert seed[0, 9] < 0.0 and np.all(seed[0, :9] > 0.0)


@pytest.mark.parametrize("oracle,forwards", [
    (lambda m, th, x: diffnet.per_example_jacobian(m, th, x), 1),
    (lambda m, th, x: oracles.fsd_hessian_exact(m, th, x), 2),
    (lambda m, th, x: oracles.kfac_blocks(m, th, x), 1),
])
def test_exact_oracles_sweep_pass_counts(monkeypatch, oracle, forwards):
    """Each exact oracle makes at most `forwards` forwards on the whole
    batch and one backward per output unit, whatever the batch size."""
    counts = {"forward": 0, "backward": 0}
    for name in counts:
        original = getattr(diffnet, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (diffnet, oracles):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    rng = numkit.make_rng(23)
    model = mlp([4, 5, 3], activation="sigmoid", head="classification-softmax")
    oracle(model, init_params(model, rng), rng.standard_normal((6, 4)))
    assert counts["forward"] <= forwards
    assert counts["backward"] == model.d_out


def test_exact_oracles_equal_per_example_sums():
    """The one-contraction oracles against per-example sums: G is
    mean_b J_b^T H_b J_b, and exact KFAC's B_l is the same sandwich of
    d y / d s_l, here from one backward per example and output."""
    rng = numkit.make_rng(24)
    model = Model((LayerSpec(3, 4, "relu"), LayerSpec(4, 3, "sigmoid", False)),
                  "classification-softmax")
    theta = init_params(model, rng)
    inputs = rng.standard_normal((5, 3))
    outputs, _ = forward(model, theta, inputs)
    hessians = DIVERGENCES["kl-categorical"].hessian(outputs)
    jac = diffnet.per_example_jacobian(model, theta, inputs)
    g = sum(jac[b].T @ hessians[b] @ jac[b] for b in range(5)) / 5
    assert rel_err(oracles.fsd_hessian_exact(model, theta, inputs), g) < 1e-12
    b_blocks = [np.zeros((4, 4)), np.zeros((3, 3))]
    for b in range(5):
        _, trace = forward(model, theta, inputs[b:b + 1])
        per_out = [diffnet.backward(model, theta, trace, np.eye(3)[j:j + 1])[1]
                   for j in range(3)]
        for l, acc in enumerate(b_blocks):
            m_b = np.vstack([ds[l] for ds in per_out])
            acc += m_b.T @ hessians[b] @ m_b / 5
    blocks = oracles.kfac_blocks(model, theta, inputs)
    for (_, got), expect in zip(blocks, b_blocks):
        assert rel_err(got, expect) < 1e-12


def test_kfac_blocks_empty_dataset_rejected():
    model = mlp([2, 2])
    theta = init_params(model, numkit.make_rng(0))
    with pytest.raises(ContractError):
        oracles.kfac_blocks(model, theta, np.zeros((0, 2)))


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
    from apobench.diffnet import per_example_jacobian
    jac = per_example_jacobian(model, theta, inputs)
    probs = softmax(outputs)

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


@pytest.mark.parametrize("oracle", ["per_example_jacobian", "fsd_hessian_exact",
                                    "loss_hessian_fd", "exact_ppm_solve", "dense_precond"])
def test_dense_oracles_refuse_one_parameter_past_the_limit(monkeypatch, oracle):
    """numkit.ORACLE_MAX_PARAMS is each dense oracle's one limit, checked at
    entry: the exact proximal point refuses before its first objective."""
    n = numkit.ORACLE_MAX_PARAMS + 1
    model = Model((LayerSpec(n, 1, "linear", has_bias=False),),
                  "regression-gaussian-unit-variance")
    theta = init_params(model, numkit.make_rng(0))
    batch = Batch(np.ones((2, n)), np.ones((2, 1)))
    monkeypatch.setattr(oracles, "proximal_value_and_grad", None)
    calls = {
        "per_example_jacobian": lambda: diffnet.per_example_jacobian(model, theta, batch.inputs),
        "fsd_hessian_exact": lambda: oracles.fsd_hessian_exact(model, theta, batch.inputs),
        "loss_hessian_fd": lambda: oracles.loss_hessian_fd(model, theta, batch),
        "exact_ppm_solve": lambda: oracles.exact_ppm_solve(model, theta, batch, 1.0, 1.0,
                                                           batch.inputs),
        # a 23 x 87 layer: 2,001 weights
        "dense_precond": lambda: dense_precond(KronBlocks(np.eye(87), np.eye(23),
                                                          np.ones((23, 87)))),
    }
    with pytest.raises(OracleScaleError, match=f"limited to {n - 1} parameters, got {n}"):
        calls[oracle]()
