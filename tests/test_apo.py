import math

import numpy as np
import pytest

from apobench import numkit
from apobench import apo
from apobench.apo import (DIVERGENCES, KfacSettings, LrPhi, ProximalConfig, apo_train,
                          default_lr_config, default_precond_config,
                          init_meta_state, meta_gradient, meta_objective, meta_step,
                          proximal_value_and_grad, wsd)
from apobench.baseopt import BaseOptKind, init_state
from apobench.diffnet import Batch, LayerSpec, Model, ParamSet, init_params, mlp
from apobench.errors import ContractError, NumericalError, TrainingDivergedError
from apobench.kronprecond import KronBlocks, PrecondPhi, init_identity
from apobench import tasks

from helpers import fd_scalar_fn, fsd_value, rel_err


def quadratic_setup():
    """Single free weight with J(theta) = 0.5 theta^2 exactly (x = 1/sqrt 2,
    target 0, squared-error head)."""
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    batch = Batch(np.array([[1.0 / np.sqrt(2.0)]]), np.array([[0.0]]))
    return model, theta, batch


def zero_lam_cfg(**kw):
    base = dict(lam_fsd=0.0, lam_wsd=0.0, meta_opt=BaseOptKind("sgd"), meta_lr=0.1)
    base.update(kw)
    return ProximalConfig(**base)


# ---------------------------------------------------------------- wsd / fsd


def test_wsd_zero_at_same_point():
    theta = ParamSet.from_layers([(np.ones((2, 2)), np.ones(2))])
    assert wsd(theta, theta.copy()) == 0.0


def test_wsd_hand_value():
    a = ParamSet.from_layers([(np.array([[3.0, 4.0]]), None)])
    b = ParamSet.from_layers([(np.zeros((1, 2)), None)])
    assert wsd(a, b) == pytest.approx(12.5)


def test_wsd_quadratic_homogeneity():
    rng = numkit.make_rng(0)
    base = ParamSet.from_layers([(rng.standard_normal((3, 2)), rng.standard_normal(2))])
    diff = base.map(lambda x: rng.standard_normal(x.shape))
    for t in (0.5, 2.0, 7.0):
        a = base.map2(diff, lambda p, d: p + t * d)
        assert wsd(a, base) == pytest.approx(t * t * wsd(base.map2(diff, lambda p, d: p + d), base))


def test_fsd_zero_when_params_equal():
    rng = numkit.make_rng(1)
    model = mlp([2, 3, 2], activation="sigmoid", head="classification-softmax")
    theta = init_params(model, rng)
    x = rng.standard_normal((4, 2))
    for kind in ("kl-categorical", "kl-gaussian-unit-variance", "squared-output-distance"):
        assert fsd_value(model, theta, theta.copy(), x, kind) == 0.0


def test_fsd_categorical_hand_value():
    # old logits [0, 0], new logits [ln 2, 0]:
    # KL(uniform || [2/3, 1/3]) = 0.5 ln(9/8)
    model = Model((LayerSpec(1, 2, "linear", False),), "classification-softmax")
    theta_old = ParamSet.from_layers([(np.zeros((1, 2)), None)])
    theta_new = ParamSet.from_layers([(np.array([[np.log(2.0), 0.0]]), None)])
    x = np.array([[1.0]])
    value = fsd_value(model, theta_new, theta_old, x, "kl-categorical")
    assert value == pytest.approx(0.5 * np.log(9.0 / 8.0), rel=1e-12)


def test_fsd_gaussian_kl_hand_value():
    model = Model((LayerSpec(1, 2, "linear", False),), "regression-gaussian-unit-variance")
    theta_old = ParamSet.from_layers([(np.zeros((1, 2)), None)])
    theta_new = ParamSet.from_layers([(np.ones((1, 2)), None)])
    x = np.array([[1.0], [1.0]])
    # per-example output gap [1, 1]: 0.5 * ||gap||^2 = 1
    for kind, value in (("kl-gaussian-unit-variance", 1.0), ("squared-output-distance", 2.0)):
        assert fsd_value(model, theta_new, theta_old, x, kind) == pytest.approx(value)


@pytest.mark.parametrize("kind", sorted(DIVERGENCES))
def test_divergence_table_value_grad_hessian(kind):
    div = DIVERGENCES[kind]
    rng = numkit.make_rng(21)
    y_old = rng.standard_normal((3, 4))
    y_new = y_old + 0.3 * rng.standard_normal((3, 4))
    assert np.array_equal(div.value(y_old, y_old), np.zeros(3))
    # gradient in y_new against central differences of the per-row value
    grad = div.grad(y_new, y_old)
    for r in range(3):
        fd = fd_scalar_fn(lambda v: div.value(v[None, :], y_old[r:r + 1])[0],
                          y_new[r], h=1e-6)
        assert rel_err(grad[r], fd) < 1e-7
    # Hessian at zero displacement against central differences of the gradient
    h = 1e-6
    for r in range(3):
        y = y_old[r]
        fd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = (div.grad((y + e)[None, :], y[None, :])[0]
                        - div.grad((y - e)[None, :], y[None, :])[0]) / (2 * h)
        assert rel_err(div.hessian(y), fd) < 1e-7


# ------------------------------------------------------------ meta-objective


def test_meta_objective_null_step_equals_current_loss():
    rng = numkit.make_rng(2)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    phi = init_identity(model)
    for blk in phi.blocks:
        blk.s[:] = 0.0
    for d in phi.bias_diags:
        if d is not None:
            d[:] = 0.0
    cfg = ProximalConfig(lam_fsd=0.3, lam_wsd=0.5)
    from apobench.apo import loss_and_grad
    expected, _ = loss_and_grad(model, theta, batch)
    q = meta_objective(model, theta, phi, None, batch, batch, cfg)
    assert q == pytest.approx(expected, rel=0, abs=0)


def test_meta_objective_degenerate_config_is_post_step_loss():
    rng = numkit.make_rng(3)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    cfg = zero_lam_cfg()
    phi = LrPhi(math.log(0.05))
    kind = BaseOptKind("sgd")
    from apobench.apo import lookahead, loss_and_grad
    theta_new, _, _ = lookahead(model, theta, phi, init_state(kind, theta.flat), batch, kind)
    expected, _ = loss_and_grad(model, theta_new, batch)
    q = meta_objective(model, theta, phi, init_state(kind, theta.flat), batch, batch, cfg,
                       base_kind=kind)
    assert q == pytest.approx(expected)


def test_meta_objective_quadratic_closed_form():
    model, theta, batch = quadratic_setup()
    cfg = zero_lam_cfg()
    kind = BaseOptKind("sgd")
    state = init_state(kind, theta.flat)
    for eta in (0.05, 0.1, 0.5, 1.5):
        q = meta_objective(model, theta, LrPhi(math.log(eta)), state, batch, batch,
                           cfg, base_kind=kind)
        assert q == pytest.approx(0.5 * (1.0 - eta) ** 2, rel=1e-12)


def test_meta_objective_dominates_post_step_loss():
    rng = numkit.make_rng(4)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b1 = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    b2 = Batch(rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))
    cfg = ProximalConfig(lam_fsd=0.7, lam_wsd=0.4)
    kind = BaseOptKind("sgd")
    state = init_state(kind, theta.flat)
    phi = LrPhi(math.log(0.2))
    _, q, parts = meta_gradient(model, theta, phi, state, b1, b2, cfg, base_kind=kind,
                                return_parts=True)
    assert parts["fsd"] >= 0.0 and parts["wsd"] >= 0.0
    assert q >= parts["loss"]


def test_meta_objective_fresh_loss_policy_is_expected_loss_objective():
    rng = numkit.make_rng(5)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    cfg = zero_lam_cfg(loss_batch_policy="fresh")
    kind = BaseOptKind("sgd")
    state = init_state(kind, theta.flat)
    phi = LrPhi(math.log(0.1))
    from apobench.apo import lookahead, loss_and_grad
    theta_new, _, _ = lookahead(model, theta, phi, state, b, kind)
    expected, _ = loss_and_grad(model, theta_new, bp)
    q = meta_objective(model, theta, phi, state, b, bp, cfg, base_kind=kind)
    assert q == pytest.approx(expected, rel=1e-14)


# ------------------------------------------------------------ meta-gradient


def test_meta_gradient_quadratic_hand_value():
    model, theta, batch = quadratic_setup()
    cfg = zero_lam_cfg()
    kind = BaseOptKind("sgd")
    state = init_state(kind, theta.flat)
    grad = meta_gradient(model, theta, LrPhi(math.log(0.1)), state, batch, batch,
                         cfg, base_kind=kind)
    # dQ/d eta = -(1 - eta) = -0.9; chain to log space: eta * that = -0.09
    assert grad.log_lr == pytest.approx(-0.09, rel=1e-12)


def test_meta_gradient_zero_at_stationary_point():
    rng = numkit.make_rng(6)
    model = mlp([2, 3, 2], activation="sigmoid")
    theta = init_params(model, rng)
    x = rng.standard_normal((4, 2))
    from apobench.diffnet import forward
    outputs, _ = forward(model, theta, x)
    batch = Batch(x, outputs)  # loss minimum: gradient is exactly zero
    cfg = ProximalConfig(lam_fsd=0.5, lam_wsd=0.5)
    kind = BaseOptKind("sgd")
    grad = meta_gradient(model, theta, LrPhi(math.log(0.3)), init_state(kind, theta.flat),
                         batch, batch, cfg, base_kind=kind)
    assert grad.log_lr == 0.0
    phi = init_identity(model)
    pgrad = meta_gradient(model, theta, phi, None, batch, batch, cfg)
    assert np.abs(pgrad.to_flat()).max() == 0.0


@pytest.mark.parametrize("base", ["sgd", "sgd-momentum", "rmsprop", "adam"])
@pytest.mark.parametrize("lam_fsd,lam_wsd", [(0.0, 0.0), (0.4, 0.0), (0.3, 0.7)])
def test_meta_gradient_lr_matches_fd(base, lam_fsd, lam_wsd):
    rng = numkit.make_rng(hash((base, lam_fsd, lam_wsd)) % 2**32)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=lam_wsd,
                         fsd_kind="kl-gaussian-unit-variance")
    kind = BaseOptKind(base)
    state = init_state(kind, theta.flat)
    # advance the state so momentum buffers are nontrivial
    from apobench.apo import loss_and_grad
    _, g0 = loss_and_grad(model, theta, bp)
    from apobench.baseopt import update_direction
    _, state = update_direction(kind, state, g0.flat)
    phi = LrPhi(math.log(0.07))
    grad = meta_gradient(model, theta, phi, state, b, bp, cfg, base_kind=kind)

    def q_of(vec):
        return meta_objective(model, theta, LrPhi(float(vec[0])), state, b, bp,
                              cfg, base_kind=kind)

    fd = fd_scalar_fn(q_of, np.array([phi.log_lr]), h=1e-4)
    assert rel_err(np.array([grad.log_lr]), fd) < 1e-4


@pytest.mark.parametrize("fsd_kind,classification", [
    ("kl-gaussian-unit-variance", False),
    ("squared-output-distance", False),
    ("kl-categorical", True),
])
def test_meta_gradient_precond_matches_fd(fsd_kind, classification):
    rng = numkit.make_rng(11 if classification else 12)
    head = "classification-softmax" if classification else "regression-gaussian-unit-variance"
    model = mlp([3, 2], activation="sigmoid", out_activation="linear", head=head)
    theta = init_params(model, rng)
    x = rng.standard_normal((5, 3))
    if classification:
        t = rng.integers(0, 2, size=5)
    else:
        t = rng.standard_normal((5, 1 if model.d_out == 1 else model.d_out))
        t = rng.standard_normal((5, model.d_out))
    b = Batch(x, t)
    bp = Batch(rng.standard_normal((4, 3)), t[:4])
    cfg = ProximalConfig(lam_fsd=0.4, lam_wsd=0.6, fsd_kind=fsd_kind)
    phi = init_identity(model, scale=0.9)
    # randomize the blocks so the test point is generic
    flat0 = phi.to_flat() + 0.3 * rng.standard_normal(phi.to_flat().size)
    phi = phi.from_flat(flat0)
    grad = meta_gradient(model, theta, phi, None, b, bp, cfg)

    def q_of(vec):
        return meta_objective(model, theta, phi.from_flat(vec), None, b, bp, cfg)

    fd = fd_scalar_fn(q_of, flat0, h=1e-4)
    assert rel_err(grad.to_flat(), fd) < 1e-4

    # the proximal pass underneath, at a generic u: dQ/du against FD
    u = theta.from_flat(theta.to_flat() + 0.2 * rng.standard_normal(theta.size))

    def prox(params):
        return proximal_value_and_grad(model, params, theta, b, bp.inputs,
                                       cfg.lam_fsd, cfg.lam_wsd, fsd_kind)

    q, parts, qgrad = prox(u)
    assert parts["fsd"] == fsd_value(model, u, theta, bp.inputs, fsd_kind) > 0.0
    assert parts["wsd"] == wsd(u, theta) > 0.0
    assert q == parts["loss"] + cfg.lam_fsd * parts["fsd"] + cfg.lam_wsd * parts["wsd"]
    fd = fd_scalar_fn(lambda v: prox(theta.from_flat(v))[0], u.to_flat(), h=1e-5)
    assert rel_err(qgrad.to_flat(), fd) < 1e-6


def test_meta_gradient_fd_sweep_random_instances():
    """20 random instances mixing LR mode and a 1-layer 3x2 preconditioner."""
    for seed in range(20):
        rng = numkit.make_rng(1000 + seed)
        model = mlp([3, 2], activation="sigmoid", out_activation="linear")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.2 + 0.5 * rng.random(),
                             lam_wsd=0.2 + 0.5 * rng.random())
        phi = init_identity(model)
        flat0 = phi.to_flat() + 0.25 * rng.standard_normal(phi.to_flat().size)
        phi = phi.from_flat(flat0)
        grad = meta_gradient(model, theta, phi, None, b, bp, cfg)
        fd = fd_scalar_fn(
            lambda v: meta_objective(model, theta, phi.from_flat(v), None, b, bp, cfg),
            flat0, h=1e-4)
        assert rel_err(grad.to_flat(), fd) < 1e-4, f"seed {seed}"


@pytest.mark.parametrize("head,kind", [("classification-softmax", "kl-categorical"),
                                       ("regression-gaussian-unit-variance",
                                        "kl-gaussian-unit-variance")])
def test_meta_objective_none_fsd_kind_is_head_divergence(head, kind):
    rng = numkit.make_rng(17)
    model = mlp([3, 4, 3], activation="sigmoid", head=head)
    theta = init_params(model, rng)
    targets = rng.integers(0, 3, size=5) if kind == "kl-categorical" else \
        rng.standard_normal((5, 3))
    b = Batch(rng.standard_normal((5, 3)), targets)
    bp = Batch(rng.standard_normal((4, 3)), targets[:4])
    base = BaseOptKind("sgd")
    state = init_state(base, theta.flat)
    phi = LrPhi(math.log(0.3))

    def q(fsd_kind):
        cfg = ProximalConfig(lam_fsd=0.8, lam_wsd=0.2, fsd_kind=fsd_kind)
        return meta_objective(model, theta, phi, state, b, bp, cfg, base_kind=base)

    assert ProximalConfig().fsd_kind is None
    assert q(None) == q(kind)
    others = [other for other in DIVERGENCES if other != kind]
    assert all(q(other) != q(None) for other in others)


def _count_passes(monkeypatch):
    counts = {"forward": 0, "backward": 0}
    for name in counts:
        original = getattr(apo, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(apo, name, counted)
    return counts


@pytest.mark.parametrize("lam_fsd,forwards,backwards", [(0.5, 3, 2), (0.0, 1, 1)])
def test_meta_gradient_op_counts(monkeypatch, lam_fsd, forwards, backwards):
    """One meta step as apo_train makes it (g and delta given, fresh B')."""
    from apobench.apo import loss_and_grad
    from apobench.baseopt import update_direction
    rng = numkit.make_rng(41)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=0.3, fsd_batch_policy="fresh")
    kind = BaseOptKind("sgd-momentum")
    state = init_state(kind, theta.flat)
    _, g = loss_and_grad(model, theta, b)
    delta, _ = update_direction(kind, state, g.flat)
    for phi, d in ((LrPhi(math.log(0.1)), delta), (init_identity(model), None)):
        counts = _count_passes(monkeypatch)
        meta_gradient(model, theta, phi, state, b, bp, cfg, base_kind=kind,
                      g=g, delta=d, return_parts=True)
        assert counts == {"forward": forwards, "backward": backwards}
        monkeypatch.undo()


# ---------------------------------------------------------------- meta-step


def test_meta_step_zero_gradient_keeps_phi():
    cfg = zero_lam_cfg()
    phi = LrPhi(math.log(0.1))
    state = init_meta_state(cfg, phi)
    phi2, _ = meta_step(phi, state, LrPhi(0.0), cfg)
    assert phi2.log_lr == phi.log_lr


def test_meta_step_sgd_hand_value():
    cfg = zero_lam_cfg()  # plain-SGD meta-optimizer, meta_lr 0.1
    phi = LrPhi(math.log(0.1))
    state = init_meta_state(cfg, phi)
    phi2, state2 = meta_step(phi, state, LrPhi(-0.09), cfg)
    assert phi2.log_lr == pytest.approx(math.log(0.1) + 0.009)
    assert state2.iteration == 1


def test_meta_step_lr_stays_positive():
    cfg = zero_lam_cfg(meta_lr=5.0)
    phi = LrPhi(math.log(0.1))
    state = init_meta_state(cfg, phi)
    for _ in range(50):
        phi, state = meta_step(phi, state, LrPhi(1.0), cfg)
    assert phi.lr > 0.0


def test_meta_step_precond_moves_blocks():
    model = mlp([2, 2])
    phi = init_identity(model)
    cfg = default_precond_config(meta_lr=0.01)
    state = init_meta_state(cfg, phi)
    grad = phi.from_flat(np.ones(phi.to_flat().size))
    phi2, _ = meta_step(phi, state, grad, cfg)
    assert not np.array_equal(phi2.to_flat(), phi.to_flat())
    assert phi2.scale == phi.scale  # the application scale is never learned


# ---------------------------------------------------------------- apo_train


def test_apo_train_no_meta_updates_matches_plain_run():
    task = tasks.synth_regression_task(n=64, d=3, seed=0, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    kind = BaseOptKind("sgd-momentum")
    cfg = default_lr_config(meta_interval=10_000, lam_fsd=0.1)
    res_apo = apo_train(task.model, theta0, cfg, task, 40, numkit.make_rng(2),
                        mode="apo-lr", base_kind=kind, init_lr=0.05)
    res_plain = apo_train(task.model, theta0, cfg, task, 40, numkit.make_rng(2),
                          mode="none", base_kind=kind, init_lr=0.05)
    for a, b in zip(res_apo.rows, res_plain.rows):
        assert a.train_loss == b.train_loss
        assert a.lr_or_phi_norm == b.lr_or_phi_norm
        assert a.lr_or_phi_norm == pytest.approx(0.05)
    assert np.array_equal(res_apo.theta.flat, res_plain.theta.flat)


def test_apo_train_deterministic_given_seed():
    task = tasks.synth_classification_task(n=64, d=4, seed=3, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = default_lr_config(lam_fsd=0.03, meta_interval=5)
    runs = []
    for _ in range(2):
        res = apo_train(task.model, theta0, cfg, task, 60, numkit.make_rng(7),
                        mode="apo-lr", base_kind=BaseOptKind("sgd-momentum"),
                        init_lr=0.1)
        runs.append(res)
    for a, b in zip(runs[0].rows, runs[1].rows):
        assert a == b
    assert runs[0].theta.to_flat().tobytes() == runs[1].theta.to_flat().tobytes()


def test_apo_train_lr_positive_throughout():
    task = tasks.synth_regression_task(n=64, d=3, seed=5, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    cfg = default_lr_config(lam_wsd=0.1, meta_interval=2)
    res = apo_train(task.model, theta0, cfg, task, 50, numkit.make_rng(3),
                    mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.05)
    assert all(r.lr_or_phi_norm > 0 for r in res.rows)


def test_apo_train_divergence_guard():
    task = tasks.rosenbrock_task()
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = default_lr_config()
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(task.model, theta0, cfg, task, 200, numkit.make_rng(0),
                  mode="none", base_kind=BaseOptKind("sgd"), init_lr=0.1)
    assert err.value.step >= 1


def test_apo_train_warmup_uses_sgdm_but_meta_learns():
    task = tasks.synth_regression_task(n=64, d=3, seed=9, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(4))
    cfg = default_precond_config(lam_wsd=1.0, meta_interval=1, meta_lr=0.01,
                                 warmup_steps=5, warmup_lr=0.05)
    res = apo_train(task.model, theta0, cfg, task, 5, numkit.make_rng(5),
                    mode="apo-precond", base_kind=BaseOptKind("sgd-momentum"))
    # phi moved away from the identity during warm-up
    ident = init_identity(task.model)
    assert not np.array_equal(res.phi.to_flat(), ident.to_flat())
    # parameters moved by plain SGDm: first step is -warmup_lr * g
    batch = task.sample_batch(numkit.make_rng(5))
    from apobench.apo import loss_and_grad
    _, g = loss_and_grad(task.model, theta0, batch)
    one = apo_train(task.model, theta0, cfg, task, 1, numkit.make_rng(5),
                    mode="apo-precond", base_kind=BaseOptKind("sgd-momentum"))
    expect = theta0.map2(g, lambda t, gg: t - cfg.warmup_lr * gg)
    assert np.allclose(one.theta.to_flat(), expect.to_flat(), atol=0, rtol=0)


def test_apo_train_meta_fires_on_interval():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    cfg = default_lr_config(meta_interval=10)
    res = apo_train(task.model, theta0, cfg, task, 25, numkit.make_rng(2),
                    mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.01)
    # no meta values before step 10, present afterwards
    assert res.rows[8].meta_objective is None
    assert res.rows[9].meta_objective is not None
    lrs = [r.lr_or_phi_norm for r in res.rows]
    assert lrs[0] == lrs[8] == pytest.approx(0.01)
    assert lrs[9] != lrs[8]


def test_apo_train_kfac_needs_mode_none():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError):
        apo_train(task.model, theta0, default_lr_config(), task, 5, numkit.make_rng(2),
                  mode="apo-lr", base_kind=BaseOptKind("kfac"))


def test_apo_train_kfac_logs_exact_lr_and_applies_weight_decay():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))

    def train(**kind):
        return apo_train(task.model, theta0, default_lr_config(), task, 12,
                         numkit.make_rng(2), mode="none",
                         base_kind=BaseOptKind("kfac", **kind),
                         kfac=KfacSettings(damping=1e-2, update_every=2, ema_decay=0.9))

    plain, decayed = train(), train(weight_decay=0.1)
    assert [r.lr_or_phi_norm for r in plain.rows] == [0.01] * 12
    assert plain.phi is None
    assert not np.array_equal(plain.theta.flat, decayed.theta.flat)


def test_phi_vjp_matches_fd_of_update():
    """Each phi type's vjp is the gradient of <v, phi.update(theta, g, delta)>."""
    rng = numkit.make_rng(21)
    model = mlp([3, 4, 2], activation="sigmoid", out_activation="linear")
    theta = init_params(model, rng)
    g, v = (theta.map(lambda a: rng.standard_normal(a.shape)) for _ in range(2))
    delta = rng.standard_normal(theta.size)
    precond = init_identity(model, scale=0.7)
    precond = precond.from_flat(precond.to_flat() + 0.3 * rng.standard_normal(precond.size))
    for phi in (LrPhi(math.log(0.2)), precond):
        def inner(vec):
            return v.dot(phi.from_flat(vec).update(theta, g, delta).flat)

        fd = fd_scalar_fn(inner, phi.to_flat(), h=1e-5)
        assert rel_err(phi.vjp(g, v, delta).to_flat(), fd) < 1e-7


def test_lr_update_needs_base_direction():
    model, theta, batch = quadratic_setup()
    with pytest.raises(ContractError):
        apo.lookahead(model, theta, LrPhi(0.0), None, batch)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(Exception):
        ProximalConfig(lam_fsd=-1.0)
    with pytest.raises(Exception):
        ProximalConfig(meta_interval=0)
    with pytest.raises(Exception):
        ProximalConfig(loss_batch_policy="other")


def test_meta_objective_nonfinite_term_raises():
    model, theta, batch = quadratic_setup()
    cfg = zero_lam_cfg()
    kind = BaseOptKind("sgd")
    state = init_state(kind, theta.flat)
    huge = LrPhi(820.0)  # exp overflows to inf
    with pytest.raises((NumericalError, FloatingPointError, OverflowError)):
        meta_objective(model, theta, huge, state, batch, batch, cfg, base_kind=kind)


def test_lr_overflow_is_numerical_error():
    assert LrPhi(700.0).lr == math.exp(700.0)
    with pytest.raises(NumericalError):
        LrPhi(710.0).lr
