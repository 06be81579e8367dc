import math
import os
import sys
import zlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import apo, baseopt, diffnet, numkit
from apobench.apo import (DIVERGENCES, LrPhi, ProximalConfig, apo_train, default_precond_config,
                          loss_and_grad, meta_gradient, meta_step, proximal_value_and_grad)
from apobench.baseopt import KINDS, BaseOptKind, init_state, update_direction
from apobench.diffnet import Batch, LayerSpec, Model, ParamSet, init_params, mlp
from apobench.errors import (ContractError, DimensionError, NumericalError,
                             TrainingDivergedError)
from apobench.kronprecond import DEFAULT_SCALE, init_identity
from apobench import tasks
from apobench.harness import config, runner

from helpers import fd_scalar_fn, fsd_value, rel_err, wsd


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


def test_head_tables_cover_every_head():
    """Every head has a divergence and a loss curvature, so neither
    divergence() nor exact_ppm_solve guards its table lookup."""
    assert set(apo.HEAD_DIVERGENCE) == set(apo.HEAD_LOSS_CURVATURE) == set(diffnet.HEADS)


@pytest.mark.parametrize("kind", sorted(DIVERGENCES))
def test_divergence_table_value_grad_hessian(kind):
    div = DIVERGENCES[kind]
    rng = numkit.make_rng(21)
    y_old = rng.standard_normal((3, 4))
    y_new = y_old + 0.3 * rng.standard_normal((3, 4))
    assert np.array_equal(div.value_and_grad(y_old, y_old)[0], np.zeros(3))
    # gradient in y_new against central differences of the per-row value
    grad = div.value_and_grad(y_new, y_old)[1]
    for r in range(3):
        fd = fd_scalar_fn(lambda v: div.value_and_grad(v[None, :], y_old[r:r + 1])[0][0],
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
            fd[:, j] = (div.value_and_grad((y + e)[None, :], y[None, :])[1][0]
                        - div.value_and_grad((y - e)[None, :], y[None, :])[1][0]) / (2 * h)
        assert rel_err(div.hessian(y[None])[0], fd) < 1e-7


def _separate_divergence_passes(kind, y_new, y_old):
    """A divergence's per-row value and its gradient in y_new by the
    formulas that computed them apart, each softmax from scratch."""
    def log_softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    if kind == "kl-categorical":
        lp, lq = log_softmax(y_old), log_softmax(y_new)
        return np.sum(np.exp(lp) * (lp - lq), axis=1), softmax(y_new) - softmax(y_old)
    if kind == "kl-gaussian-unit-variance":
        return 0.5 * np.sum((y_new - y_old) ** 2, axis=1), y_new - y_old
    return np.sum((y_new - y_old) ** 2, axis=1), 2.0 * (y_new - y_old)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DIVERGENCES)), st.integers(1, 40), st.integers(1, 12),
       st.floats(1e-3, 1e3), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_divergence_value_and_grad_is_bitwise_the_separate_passes(kind, b, d, spread, step,
                                                                   seed):
    rng = numkit.make_rng(seed)
    y_old = spread * rng.standard_normal((b, d))
    y_new = y_old + step * spread * rng.standard_normal((b, d))
    rho, grad = DIVERGENCES[kind].value_and_grad(y_new, y_old)
    expect_rho, expect_grad = _separate_divergence_passes(kind, y_new, y_old)
    assert np.array_equal(rho, expect_rho)
    assert np.array_equal(grad, expect_grad)


# ------------------------------------------------------------ meta-objective


def sgd_delta(model, theta, batch):
    """The plain-SGD base direction on batch: its loss gradient's flat vector."""
    return loss_and_grad(model, theta, batch)[1].flat


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
    expected, _ = loss_and_grad(model, theta, batch)
    q = meta_gradient(model, theta, phi, batch, batch, cfg)[1]
    assert q == pytest.approx(expected, rel=0, abs=0)


def test_meta_objective_degenerate_config_is_post_step_loss():
    rng = numkit.make_rng(3)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    cfg = zero_lam_cfg()
    phi = LrPhi(math.log(0.05))
    _, g = loss_and_grad(model, theta, batch)
    expected, _ = loss_and_grad(model, phi.update(theta, g, g.flat), batch)
    q = meta_gradient(model, theta, phi, batch, batch, cfg, delta=g.flat)[1]
    assert q == pytest.approx(expected)


def test_meta_objective_quadratic_closed_form():
    model, theta, batch = quadratic_setup()
    cfg = zero_lam_cfg()
    delta = sgd_delta(model, theta, batch)
    for eta in (0.05, 0.1, 0.5, 1.5):
        q = meta_gradient(model, theta, LrPhi(math.log(eta)), batch, batch, cfg,
                          delta=delta)[1]
        assert q == pytest.approx(0.5 * (1.0 - eta) ** 2, rel=1e-12)


def test_meta_objective_dominates_post_step_loss():
    rng = numkit.make_rng(4)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b1 = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    b2 = Batch(rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))
    cfg = ProximalConfig(lam_fsd=0.7, lam_wsd=0.4)
    phi = LrPhi(math.log(0.2))
    _, q, parts = meta_gradient(model, theta, phi, b1, b2, cfg,
                                delta=sgd_delta(model, theta, b1))
    assert parts["fsd"] >= 0.0 and parts["wsd"] >= 0.0
    assert q >= parts["loss"]


def test_meta_objective_fresh_loss_policy_is_expected_loss_objective():
    rng = numkit.make_rng(5)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    cfg = zero_lam_cfg(loss_batch_policy="fresh")
    phi = LrPhi(math.log(0.1))
    _, g = loss_and_grad(model, theta, b)
    expected, _ = loss_and_grad(model, phi.update(theta, g, g.flat), bp)
    q = meta_gradient(model, theta, phi, b, bp, cfg, delta=g.flat)[1]
    assert q == pytest.approx(expected, rel=1e-14)


# ------------------------------------------------------------ meta-gradient


def test_meta_gradient_quadratic_hand_value():
    model, theta, batch = quadratic_setup()
    grad = meta_gradient(model, theta, LrPhi(math.log(0.1)), batch, batch, zero_lam_cfg(),
                         delta=sgd_delta(model, theta, batch))[0]
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
    grad = meta_gradient(model, theta, LrPhi(math.log(0.3)), batch, batch, cfg,
                         delta=sgd_delta(model, theta, batch))[0]
    assert grad.log_lr == 0.0
    pgrad = meta_gradient(model, theta, init_identity(model), batch, batch, cfg)[0]
    assert np.abs(pgrad.flat).max() == 0.0


def assert_meta_gradient_matches_fd(model, theta, phi, b, bp, cfg, delta=None):
    """dQ/dphi from meta_gradient against central differences of Q over
    phi's flat vector; the same check for either phi type."""
    grad = meta_gradient(model, theta, phi, b, bp, cfg, delta=delta)[0]
    fd = fd_scalar_fn(lambda v: meta_gradient(model, theta, phi.from_flat(v), b, bp, cfg,
                                              delta=delta)[1], phi.flat, h=1e-4)
    assert type(grad) is type(phi)
    assert rel_err(grad.flat, fd) < 1e-4


@pytest.mark.parametrize("base", ["sgd", "sgd-momentum", "rmsprop", "adam"])
@pytest.mark.parametrize("lam_fsd,lam_wsd", [(0.0, 0.0), (0.4, 0.0), (0.3, 0.7)])
def test_meta_gradient_lr_matches_fd(base, lam_fsd, lam_wsd):
    rng = numkit.make_rng(zlib.crc32(f"{base}/{lam_fsd}/{lam_wsd}".encode()))
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=lam_wsd,
                         fsd_kind="kl-gaussian-unit-variance")
    kind = BaseOptKind(base)
    # advance the state so momentum buffers are nontrivial
    state = init_state(kind, theta.flat)
    update_direction(kind, state, loss_and_grad(model, theta, bp)[1].flat)
    delta = update_direction(kind, state, loss_and_grad(model, theta, b)[1].flat)
    assert_meta_gradient_matches_fd(model, theta, LrPhi(math.log(0.07)), b, bp, cfg, delta)


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
        t = rng.standard_normal((5, model.d_out))
    b = Batch(x, t)
    bp = Batch(rng.standard_normal((4, 3)), t[:4])
    cfg = ProximalConfig(lam_fsd=0.4, lam_wsd=0.6, fsd_kind=fsd_kind)
    # randomize the blocks so the test point is generic
    phi = init_identity(model, scale=0.9).map(lambda f: f + 0.3 * rng.standard_normal(f.size))
    assert_meta_gradient_matches_fd(model, theta, phi, b, bp, cfg)

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
    """20 random instances of a 1-layer 3x2 preconditioner."""
    for seed in range(20):
        rng = numkit.make_rng(1000 + seed)
        model = mlp([3, 2], activation="sigmoid", out_activation="linear")
        theta = init_params(model, rng)
        b = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        cfg = ProximalConfig(lam_fsd=0.2 + 0.5 * rng.random(),
                             lam_wsd=0.2 + 0.5 * rng.random())
        phi = init_identity(model).map(lambda f: f + 0.25 * rng.standard_normal(f.size))
        assert_meta_gradient_matches_fd(model, theta, phi, b, bp, cfg)


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
    phi = LrPhi(math.log(0.3))
    delta = sgd_delta(model, theta, b)

    def q(fsd_kind):
        cfg = ProximalConfig(lam_fsd=0.8, lam_wsd=0.2, fsd_kind=fsd_kind)
        return meta_gradient(model, theta, phi, b, bp, cfg, delta=delta)[1]

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
    rng = numkit.make_rng(41)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=0.3, fsd_batch_policy="fresh")
    kind = BaseOptKind("sgd-momentum")
    _, g = loss_and_grad(model, theta, b)
    delta = update_direction(kind, init_state(kind, theta.flat), g.flat)
    for phi, d in ((LrPhi(math.log(0.1)), delta), (init_identity(model), None)):
        counts = _count_passes(monkeypatch)
        meta_gradient(model, theta, phi, b, bp, cfg, g=g, delta=d)
        assert counts == {"forward": forwards, "backward": backwards}
        monkeypatch.undo()


# The ParamSet operations bench/tracer.PARAMSET_OPS counts (a copy's own
# map counts too).
PARAMSET_OPS = ("map", "map2", "copy", "dot", "sq_norm", "to_flat", "from_flat")


def _count_paramset_ops(monkeypatch):
    counts = Counter()
    for name in PARAMSET_OPS:
        original = vars(ParamSet)[name]

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ParamSet, name, counted)
    return counts


# ParamSet operations per SGDm warm-up step, per training step after it
# (backward's gradient set; for a preconditioner also the logged norm; each
# step writes theta in place) and per meta step (the lookahead's and the two
# backwards' sets, the norm of the flat wsd difference, and the phi VJP).  A
# run adds theta0.copy().
PARAMSET_COUNTS = {
    "apo-lr": ({}, {"map": 1}, {"map": 2, "sq_norm": 1, "dot": 1}),
    "apo-precond": ({"map": 1, "sq_norm": 1}, {"map": 1, "sq_norm": 1},
                    {"map": 4, "sq_norm": 1}),
}


@pytest.mark.parametrize("mode,meta_interval", [("apo-lr", 10), ("apo-precond", 1)])
def test_training_pass_counts(monkeypatch, mode, meta_interval):
    """apo_train makes 1 forward and 1 backward per training step, and 3
    forwards and 2 backwards more per meta step (fsd and wsd on), in the
    preconditioner's SGDm warm-up and after it; its ParamSet operations
    follow PARAMSET_COUNTS exactly."""
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    warmup = 0 if mode == "apo-lr" else 5
    if mode == "apo-lr":
        cfg = ProximalConfig(lam_fsd=1.0, lam_wsd=0.1, meta_interval=meta_interval)
    else:
        cfg = default_precond_config(lam_fsd=1.0, lam_wsd=0.1, meta_interval=meta_interval,
                                     warmup_steps=warmup)
    steps = 20
    counts = _count_passes(monkeypatch)
    ops = _count_paramset_ops(monkeypatch)
    apo_train(task.model, theta0, cfg, task, steps, numkit.make_rng(2), mode=mode,
              base_kind=BaseOptKind("sgd-momentum" if mode == "apo-lr" else "sgd"))
    meta_steps = steps // meta_interval
    assert counts == {"forward": steps + 3 * meta_steps, "backward": steps + 2 * meta_steps}
    expect = Counter({"copy": 1, "map": 1})
    for times, per in zip((warmup, steps - warmup, meta_steps), PARAMSET_COUNTS[mode]):
        for op, n in per.items():
            expect[op] += times * n
    assert ops == expect


# Calls of named apobench functions and methods in a 20-step apo_train on
# synth-classification with Adam (apo-precond: sgd, 5 SGDm warm-up steps), fsd
# and wsd on as in the bench.  Lambdas, comprehensions and generator
# expressions are left out, so neither the numpy nor the Python version
# moves the count.  The step repeats none of the checks that the task build
# and apo_train's entry make (batch coercion, label range, layout, input
# shape, Kronecker block shapes); one that creeps back moves these counts.
CALL_COUNTS = {"none": 409, "apo-lr": 527, "apo-precond": 1681}


@pytest.mark.parametrize("mode", list(CALL_COUNTS))
def test_training_call_counts(mode):
    task = tasks.synth_classification_task()
    theta0 = task.init_theta(numkit.make_rng(1))
    if mode == "apo-precond":
        cfg = default_precond_config(lam_fsd=1.0, lam_wsd=0.1, meta_interval=1, scale=0.3,
                                     warmup_steps=5)
    else:
        cfg = ProximalConfig(lam_fsd=1.0, lam_wsd=0.1, meta_interval=10)
    root = os.path.dirname(apo.__file__) + os.sep
    calls = Counter()

    def train():
        apo_train(task.model, theta0, cfg, task, 20, numkit.make_rng(2), mode=mode,
                  base_kind=BaseOptKind("sgd" if mode == "apo-precond" else "adam"))

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(root)
                and not code.co_name.startswith("<")):
            calls[code.co_name] += 1

    train()  # warm-up: fills the caches (layout offsets) that a first run fills
    sys.setprofile(profile)
    try:
        train()
    finally:
        sys.setprofile(None)
    assert sum(calls.values()) == CALL_COUNTS[mode], dict(calls)


def test_kfac_step_solves_twice_per_layer(monkeypatch):
    """A KFAC step makes 2 solve_spd calls per layer, refresh step or not."""
    calls = []
    solve = baseopt.solve_spd
    monkeypatch.setattr(baseopt, "solve_spd", lambda m, rhs: calls.append(1) or solve(m, rhs))
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    steps = 12
    apo_train(task.model, theta0, ProximalConfig(), task, steps, numkit.make_rng(2),
              mode="none",
              base_kind=BaseOptKind("kfac", damping=1e-2, update_every=5, ema_decay=0.9))
    assert len(calls) == 2 * len(task.model.layers) * steps


def test_kfac_factors_twice_per_layer_per_refresh(monkeypatch):
    """Only a statistics refresh factors, 2 blocks per layer, and each of
    those factors forms its inverse once: over 12 steps with update_every=5
    the refreshes are t = 1, 5 and 10."""
    calls, inverses = [], []
    cholesky, inv = np.linalg.cholesky, np.linalg.inv
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(1) or inv(m))
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    apo_train(task.model, theta0, ProximalConfig(), task, 12, numkit.make_rng(2),
              mode="none",
              base_kind=BaseOptKind("kfac", damping=1e-2, update_every=5, ema_decay=0.9))
    assert len(calls) == len(inverses) == 2 * len(task.model.layers) * 3


def test_kfac_non_spd_refresh_diverges_at_its_step():
    """A refreshed block that is not SPD stops training at the refresh step
    with the factorization's pivot: the step-5 batch has a zero input
    column, so with no damping and no averaging A has a zero first pivot."""
    model = Model((LayerSpec(3, 2, "linear", True),), "regression-gaussian-unit-variance")
    rng = numkit.make_rng(4)
    batches = [Batch(rng.standard_normal((8, 3)), rng.standard_normal((8, 2)))
               for _ in range(6)]
    batches[4].inputs[:, 0] = 0.0
    task = SimpleNamespace(sample_batch=lambda _rng: batches.pop(0))
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(model, init_params(model, rng), ProximalConfig(), task, 6,
                  numkit.make_rng(5), mode="none",
                  base_kind=BaseOptKind("kfac", damping=0.0, update_every=5, ema_decay=0.0))
    assert err.value.step == 5 and len(err.value.rows) == 4
    cause = err.value.__cause__
    assert isinstance(cause, NumericalError) and cause.pivot == 1
    assert str(cause).startswith("kfac block factorization failed: ")


@pytest.mark.parametrize("seed", [1000, 2000])
def test_kfac_illcond_linear_diverges_at_step_3(tmp_path, seed):
    """KFAC at its default damping on the 64-d illcond-linear task (kappa
    1e10, batch 64) diverges at step 3, keeping the two rows before it."""
    doc = {"task": {"kind": "illcond-linear", "batch_size": 64,
                    "params": {"d": 64, "kappa": 1e10}},
           "mode": "none", "base_opt": {"kind": "kfac"}, "steps": 400, "seed": seed}
    with pytest.raises(TrainingDivergedError) as err:
        runner.run(config.parse_config(doc), tmp_path)
    assert err.value.step == 3 and len(err.value.rows) == 2


# ---------------------------------------------------------------- meta-step


def test_meta_step_zero_gradient_keeps_phi():
    cfg = zero_lam_cfg()
    phi = LrPhi(math.log(0.1))
    meta_step(phi, init_state(cfg.meta_opt, phi.flat), LrPhi(0.0), cfg)
    assert phi.log_lr == math.log(0.1)


def test_meta_step_sgd_hand_value():
    cfg = zero_lam_cfg()  # plain-SGD meta-optimizer, meta_lr 0.1
    phi = LrPhi(math.log(0.1))
    state = init_state(cfg.meta_opt, phi.flat)
    meta_step(phi, state, LrPhi(-0.09), cfg)
    assert phi.log_lr == pytest.approx(math.log(0.1) + 0.009)
    assert state.step == 1


def test_meta_step_lr_stays_positive():
    cfg = zero_lam_cfg(meta_lr=5.0)
    phi = LrPhi(math.log(0.1))
    state = init_state(cfg.meta_opt, phi.flat)
    for _ in range(50):
        meta_step(phi, state, LrPhi(1.0), cfg)
    assert phi.lr > 0.0


def test_meta_step_precond_moves_blocks():
    """A meta step moves the blocks in place: phi's views see the new
    values, and the application scale is never learned."""
    model = mlp([2, 2])
    phi = init_identity(model)
    cfg = default_precond_config(meta_lr=0.01)
    before, flat, s = phi.to_flat(), phi.flat, phi.blocks[0].s
    meta_step(phi, init_state(cfg.meta_opt, phi.flat), phi.from_flat(np.ones(phi.size)), cfg)
    assert not np.array_equal(phi.flat, before)
    assert phi.flat is flat and phi.blocks[0].s is s and np.shares_memory(s, flat)
    assert not np.array_equal(s, np.ones_like(s))  # S starts at ones
    assert phi.scale == DEFAULT_SCALE


# ---------------------------------------------------------------- apo_train


def test_apo_train_no_meta_updates_matches_plain_run():
    task = tasks.synth_regression_task(n=64, d=3, seed=0, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    kind = BaseOptKind("sgd-momentum")
    cfg = ProximalConfig(meta_interval=10_000, lam_fsd=0.1)
    res_apo = apo_train(task.model, theta0, cfg, task, 40, numkit.make_rng(2),
                        mode="apo-lr", base_kind=kind, init_lr=0.05)
    res_plain = apo_train(task.model, theta0, cfg, task, 40, numkit.make_rng(2),
                          mode="none", base_kind=kind, init_lr=0.05)
    for a, b in zip(res_apo.rows, res_plain.rows):
        assert a.train_loss == b.train_loss
        assert a.lr_or_phi_norm == b.lr_or_phi_norm
        assert a.lr_or_phi_norm == 0.05
    assert np.array_equal(res_apo.theta.flat, res_plain.theta.flat)


def test_apo_train_deterministic_given_seed():
    task = tasks.synth_classification_task(n=64, d=4, seed=3, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = ProximalConfig(lam_fsd=0.03, meta_interval=5)
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
    cfg = ProximalConfig(lam_wsd=0.1, meta_interval=2)
    res = apo_train(task.model, theta0, cfg, task, 50, numkit.make_rng(3),
                    mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.05)
    assert all(r.lr_or_phi_norm > 0 for r in res.rows)


def test_apo_train_divergence_guard():
    task = tasks.synth_regression_task(n=32, d=2, hidden=4, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = ProximalConfig()
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(task.model, theta0, cfg, task, 200, numkit.make_rng(0),
                  mode="none", base_kind=BaseOptKind("sgd"), init_lr=1e4)
    assert err.value.step >= 1


def test_apo_train_warmup_uses_sgdm_but_meta_learns():
    task = tasks.synth_regression_task(n=64, d=3, seed=9, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(4))
    cfg = default_precond_config(lam_wsd=1.0, meta_interval=1, meta_lr=0.01,
                                 warmup_steps=5, warmup_lr=0.05)
    res = apo_train(task.model, theta0, cfg, task, 5, numkit.make_rng(5),
                    mode="apo-precond", base_kind=BaseOptKind("sgd"))
    # phi moved away from the identity during warm-up
    ident = init_identity(task.model)
    assert not np.array_equal(res.phi.to_flat(), ident.to_flat())
    # parameters moved by plain SGDm: first step is -warmup_lr * g
    batch = task.sample_batch(numkit.make_rng(5))
    _, g = loss_and_grad(task.model, theta0, batch)
    one = apo_train(task.model, theta0, cfg, task, 1, numkit.make_rng(5),
                    mode="apo-precond", base_kind=BaseOptKind("sgd"))
    expect = theta0.map2(g, lambda t, gg: t - cfg.warmup_lr * gg)
    assert np.allclose(one.theta.to_flat(), expect.to_flat(), atol=0, rtol=0)


def test_apo_train_meta_fires_on_interval():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    cfg = ProximalConfig(meta_interval=10)
    res = apo_train(task.model, theta0, cfg, task, 25, numkit.make_rng(2),
                    mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.01)
    # no meta values before step 10, present afterwards
    assert res.rows[8].meta_objective is None
    assert res.rows[9].meta_objective is not None
    lrs = [r.lr_or_phi_norm for r in res.rows]
    assert lrs[0] == lrs[8] == pytest.approx(0.01)
    assert lrs[9] != lrs[8]


def test_apo_train_rejects_wrong_theta_layout_before_step_1():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = init_params(mlp([3, 4, 1]), numkit.make_rng(1))  # the task's hidden is 16
    sampled = []
    sample = task.sample_batch
    task.sample_batch = lambda rng: sampled.append(rng) or sample(rng)
    for mode in ("none", "apo-lr", "apo-precond"):
        with pytest.raises(DimensionError):
            apo_train(task.model, theta0, ProximalConfig(), task, 5, numkit.make_rng(2),
                      mode=mode, base_kind=BaseOptKind("sgd"))
    assert not sampled


def test_apo_train_kfac_needs_mode_none():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError):
        apo_train(task.model, theta0, ProximalConfig(), task, 5, numkit.make_rng(2),
                  mode="apo-lr", base_kind=BaseOptKind("kfac"))


@pytest.mark.parametrize("kind", ["sgd-momentum", "adam", "kfac"])
def test_apo_precond_rejects_a_base_kind_other_than_sgd(kind):
    """apo-precond steps with its SGDm warm-up and then its preconditioner; a
    base kind it would never step with is refused, not silently dropped."""
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError, match="takes base kinds"):
        apo_train(task.model, theta0, default_precond_config(), task, 5, numkit.make_rng(2),
                  mode="apo-precond", base_kind=BaseOptKind(kind))


def test_apo_precond_rejects_init_lr():
    """apo-precond steps at warmup_lr, then with its preconditioner; an
    init_lr it would never read is refused, as parse_config refuses /init_lr."""
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError, match="takes no init_lr"):
        apo_train(task.model, theta0, default_precond_config(), task, 5, numkit.make_rng(2),
                  mode="apo-precond", init_lr=0.7)


def test_apo_train_kfac_logs_exact_lr_and_applies_weight_decay():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))

    def train(**kind):
        return apo_train(task.model, theta0, ProximalConfig(), task, 12,
                         numkit.make_rng(2), mode="none",
                         base_kind=BaseOptKind("kfac", damping=1e-2, update_every=2,
                                               ema_decay=0.9, **kind))

    plain, decayed = train(), train(weight_decay=0.1)
    assert [r.lr_or_phi_norm for r in plain.rows] == [0.01] * 12
    assert plain.phi is None
    assert not np.array_equal(plain.theta.flat, decayed.theta.flat)


# (mode, base kind, meta-optimizer kind) of the runs that check how apo_train
# treats its buffers; apo-precond takes 5 SGDm warm-up steps.
BUFFER_RUNS = [("none", "sgd-momentum", None), ("none", "adam", None), ("none", "kfac", None),
               ("apo-lr", "sgd-momentum", "rmsprop"), ("apo-lr", "adam", "adam"),
               ("apo-precond", "sgd", "adam")]


def buffer_run(mode, base, meta, steps=20, task=None, init_lr=None):
    task = task or tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    meta_opt = BaseOptKind(meta or "rmsprop")
    if mode == "apo-precond":
        cfg = default_precond_config(lam_fsd=1.0, lam_wsd=0.1, meta_interval=1, scale=0.3,
                                     warmup_steps=5, meta_opt=meta_opt)
    else:
        cfg = ProximalConfig(lam_fsd=1.0, lam_wsd=0.1, meta_interval=3, meta_opt=meta_opt)
    kind = BaseOptKind(base, damping=1e-2, update_every=2, ema_decay=0.9)
    return theta0, lambda: apo_train(task.model, theta0, cfg, task, steps, numkit.make_rng(2),
                                     mode=mode, base_kind=kind, init_lr=init_lr)


@pytest.mark.parametrize("mode,base,meta", BUFFER_RUNS + [("diverged", "sgd", None)])
def test_apo_train_never_writes_theta0(mode, base, meta):
    """theta0 stays bit for bit the caller's, also when the run diverges."""
    if mode == "diverged":
        theta0, train = buffer_run("none", base, meta, 200, init_lr=1e4)
    else:
        theta0, train = buffer_run(mode, base, meta)
    flat, before = theta0.flat, theta0.flat.copy()
    if mode == "diverged":
        with pytest.raises(TrainingDivergedError):
            train()
    else:
        assert train().theta.flat is not flat
    assert theta0.flat is flat and np.array_equal(flat, before)


@pytest.mark.parametrize("mode,base,meta", BUFFER_RUNS)
def test_apo_train_keeps_one_buffer_per_persistent_state(monkeypatch, mode, base, meta):
    """Over a 20-step run theta, phi and every optimizer state each keep one
    buffer: each step writes theta once, in place, and each meta step phi;
    a KFAC direction is fresh, sharing no memory with the gradient or theta."""
    from apobench import kronprecond
    states, theta_writes, phis, kfac_directions = [], [], [], []

    def record_states(kind, state, g, _fn=apo.update_direction):
        before = (state.momentum, state.second)
        delta = _fn(kind, state, g)
        assert (state.momentum, state.second) == before
        states.append((state, *before))
        return delta

    def record_step(fn, out_at):
        def step(params, *args, **kwargs):
            out = kwargs.get("out", args[out_at] if len(args) > out_at else None)
            if out is not None:
                assert out is params
                theta_writes.append((params, params.flat))
            return fn(params, *args, **kwargs)
        return step

    def record_kfac(g, factors, _fn=apo.kfac_direction):
        delta = _fn(g, factors)
        assert not np.shares_memory(delta, g.flat)
        kfac_directions.append(delta)
        return delta

    def record_meta(phi, state, meta_grad, cfg, _fn=apo.meta_step):
        phis.append((phi, phi.flat))
        return _fn(phi, state, meta_grad, cfg)

    monkeypatch.setattr(apo, "update_direction", record_states)
    monkeypatch.setattr(apo, "apply_lr_update", record_step(apo.apply_lr_update, 2))
    monkeypatch.setattr(kronprecond, "apply_precond_update",
                        record_step(kronprecond.apply_precond_update, 3))
    monkeypatch.setattr(apo, "kfac_direction", record_kfac)
    monkeypatch.setattr(apo, "meta_step", record_meta)
    _, train = buffer_run(mode, base, meta)
    res = train()

    def one(pairs):
        """Every (set, its flat) pair recorded is the same set and array."""
        return len({id(x) for pair in pairs for x in pair}) == 2

    assert len(theta_writes) == 20 and one(theta_writes)
    assert theta_writes[0][0] is res.theta and theta_writes[0][1] is res.theta.flat
    assert len(kfac_directions) == (20 if base == "kfac" else 0)
    assert not any(np.shares_memory(d, res.theta.flat) for d in kfac_directions)
    distinct = {id(state): state for state, *_ in states}
    assert len(distinct) == {"none": base != "kfac", "apo-lr": 2, "apo-precond": 2}[mode]
    for state in distinct.values():
        buffers = [(m, v) for st, m, v in states if st is state]
        assert all(m is state.momentum and v is state.second for m, v in buffers)
    if mode == "none":
        assert not phis
    else:
        assert len(phis) == (20 if mode == "apo-precond" else 6) and one(phis)
        assert phis[0][0] is res.phi and phis[0][1] is res.phi.flat


def test_phi_linearize_matches_update_and_fd():
    """Each phi type's linearize takes phi.update's step, and its vjp is the
    gradient of <v, phi.update(theta, g, delta)>."""
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
        theta_new, vjp = phi.linearize(theta, g, delta)
        assert np.array_equal(theta_new.flat, phi.update(theta, g, delta).flat)
        assert rel_err(vjp(v).to_flat(), fd) < 1e-7


def test_lr_update_needs_base_direction():
    model, theta, batch = quadratic_setup()
    with pytest.raises(ContractError):
        meta_gradient(model, theta, LrPhi(0.0), batch, batch, zero_lam_cfg())


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
    huge = LrPhi(820.0)  # exp overflows to inf
    with pytest.raises((NumericalError, FloatingPointError, OverflowError)):
        meta_gradient(model, theta, huge, batch, batch, cfg,
                      delta=sgd_delta(model, theta, batch))


def test_lr_overflow_is_numerical_error():
    assert LrPhi(700.0).lr == math.exp(700.0)
    assert LrPhi(-math.inf).lr == 0.0
    # exp(710) overflows; math.exp(inf) is inf and exp(nan) nan, raising nothing
    for log_lr in (710.0, math.inf, math.nan):
        with pytest.raises(NumericalError):
            LrPhi(log_lr).lr


def test_lr_follows_log_lr_through_meta_steps():
    """The rate is read from the vector on each use: after each in-place
    meta step of every meta-optimizer kind, and on a set derived from phi,
    no stale rate is seen."""
    for meta_kind in KINDS:
        phi = LrPhi(math.log(0.5))
        cfg = ProximalConfig(meta_opt=BaseOptKind(meta_kind), meta_lr=0.1)
        state = init_state(cfg.meta_opt, phi.flat)
        for _ in range(3):
            old = phi.lr
            meta_step(phi, state, LrPhi(0.3), cfg)
            assert phi.lr == math.exp(phi.log_lr) != old
        for new in (phi.with_flat(np.array([math.log(0.25)])), phi.map(lambda f: f - 1.0)):
            assert new.lr == math.exp(new.log_lr) != phi.lr


@pytest.mark.parametrize("meta_kind", KINDS)
@pytest.mark.parametrize("phi_type", ["precond", "lr"])
def test_meta_step_copies_nothing_and_shares_no_memory(phi_type, meta_kind):
    """meta_step writes phi's own buffer, bit for bit phi - meta_lr * Delta,
    so phi's views stay bound to it; meta_grad is not written, and phi
    shares no memory with it or the meta-optimizer's moments."""
    rng = numkit.make_rng(17)
    if phi_type == "precond":
        phi = init_identity(mlp([3, 4, 2]), 0.5)
        phi = phi.map(lambda f: f + 0.1 * rng.standard_normal(f.size))
        meta_grad = phi.map(lambda f: rng.standard_normal(f.size))
    else:
        phi, meta_grad = LrPhi(math.log(0.05)), LrPhi(0.3)
    cfg = ProximalConfig(meta_opt=BaseOptKind(meta_kind), meta_lr=0.01)
    state = init_state(cfg.meta_opt, phi.flat)
    ref = init_state(cfg.meta_opt, phi.flat)
    flat = phi.flat
    for t in range(1, 4):
        phi_before, grad_before = phi.flat.copy(), meta_grad.flat.copy()
        delta = update_direction(cfg.meta_opt, ref, grad_before)
        meta_step(phi, state, meta_grad, cfg)
        assert phi.flat is flat and state.step == t
        assert np.array_equal(meta_grad.flat, grad_before)
        assert np.array_equal(phi.flat, phi_before - cfg.meta_lr * delta)
        for other in (meta_grad.flat, state.momentum, state.second):
            assert other is None or not np.shares_memory(phi.flat, other)
    if phi_type == "precond":
        assert phi.scale == 0.5
        assert all(np.shares_memory(blk.s, flat) and np.shares_memory(blk.a, flat)
                   for blk in phi.blocks)
