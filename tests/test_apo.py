import inspect
import itertools
import math
import os
import sys
import tracemalloc
import zlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import apo, baseopt, diffnet, kronprecond, numkit, oracles
from apobench.apo import (DIVERGENCES, LrPhi, ProximalConfig, apo_train, default_precond_config,
                          loss_and_grad, meta_batches, meta_gradient, meta_step,
                          proximal_value_and_grad)
from apobench.baseopt import KINDS, BaseOptKind, apply_lr_update, init_state, update_direction
from apobench.diffnet import Batch, LayerSpec, Model, ParamSet, init_params, mlp
from apobench.errors import (ContractError, DimensionError, NumericalError,
                             TrainingDivergedError)
from apobench.kronprecond import DEFAULT_SCALE, init_identity
from apobench import tasks
from apobench.harness import config, runner

from helpers import fd_scalar_fn, fresh_meta_gradient, fsd_value, prox_work, rel_err, wsd


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
    expected, _, _ = loss_and_grad(model, theta, batch)
    q = fresh_meta_gradient(model, theta, phi, *meta_batches(cfg, batch, batch), cfg)[1]
    assert q == pytest.approx(expected, rel=0, abs=0)


def test_meta_objective_degenerate_config_is_post_step_loss():
    rng = numkit.make_rng(3)
    model = mlp([2, 3, 1], activation="sigmoid")
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
    cfg = zero_lam_cfg()
    phi = LrPhi(math.log(0.05))
    _, g, _ = loss_and_grad(model, theta, batch)
    expected, _, _ = loss_and_grad(model, apply_lr_update(theta, phi.lr, g.flat), batch)
    q = fresh_meta_gradient(model, theta, phi, batch, batch, cfg, g.flat)[1]
    assert q == pytest.approx(expected)


def test_meta_objective_quadratic_closed_form():
    model, theta, batch = quadratic_setup()
    cfg = zero_lam_cfg()
    delta = sgd_delta(model, theta, batch)
    for eta in (0.05, 0.1, 0.5, 1.5):
        q = fresh_meta_gradient(model, theta, LrPhi(math.log(eta)), batch, batch, cfg,
                                delta)[1]
        assert q == pytest.approx(0.5 * (1.0 - eta) ** 2, rel=1e-12)


def test_meta_objective_dominates_post_step_loss():
    rng = numkit.make_rng(4)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b1 = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    b2 = Batch(rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))
    cfg = ProximalConfig(lam_fsd=0.7, lam_wsd=0.4)
    phi = LrPhi(math.log(0.2))
    _, q, parts = fresh_meta_gradient(model, theta, phi, *meta_batches(cfg, b1, b2), cfg,
                                      sgd_delta(model, theta, b1))
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
    _, g, _ = loss_and_grad(model, theta, b)
    expected, _, _ = loss_and_grad(model, apply_lr_update(theta, phi.lr, g.flat), bp)
    q = fresh_meta_gradient(model, theta, phi, *meta_batches(cfg, b, bp), cfg, g.flat)[1]
    assert q == pytest.approx(expected, rel=1e-14)


# ------------------------------------------------------------ meta-gradient


def test_meta_gradient_quadratic_hand_value():
    model, theta, batch = quadratic_setup()
    grad = fresh_meta_gradient(model, theta, LrPhi(math.log(0.1)), batch, batch,
                               zero_lam_cfg(), sgd_delta(model, theta, batch))[0]
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
    train, prox = meta_batches(cfg, batch, batch)
    grad = fresh_meta_gradient(model, theta, LrPhi(math.log(0.3)), train, prox, cfg,
                               sgd_delta(model, theta, batch))[0]
    assert grad.log_lr == 0.0
    pgrad = fresh_meta_gradient(model, theta, init_identity(model), train, prox, cfg)[0]
    assert np.abs(pgrad.flat).max() == 0.0


def assert_meta_gradient_matches_fd(model, theta, phi, b, bp, cfg, delta=None):
    """dQ/dphi from meta_gradient against central differences of Q over
    phi's flat vector; the same check for either phi type."""
    train, prox = meta_batches(cfg, b, bp)
    grad = fresh_meta_gradient(model, theta, phi, train, prox, cfg, delta)[0]
    fd = fd_scalar_fn(lambda v: fresh_meta_gradient(model, theta, phi.from_flat(v), train, prox,
                                                    cfg, delta)[1], phi.flat, h=1e-4)
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

    y_ref, _ = diffnet.forward(model, theta, bp.inputs)
    _, stacked = meta_batches(cfg, b, bp)

    def prox(params):
        return proximal_value_and_grad(model, params, theta, stacked, y_ref, cfg.lam_fsd,
                                       cfg.lam_wsd, fsd_kind, prox_work(model, theta, stacked))

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


def _two_pass_reference(model, u, theta, loss_batch, fsd_inputs, lam_fsd, lam_wsd, fsd_kind):
    """The proximal objective as two separate passes at u: a forward and a
    backward on the loss rows, then a forward and a backward on the fsd rows
    whose lam_fsd-weighted gradient is added, then the wsd term."""
    loss_term, grad, _ = loss_and_grad(model, u, loss_batch)
    fsd_term = wsd_term = 0.0
    if lam_fsd:
        y_new, trace = diffnet.forward(model, u, fsd_inputs)
        y_old, _ = diffnet.forward(model, theta, fsd_inputs)
        rho, dy = apo.divergence(model, fsd_kind).value_and_grad(y_new, y_old)
        n = len(fsd_inputs)
        fsd_term = float(np.sum(rho) / n)
        grad.flat += lam_fsd * diffnet.backward(model, u, trace, dy / n)[0].flat
    if lam_wsd:
        diff = u.flat - theta.flat
        wsd_term = 0.5 * float(diff @ diff)
        grad.flat += lam_wsd * diff
    q = loss_term + lam_fsd * fsd_term + lam_wsd * wsd_term
    return q, {"loss": loss_term, "fsd": fsd_term, "wsd": wsd_term}, grad


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(diffnet.HEADS), st.sampled_from([None, *sorted(DIVERGENCES)]),
       st.sampled_from(apo.BATCH_POLICIES), st.sampled_from(apo.BATCH_POLICIES),
       st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([0.0, 0.5]),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_pass_is_the_two_separate_passes(head, fsd_kind, loss_policy, fsd_policy,
                                                 lam_fsd, lam_wsd, b, n, seed):
    """The one stacked pass over meta_batches' prox gives the two separate
    passes' Q, terms and dQ/du within 1e-12 relative.  A term is measured
    against the larger of it and Q: the rows' outputs may differ in their
    last bit, and a KL of nearly equal rows cancels that bit's relative
    error up by orders of magnitude (1.7e-11 seen at 4e-6)."""
    rng = numkit.make_rng(seed)
    model = mlp([3, 4, 2], activation="sigmoid", head=head)
    theta = init_params(model, rng)

    def batch(rows):
        targets = (rng.integers(0, 2, size=rows) if head == "classification-softmax"
                   else rng.standard_normal((rows, 2)))
        return Batch(rng.standard_normal((rows, 3)), targets)

    b_batch, bp, b_loss = batch(b), batch(n), batch(b)
    cfg = ProximalConfig(lam_fsd=lam_fsd, loss_batch_policy=loss_policy,
                         fsd_batch_policy=fsd_policy)
    _, prox = meta_batches(cfg, b_batch, bp, b_loss)
    loss_batch = b_batch if loss_policy == "same" else b_loss
    fsd_inputs = bp.inputs if fsd_policy == "fresh" else b_batch.inputs
    y_ref, _ = diffnet.forward(model, theta, fsd_inputs)
    u = theta.map(lambda f: f + 0.3 * rng.standard_normal(f.size))
    q, parts, grad = proximal_value_and_grad(model, u, theta, prox, y_ref, lam_fsd, lam_wsd,
                                             fsd_kind, prox_work(model, theta, prox))
    ref_q, ref_parts, ref_grad = _two_pass_reference(model, u, theta, loss_batch, fsd_inputs,
                                                     lam_fsd, lam_wsd, fsd_kind)
    assert rel_err(q, ref_q) <= 1e-12
    for name, value in ref_parts.items():
        assert rel_err(parts[name], value, floor=abs(ref_q)) <= 1e-12
    assert rel_err(grad.flat, ref_grad.flat) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(diffnet.HEADS), st.sampled_from(apo.BATCH_POLICIES),
       st.sampled_from([0.0, 0.7]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_stacked_training_pass_is_the_two_separate_passes(head, fsd_policy, lam_fsd, b, n,
                                                          seed):
    """The training pass as apo_train takes it at a meta step, one forward
    over meta_batches' train and one backward over B's rows, gives the loss,
    g and y_ref (its outputs past B's rows) of loss_and_grad on B and a
    forward on the fsd rows, run separately, within 1e-12 relative."""
    rng = numkit.make_rng(seed)
    model = mlp([3, 4, 2], activation="sigmoid", head=head)
    theta = init_params(model, rng)

    def batch(rows):
        targets = (rng.integers(0, 2, size=rows) if head == "classification-softmax"
                   else rng.standard_normal((rows, 2)))
        return Batch(rng.standard_normal((rows, 3)), targets)

    b_batch, bp = batch(b), batch(n)
    fsd_inputs = (bp if fsd_policy == "fresh" else b_batch).inputs
    cfg = ProximalConfig(lam_fsd=lam_fsd, fsd_batch_policy=fsd_policy)
    train, _ = meta_batches(cfg, b_batch, bp)
    loss, g, outputs = loss_and_grad(model, theta, train)
    ref_loss, ref_g, ref_outputs = loss_and_grad(model, theta, b_batch)
    assert rel_err(loss, ref_loss) <= 1e-12
    assert rel_err(g.flat, ref_g.flat) <= 1e-12
    assert rel_err(outputs[:b], ref_outputs) <= 1e-12
    if lam_fsd:
        assert rel_err(outputs[b:], diffnet.forward(model, theta, fsd_inputs)[0]) <= 1e-12
    else:
        assert len(outputs) == b


def test_meta_batches_rows_follow_the_policies():
    """For each loss and fsd policy and lam_fsd, train is [B; fsd rows] with
    B's targets and prox [loss rows; fsd rows] with the loss targets, or B and
    the loss batch at lam_fsd 0.  Under the loss policy "same" train is prox,
    its stacked inputs in rows[0]; stacked inputs are views of rows, so a
    second call makes no new inputs array."""
    rng = numkit.make_rng(43)
    b, bp, b_loss = (Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
                     for _ in range(3))
    rows = np.empty((2, 10, 3))
    for loss_policy, fsd_policy, lam_fsd, extra in itertools.product(
            apo.BATCH_POLICIES, apo.BATCH_POLICIES, (0.0, 0.5), (b_loss, None)):
        cfg = ProximalConfig(lam_fsd=lam_fsd, loss_batch_policy=loss_policy,
                             fsd_batch_policy=fsd_policy)
        loss = b if loss_policy == "same" else bp if extra is None else extra
        fsd = (bp if fsd_policy == "fresh" else b).inputs
        train, prox = meta_batches(cfg, b, bp, extra, rows)
        again = meta_batches(cfg, b, bp, extra, rows)
        for got, second, head in zip((train, prox), again, (b, loss)):
            if lam_fsd:
                assert np.array_equal(got.inputs, np.concatenate((head.inputs, fsd)))
                assert got.inputs.base is rows and second.inputs.base is rows
            else:
                assert got is head and second is head
            assert got.targets is head.targets
        assert (train is prox) == (loss_policy == "same")
        if lam_fsd:
            assert np.shares_memory(prox.inputs, rows[int(loss_policy == "fresh")])


def test_meta_gradient_takes_y_ref_with_g():
    """y_ref is the training outputs' rows past B's: with B's rows NaN and
    the others a separate forward on B' at theta, meta_gradient gives the
    training pass's Q and dQ/dphi within 1e-12 relative."""
    rng = numkit.make_rng(44)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b, bp = (Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2))) for _ in range(2))
    cfg = ProximalConfig(lam_fsd=0.5, lam_wsd=0.3)
    phi = init_identity(model)
    train, prox = meta_batches(cfg, b, bp)
    _, g, outputs = loss_and_grad(model, theta, train)
    separate = np.concatenate((np.full((5, 2), np.nan),
                               diffnet.forward(model, theta, bp.inputs)[0]))
    dphi, q, _ = meta_gradient(model, theta, phi, train, prox, cfg, g, None, outputs,
                               apo.meta_work(model, theta, phi, cfg, 5))
    ref_dphi, ref_q, _ = meta_gradient(model, theta, phi, train, prox, cfg, g, None, separate,
                                       apo.meta_work(model, theta, phi, cfg, 5))
    assert rel_err(q, ref_q) <= 1e-12 and rel_err(dphi.flat, ref_dphi.flat) <= 1e-12


def test_no_mode_with_a_phi_takes_kfac():
    """apo_train draws B' and the loss batch straight after B, before the
    step's other rng use, kfac's statistics; the stream is that of drawing
    them after Delta only while no mode with a phi takes kfac."""
    for kinds in (apo.MODE_BASE_KINDS["apo-lr"], apo.MODE_BASE_KINDS["apo-precond"],
                  (apo.WARMUP_KIND.kind,)):
        assert "kfac" not in kinds


def test_nonfinite_fsd_output_diverges_at_its_meta_step():
    """A B' whose outputs overflow ends the run at its meta step, after the
    rows before it; the training forward over [B; B'] is where it fails."""
    model = Model((LayerSpec(2, 1, "linear", False),), "regression-gaussian-unit-variance")
    rng = numkit.make_rng(46)
    batches = [Batch(rng.standard_normal((4, 2)), rng.standard_normal((4, 1)))
               for _ in range(3)]
    batches.append(Batch(np.full((4, 2), 1e308), np.zeros((4, 1))))
    task = SimpleNamespace(model=model, sample_batch=lambda _rng: batches.pop(0))
    theta0 = ParamSet.from_layers([(np.ones((2, 1)), None)])
    cfg = ProximalConfig(lam_fsd=1.0, meta_interval=3)
    rows = []
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(task, theta0, cfg, 5, numkit.make_rng(5), rows.append, init_lr=0.01)
    assert err.value.step == 3 and [r.step for r in rows] == [1, 2]
    assert isinstance(err.value.__cause__, NumericalError)
    assert not batches


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
        return fresh_meta_gradient(model, theta, phi, *meta_batches(cfg, b, bp), cfg, delta)[1]

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


@pytest.mark.parametrize("lam_fsd,given,forwards,backwards",
                         [(0.5, True, 1, 1), (0.0, True, 1, 1), (0.5, False, 2, 2),
                          (0.0, False, 2, 2)])
def test_meta_gradient_op_counts(monkeypatch, lam_fsd, given, forwards, backwards):
    """One meta step as apo_train makes it (g and outputs given, fresh B'):
    1 forward and 1 backward, at theta'; a caller that has not taken the
    training pass pays it on top."""
    rng = numkit.make_rng(41)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=0.3, fsd_batch_policy="fresh")
    kind = BaseOptKind("sgd-momentum")
    train, prox = meta_batches(cfg, b, bp)
    _, g, outputs = loss_and_grad(model, theta, train)
    delta = update_direction(kind, init_state(kind, theta.flat), g.flat)
    for phi, d in ((LrPhi(math.log(0.1)), delta), (init_identity(model), None)):
        work = apo.meta_work(model, theta, phi, cfg, 5)._replace(seed=np.empty((9, 2)))
        counts = _count_passes(monkeypatch)
        if given:
            meta_gradient(model, theta, phi, train, prox, cfg, g, d, outputs, work)
        else:
            fresh_meta_gradient(model, theta, phi, train, prox, cfg, d)
        assert counts == {"forward": forwards, "backward": backwards}
        monkeypatch.undo()


def _arrays(result):
    """The arrays of a result: a set's flat vector, an array, or those of a
    tuple's items."""
    if isinstance(result, tuple):
        return [a for item in result for a in _arrays(item)]
    return [result.flat if isinstance(result, ParamSet) else result]


def test_calls_without_kept_arrays_return_arrays_of_their_own(monkeypatch):
    """Given no kept arrays (out=None, keep=None, rows=None), two calls
    return results that share no memory.  exact_ppm_solve writes every
    evaluation into one record and holds its accepted gradient across a
    rejected try: the solve is bytewise that with a new record each time."""
    rng = numkit.make_rng(43)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    cfg = default_precond_config(lam_fsd=0.5, lam_wsd=0.3)
    train, _ = meta_batches(cfg, b, bp)
    g = loss_and_grad(model, theta, train)[1]
    blocks = init_identity(model, 0.5).blocks[0]
    calls = {
        "loss_and_grad": lambda: loss_and_grad(model, theta, train)[1:],
        "apply_lr_update": lambda: apply_lr_update(theta, 0.1, g.flat),
        "meta_batches": lambda: meta_batches(cfg, b, bp)[0].inputs,
        "apply_precond": lambda: kronprecond.apply_precond(blocks, g.weights[0]),
    }
    for name, call in calls.items():
        first = call()
        kept = [a.copy() for a in _arrays(first)]
        second = _arrays(call())
        assert not any(np.shares_memory(a, b) for a in _arrays(first) for b in second), name
        assert all(np.array_equal(a, k) for a, k in zip(_arrays(first), kept)), name

    # Unregularized softmax loss on 4 rows: 36 evaluations, 2 of them rejected.
    model = mlp([2, 5, 3], activation="sigmoid", head="classification-softmax")
    rng = numkit.make_rng(45)
    theta = init_params(model, rng)
    batch = Batch(rng.standard_normal((4, 2)), rng.integers(0, 3, 4))
    evals, accepted = [], []
    real = oracles.proximal_value_and_grad

    def solve():
        return oracles.exact_ppm_solve(model, theta, batch, 0.0, 0.0, batch.inputs, tol=1e-13)

    def counted(*args):
        evals.append(args[-1])
        return real(*args)

    def curvature(model_, u, inputs, kind, _fn=oracles.fsd_hessian_exact):
        accepted.append(u)
        return _fn(model_, u, inputs, kind)

    monkeypatch.setattr(oracles, "fsd_hessian_exact", curvature)
    monkeypatch.setattr(oracles, "proximal_value_and_grad", counted)
    u = solve()
    assert len(evals) - 1 - len(accepted) == 2 and all(w is evals[0] for w in evals)
    monkeypatch.setattr(oracles, "proximal_value_and_grad",
                        lambda *args: real(*args[:-1], prox_work(model, theta, batch)))
    assert np.array_equal(solve().flat, u.flat)


@pytest.mark.parametrize("lam_fsd,lam_wsd,loss_policy", [
    (0.0, 0.0, "same"), (1.0, 0.0, "same"), (0.0, 0.1, "fresh"), (1.0, 0.1, "fresh")])
@pytest.mark.parametrize("phi_type", ["lr", "precond"])
def test_meta_work_makes_only_the_arrays_the_config_reads(lam_fsd, lam_wsd, loss_policy,
                                                          phi_type):
    """The stacked rows and the seed exist only when lam_fsd > 0 (the second
    stack only under the fresh loss policy), the wsd difference only when
    lam_wsd > 0, and the lookahead products only for a preconditioner: one
    PrecondWork of 7 S-kind rows, a phi-shaped and a theta-shaped set."""
    model = mlp([3, 4, 2])
    theta = init_params(model, numkit.make_rng(5))
    phi = LrPhi(0.0) if phi_type == "lr" else init_identity(model)
    cfg = ProximalConfig(lam_fsd=lam_fsd, lam_wsd=lam_wsd, loss_batch_policy=loss_policy)
    work = apo.meta_work(model, theta, phi, cfg, 6)
    if lam_fsd:
        assert work.rows[0].shape == (12, 3) and work.seed.shape == (12, 2)
        assert (work.rows[1] is None) == (loss_policy == "same")
    else:
        assert work.rows is None and work.seed is None
    assert (work.diff is None) == (not lam_wsd)
    assert work.theta_new.layout == work.grad.layout == theta.layout
    assert type(work.phi_grad) is type(phi) and work.phi_grad.layout == phi.layout
    if phi_type == "lr":
        assert work.products is None
    else:
        kept = work.products
        assert kept.rows.shape == (7, 3 * 4 + 4 * 2)
        assert [[row.shape for row in layer] for layer in kept.layers] == [[(3, 4)] * 7,
                                                                          [(4, 2)] * 7]
        assert type(kept.rest) is type(phi) and kept.rest.layout == phi.layout
        assert kept.step.layout == theta.layout


@pytest.mark.parametrize("phi_type", ["lr", "precond"])
def test_meta_gradient_into_kept_arrays_equals_fresh(phi_type):
    """meta_gradient writes theta', dQ/dtheta', the weighted wsd difference
    and dQ/dphi into its MetaWork's own arrays, and a record reused through
    two calls holds, bit for bit, what a new record does."""
    rng = numkit.make_rng(47)
    model = mlp([3, 4, 2], activation="sigmoid")
    theta = init_params(model, rng)
    b = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    bp = Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    cfg = ProximalConfig(lam_fsd=0.5, lam_wsd=0.3)
    phi = LrPhi(math.log(0.1)) if phi_type == "lr" else init_identity(model, 0.5)
    train, prox = meta_batches(cfg, b, bp)
    _, g, outputs = loss_and_grad(model, theta, train)
    delta = rng.standard_normal(theta.size)

    def arrays(work):
        return [work.theta_new.flat, work.grad.flat, work.diff, work.phi_grad.flat]

    work = apo.meta_work(model, theta, phi, cfg, 5)
    kept = arrays(work)
    for _ in range(2):
        dphi, q, _ = meta_gradient(model, theta, phi, train, prox, cfg, g, delta, outputs, work)
        assert dphi is work.phi_grad
        assert all(a is b for a, b in zip(arrays(work), kept))
        new = apo.meta_work(model, theta, phi, cfg, 5)
        new_q = meta_gradient(model, theta, phi, train, prox, cfg, g, delta, outputs, new)[1]
        assert q == new_q
        assert all(np.array_equal(a, b) for a, b in zip(arrays(work), arrays(new)))
        assert np.array_equal(work.diff, 0.3 * (work.theta_new.flat - theta.flat))


def _traced(fn):
    """fn() under tracemalloc, which it may reset and read; tracing stops
    after unless it was on before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        return fn()
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("meta_kind", KINDS)
def test_meta_step_allocates_no_phi_sized_array(meta_kind):
    """meta_step writes Delta, meta_lr * Delta and phi into the state's and
    phi's own buffers: on a 64x64 preconditioner (192 KiB) a step's peak is
    under a quarter of phi (update_direction's finiteness mask is an
    eighth)."""
    phi = init_identity(mlp([64, 64, 64], activation="linear", bias=False))
    meta_grad = phi.map(np.ones_like)
    cfg = ProximalConfig(meta_opt=BaseOptKind(meta_kind), meta_lr=1e-4)
    state = init_state(cfg.meta_opt, phi.flat)

    def peaks():
        for _ in range(3):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            meta_step(phi, state, meta_grad, cfg)
            yield tracemalloc.get_traced_memory()[1] - start

    assert max(_traced(lambda: list(peaks()))) < 8 * phi.size // 4


def _transient_peaks(mode, steps, batch_size=64, kind=None, **overrides):
    """Per step of a 64x64 illcond-linear run with fsd and wsd on (base kind
    adam where kind is None, except under apo-precond), the tracemalloc peak
    above the step's starting level, read through emit."""
    task = tasks.illcond_linear_task(d=64, kappa=1e10, seed=0, batch_size=batch_size)
    theta0 = task.init_theta(numkit.make_rng(1))
    if mode == "apo-precond":
        cfg = default_precond_config(lam_fsd=1.0, lam_wsd=0.1, scale=0.3, **overrides)
    else:
        cfg = ProximalConfig(lam_fsd=1.0, lam_wsd=0.1, **overrides)
        kind = kind or BaseOptKind("adam")
    peaks, level = [], []

    def emit(row):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - level[-1])
        level.append(current)
        tracemalloc.reset_peak()

    def train():
        tracemalloc.reset_peak()
        level.append(tracemalloc.get_traced_memory()[0])
        apo_train(task, theta0, cfg, steps, numkit.make_rng(2), emit, mode=mode,
                  base_kind=kind)

    _traced(train)
    return task.model, peaks


def test_precond_step_allocates_at_most_one_phi_and_one_theta():
    """After step 1, which makes the kept arrays, no step of a 30-step 64x64
    apo-precond run (10 SGDm warm-up steps, a meta step every step) allocates
    more than one phi plus one theta above its starting level: 256 KiB, where
    a fresh dQ/dphi alone is 192 KiB."""
    model, peaks = _transient_peaks("apo-precond", 30, meta_interval=1, warmup_steps=10)
    theta = init_params(model, numkit.make_rng(0))
    bound = 8 * (init_identity(model).size + theta.size)
    assert bound == 256 * 1024
    assert max(peaks[1:]) <= bound, peaks


def test_lr_step_allocates_at_most_eight_batch_row_arrays():
    """Past step 1, which makes the kept arrays, and step 10, the first
    meta step, no step of a 30-step 64x64 apo-lr run (Adam base, fsd and
    wsd on) allocates more than 8 arrays of b x d float64 above its starting
    level (b = d = 64: 32 KiB each, 256 KiB; theta is two of them).  A meta step's
    forward at theta' alone makes two 2b x d pre-activations, 4 arrays."""
    _, peaks = _transient_peaks("apo-lr", 30, meta_interval=10)
    bound = 8 * 64 * 64 * 8
    assert max(p for t, p in enumerate(peaks, start=1) if t not in (1, 10)) <= bound, peaks


def test_lr_lookahead_and_weight_decay_make_no_theta_sized_array():
    """At d = 64 (theta is 64 KiB) LrPhi.linearize writes lr * Delta into the
    MetaWork's dQ/dtheta' buffer, and weight decay wd * theta into a buffer
    kept with the training gradient: each peaks under 64 KiB.  The decay is
    read from the steps of a 1-row Adam run, whose other arrays are small."""
    task = tasks.illcond_linear_task(d=64, kappa=1e10, seed=0, batch_size=1)
    theta = task.init_theta(numkit.make_rng(1))
    assert 8 * theta.size == 64 * 1024
    phi = LrPhi(math.log(0.1))
    work = apo.meta_work(task.model, theta, phi, ProximalConfig(lam_fsd=1.0, lam_wsd=0.1), 1)
    g, delta = theta.map(np.ones_like), np.ones(theta.size)

    def linearize_peak():
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        phi.linearize(theta, g, delta, work)
        return tracemalloc.get_traced_memory()[1] - start

    assert _traced(linearize_peak) < 64 * 1024
    _, peaks = _transient_peaks("none", 10, batch_size=1,
                                kind=BaseOptKind("adam", weight_decay=1e-3))
    assert max(peaks[1:]) < 64 * 1024, peaks


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


# ParamSet operations per SGDm warm-up step, per training step after it (for
# a preconditioner the logged norm; each step writes theta and the training
# gradient in place) and per meta step (the norm of the flat wsd difference,
# and a learning rate's VJP dot product; the meta step writes its MetaWork),
# and per run: theta0.copy() and the training gradient's set, and at the
# first step the MetaWork's theta', dQ/dtheta' and dQ/dphi, and a
# preconditioner's PrecondWork its phi-shaped set.
PARAMSET_COUNTS = {
    "apo-lr": ({}, {}, {"sq_norm": 1, "dot": 1}, {"copy": 1, "map": 2 + 3}),
    "apo-precond": ({"sq_norm": 1}, {"sq_norm": 1}, {"sq_norm": 1},
                    {"copy": 1, "map": 2 + 3 + 1}),
}


@pytest.mark.parametrize("mode,meta_interval", [("apo-lr", 10), ("apo-precond", 1)])
def test_training_pass_counts(monkeypatch, mode, meta_interval):
    """apo_train makes 1 forward and 1 backward per training step, whose
    forward at a meta step also gives the fsd reference outputs, and 1
    forward and 1 backward more per meta step (fsd and wsd on), in the
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
    apo_train(task, theta0, cfg, steps, numkit.make_rng(2), lambda row: None, mode=mode,
              base_kind=BaseOptKind("sgd-momentum" if mode == "apo-lr" else "sgd"))
    meta_steps = steps // meta_interval
    assert counts == {"forward": steps + meta_steps, "backward": steps + meta_steps}
    *per_step, per_run = PARAMSET_COUNTS[mode]
    expect = Counter(per_run)
    for times, per in zip((warmup, steps - warmup, meta_steps), per_step):
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
CALL_COUNTS = {"none": 293, "apo-lr": 373, "apo-precond": 995}


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
        apo_train(task, theta0, cfg, 20, numkit.make_rng(2), lambda row: None, mode=mode,
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
    apo_train(task, theta0, ProximalConfig(), steps, numkit.make_rng(2), lambda row: None,
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
    apo_train(task, theta0, ProximalConfig(), 12, numkit.make_rng(2), lambda row: None,
              mode="none",
              base_kind=BaseOptKind("kfac", damping=1e-2, update_every=5, ema_decay=0.9))
    assert len(calls) == len(inverses) == 2 * len(task.model.layers) * 3


def test_kfac_non_spd_refresh_diverges_at_its_step():
    """A refreshed block that is not SPD stops training at the refresh step
    with the factorization's NumericalError: the step-5 batch has a zero
    input column, so with no damping and no averaging A is singular."""
    model = Model((LayerSpec(3, 2, "linear", True),), "regression-gaussian-unit-variance")
    rng = numkit.make_rng(4)
    batches = [Batch(rng.standard_normal((8, 3)), rng.standard_normal((8, 2)))
               for _ in range(6)]
    batches[4].inputs[:, 0] = 0.0
    task = SimpleNamespace(model=model, sample_batch=lambda _rng: batches.pop(0))
    rows = []
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(task, init_params(model, rng), ProximalConfig(), 6, numkit.make_rng(5),
                  rows.append, mode="none",
                  base_kind=BaseOptKind("kfac", damping=0.0, update_every=5, ema_decay=0.0))
    assert err.value.step == 5 and [r.step for r in rows] == [1, 2, 3, 4]
    cause = err.value.__cause__
    assert isinstance(cause, NumericalError)
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
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert err.value.step == 3 and [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


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
    rows_apo, rows_plain = [], []
    theta_apo, _ = apo_train(task, theta0, cfg, 40, numkit.make_rng(2), rows_apo.append,
                             mode="apo-lr", base_kind=kind, init_lr=0.05)
    theta_plain, _ = apo_train(task, theta0, cfg, 40, numkit.make_rng(2), rows_plain.append,
                               mode="none", base_kind=kind, init_lr=0.05)
    for a, b in zip(rows_apo, rows_plain):
        assert a.train_loss == b.train_loss
        assert a.lr == b.lr
        assert a.lr == 0.05
    assert np.array_equal(theta_apo.flat, theta_plain.flat)


def test_apo_train_deterministic_given_seed():
    task = tasks.synth_classification_task(n=64, d=4, seed=3, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = ProximalConfig(lam_fsd=0.03, meta_interval=5)
    runs = []
    for _ in range(2):
        rows = []
        theta, _ = apo_train(task, theta0, cfg, 60, numkit.make_rng(7), rows.append,
                             mode="apo-lr", base_kind=BaseOptKind("sgd-momentum"),
                             init_lr=0.1)
        runs.append((rows, theta))
    (rows_a, theta_a), (rows_b, theta_b) = runs
    for a, b in zip(rows_a, rows_b):
        assert a == b
    assert theta_a.to_flat().tobytes() == theta_b.to_flat().tobytes()


def test_apo_train_lr_positive_throughout():
    task = tasks.synth_regression_task(n=64, d=3, seed=5, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    cfg = ProximalConfig(lam_wsd=0.1, meta_interval=2)
    rows = []
    apo_train(task, theta0, cfg, 50, numkit.make_rng(3), rows.append,
              mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.05)
    assert all(r.lr > 0 for r in rows)


@pytest.mark.parametrize("mode", ["none", "apo-lr", "apo-precond"])
def test_apo_train_emits_each_step_once_up_to_a_divergence(mode):
    """Every emitted row sets exactly one of lr and phi_frobenius_norm, the
    norm under apo-precond alone; a run emits steps 1..steps in order, and
    one that diverges at step t has emitted steps 1..t-1."""
    task = tasks.synth_regression_task(n=32, d=2, hidden=4, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    precond = mode == "apo-precond"
    for rate in (0.05, 1e4):
        if precond:
            cfg, init_lr = default_precond_config(meta_interval=3, warmup_steps=10,
                                                  warmup_lr=rate), None
        else:
            cfg, init_lr = ProximalConfig(meta_interval=3), rate
        rows = []
        try:
            apo_train(task, theta0, cfg, 20, numkit.make_rng(0), rows.append, mode=mode,
                      init_lr=init_lr)
            last = 20
        except TrainingDivergedError as exc:
            assert rate == 1e4 and exc.step > 1
            last = exc.step - 1
        assert (rate == 1e4) == (last < 20)
        assert [r.step for r in rows] == list(range(1, last + 1))
        assert all((r.lr is None) != (r.phi_frobenius_norm is None) for r in rows)
        assert all((r.phi_frobenius_norm is not None) == precond for r in rows)


def test_apo_train_divergence_guard():
    task = tasks.synth_regression_task(n=32, d=2, hidden=4, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(0))
    cfg = ProximalConfig()
    with pytest.raises(TrainingDivergedError) as err:
        apo_train(task, theta0, cfg, 200, numkit.make_rng(0), lambda row: None,
                  mode="none", base_kind=BaseOptKind("sgd"), init_lr=1e4)
    assert err.value.step >= 1


def test_apo_train_warmup_uses_sgdm_but_meta_learns():
    task = tasks.synth_regression_task(n=64, d=3, seed=9, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(4))
    cfg = default_precond_config(lam_wsd=1.0, meta_interval=1, meta_lr=0.01,
                                 warmup_steps=5, warmup_lr=0.05)
    _, phi = apo_train(task, theta0, cfg, 5, numkit.make_rng(5), lambda row: None,
                       mode="apo-precond", base_kind=BaseOptKind("sgd"))
    # phi moved away from the identity during warm-up
    ident = init_identity(task.model)
    assert not np.array_equal(phi.to_flat(), ident.to_flat())
    # parameters moved by plain SGDm: first step is -warmup_lr * g
    batch = task.sample_batch(numkit.make_rng(5))
    _, g, _ = loss_and_grad(task.model, theta0, batch)
    one, _ = apo_train(task, theta0, cfg, 1, numkit.make_rng(5), lambda row: None,
                       mode="apo-precond", base_kind=BaseOptKind("sgd"))
    expect = theta0.map2(g, lambda t, gg: t - cfg.warmup_lr * gg)
    assert np.allclose(one.to_flat(), expect.to_flat(), atol=0, rtol=0)


def test_apo_train_meta_fires_on_interval():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    cfg = ProximalConfig(meta_interval=10)
    rows = []
    apo_train(task, theta0, cfg, 25, numkit.make_rng(2), rows.append,
              mode="apo-lr", base_kind=BaseOptKind("sgd"), init_lr=0.01)
    # no meta values before step 10, present afterwards
    assert rows[8].meta_objective is None
    assert rows[9].meta_objective is not None
    lrs = [r.lr for r in rows]
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
            apo_train(task, theta0, ProximalConfig(), 5, numkit.make_rng(2), lambda row: None,
                      mode=mode, base_kind=BaseOptKind("sgd"))
    assert not sampled


def test_apo_train_kfac_needs_mode_none():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError):
        apo_train(task, theta0, ProximalConfig(), 5, numkit.make_rng(2), lambda row: None,
                  mode="apo-lr", base_kind=BaseOptKind("kfac"))


@pytest.mark.parametrize("kind", ["sgd-momentum", "adam", "kfac"])
def test_apo_precond_rejects_a_base_kind_other_than_sgd(kind):
    """apo-precond steps with its SGDm warm-up and then its preconditioner; a
    base kind it would never step with is refused, not silently dropped."""
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError, match="takes base kinds"):
        apo_train(task, theta0, default_precond_config(), 5, numkit.make_rng(2),
                  lambda row: None, mode="apo-precond", base_kind=BaseOptKind(kind))


def test_apo_precond_rejects_init_lr():
    """apo-precond steps at warmup_lr, then with its preconditioner; an
    init_lr it would never read is refused, as parse_config refuses /init_lr."""
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))
    with pytest.raises(ContractError, match="takes no init_lr"):
        apo_train(task, theta0, default_precond_config(), 5, numkit.make_rng(2),
                  lambda row: None, mode="apo-precond", init_lr=0.7)


def test_apo_train_kfac_logs_exact_lr_and_applies_weight_decay():
    task = tasks.synth_regression_task(n=64, d=3, seed=2, batch_size=8)
    theta0 = task.init_theta(numkit.make_rng(1))

    def train(**kind):
        rows = []
        theta, phi = apo_train(task, theta0, ProximalConfig(), 12, numkit.make_rng(2),
                               rows.append, mode="none",
                               base_kind=BaseOptKind("kfac", damping=1e-2, update_every=2,
                                                     ema_decay=0.9, **kind))
        return rows, theta, phi

    (plain_rows, plain, phi), (_, decayed, _) = train(), train(weight_decay=0.1)
    assert [r.lr for r in plain_rows] == [0.01] * 12
    assert phi is None
    assert not np.array_equal(plain.flat, decayed.flat)


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
    kind = BaseOptKind(base, weight_decay=0.01, damping=1e-2, update_every=2, ema_decay=0.9)
    return theta0, lambda: apo_train(task, theta0, cfg, steps, numkit.make_rng(2),
                                     lambda row: None, mode=mode, base_kind=kind,
                                     init_lr=init_lr)


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
        assert train()[0].flat is not flat
    assert theta0.flat is flat and np.array_equal(flat, before)


@pytest.mark.parametrize("mode,base,meta", BUFFER_RUNS)
def test_apo_train_keeps_one_buffer_per_persistent_state(monkeypatch, mode, base, meta):
    """Over a 20-step run with weight decay, theta, phi, every optimizer
    state (its moments, scratch and Delta), the training gradient and each
    set the meta step writes (theta', dQ/dtheta', dQ/dphi) keep one buffer,
    and each state steps on one gradient buffer: each step writes
    theta once, in place, and each meta step phi, theta' and one MetaWork;
    a KFAC direction is fresh, sharing no memory with the gradient or theta."""
    states, theta_writes, lookaheads, phis, kfac_directions = [], [], [], [], []
    grads, works, meta_grads, lr_scratches, stepped_on = [], [], [], [], {}

    def record_states(kind, state, g, _fn=apo.update_direction):
        before = (state.momentum, state.second, state.scratch, state.delta)
        delta = _fn(kind, state, g)
        assert all(a is b for a, b in zip(
            (state.momentum, state.second, state.scratch, state.delta), before))
        assert delta is (state.momentum if kind.kind == "sgd-momentum" else state.delta)
        states.append((state, *before))
        stepped_on.setdefault(id(state), set()).add(id(g))
        return delta

    def record_step(fn, out_at, scratches=None):
        def step(params, *args, **kwargs):
            out = kwargs.get("out", args[out_at] if len(args) > out_at else None)
            assert out is not None
            (theta_writes if out is params else lookaheads).append((out, out.flat))
            if scratches is not None and out is params:
                scratches.append(args[out_at + 1] if len(args) > out_at + 1 else None)
            return fn(params, *args, **kwargs)
        return step

    def record_grad(*args, _fn=apo.loss_and_grad, **kwargs):
        result = _fn(*args, **kwargs)
        grads.append((result[1], result[1].flat))
        return result

    def record_kfac(g, factors, _fn=apo.kfac_direction):
        delta = _fn(g, factors)
        assert not np.shares_memory(delta, g.flat)
        kfac_directions.append(delta)
        return delta

    def record_meta_gradient(*args, _fn=apo.meta_gradient):
        result = _fn(*args)
        works.append(args[-1])
        meta_grads.append((result[0], result[0].flat))
        return result

    def record_meta(phi, state, meta_grad, cfg, _fn=apo.meta_step):
        phis.append((phi, phi.flat))
        return _fn(phi, state, meta_grad, cfg)

    monkeypatch.setattr(apo, "update_direction", record_states)
    monkeypatch.setattr(apo, "apply_lr_update",
                        record_step(apo.apply_lr_update, 2, lr_scratches))
    precond_step = record_step(kronprecond.apply_precond_update, 3)
    monkeypatch.setattr(kronprecond, "apply_precond_update", precond_step)  # the lookahead
    monkeypatch.setattr(apo, "apply_precond_update", precond_step)  # the step after warm-up
    monkeypatch.setattr(apo, "loss_and_grad", record_grad)
    monkeypatch.setattr(apo, "kfac_direction", record_kfac)
    monkeypatch.setattr(apo, "meta_gradient", record_meta_gradient)
    monkeypatch.setattr(apo, "meta_step", record_meta)
    _, train = buffer_run(mode, base, meta)
    theta, phi = train()

    def one(pairs):
        """Every (set, its flat) pair recorded is the same set and array."""
        return len({id(x) for pair in pairs for x in pair}) == 2

    meta_steps = {"none": 0, "apo-lr": 6, "apo-precond": 20}[mode]
    assert len(theta_writes) == 20 and one(theta_writes)
    assert theta_writes[0][0] is theta and theta_writes[0][1] is theta.flat
    assert len(kfac_directions) == (20 if base == "kfac" else 0)
    assert not any(np.shares_memory(d, theta.flat) for d in kfac_directions)
    distinct = {id(state): state for state, *_ in states}
    assert len(distinct) == {"none": base != "kfac", "apo-lr": 2, "apo-precond": 2}[mode]
    for state in distinct.values():
        own = (state.momentum, state.second, state.scratch, state.delta)
        assert all(a is b for st, *kept in states if st is state for a, b in zip(kept, own))
    # each state steps on one gradient buffer, weight decay included
    assert all(len(ids) == 1 for ids in stepped_on.values())
    # a base step takes lr * Delta through its state's scratch (kfac's state has none)
    base_scratch = None if base == "kfac" else states[0][0].scratch
    assert lr_scratches and all(s is base_scratch for s in lr_scratches)
    # the training pass's gradient, then at a meta step the theta' pass's
    training = [pair for pair in grads if pair[0] is grads[0][0]]
    assert len(training) == 20 and one(training)
    if mode == "none":
        assert not phis and not lookaheads and len(grads) == 20
        return
    theta_passes = [pair for pair in grads if pair[0] is not grads[0][0]]
    assert len(theta_passes) == len(lookaheads) == len(phis) == meta_steps
    for pairs in (theta_passes, lookaheads, phis, meta_grads):
        assert one(pairs)
    work = works[0]
    assert all(w is work for w in works)
    assert lookaheads[0][0] is work.theta_new and theta_passes[0][0] is work.grad
    assert meta_grads[0][0] is work.phi_grad
    assert phis[0][0] is phi and phis[0][1] is phi.flat


def test_phi_linearize_matches_update_and_fd():
    """Each phi type's linearize takes its update's step (apply_lr_update,
    kronprecond.apply_precond_update), and its vjp is the gradient of <v,
    that step>."""
    rng = numkit.make_rng(21)
    model = mlp([3, 4, 2], activation="sigmoid", out_activation="linear")
    theta = init_params(model, rng)
    g, v = (theta.map(lambda a: rng.standard_normal(a.shape)) for _ in range(2))
    delta = rng.standard_normal(theta.size)
    precond = init_identity(model, scale=0.7)
    precond = precond.from_flat(precond.to_flat() + 0.3 * rng.standard_normal(precond.size))

    def update(phi):
        if isinstance(phi, LrPhi):
            return apply_lr_update(theta, phi.lr, delta)
        return kronprecond.apply_precond_update(theta, phi, g, phi.lookahead_products(),
                                                theta.map(np.empty_like))

    for phi in (LrPhi(math.log(0.2)), precond):
        fd = fd_scalar_fn(lambda vec: v.dot(update(phi.from_flat(vec)).flat), phi.to_flat(),
                          h=1e-5)
        work = apo.meta_work(model, theta, phi, ProximalConfig(), 1)
        theta_new, vjp = phi.linearize(theta, g, delta, work)
        assert np.array_equal(theta_new.flat, update(phi).flat)
        assert rel_err(vjp(v).to_flat(), fd) < 1e-7


def test_meta_step_functions_have_one_call_form():
    """The meta-gradient, the proximal objective, both lookaheads and the
    preconditioned step take every parameter from their caller, the arrays
    they write included, and no phi type has an update beside linearize."""
    for fn in (meta_gradient, proximal_value_and_grad, LrPhi.linearize,
               kronprecond.PrecondPhi.linearize, kronprecond.apply_precond_update):
        defaulted = [p.name for p in inspect.signature(fn).parameters.values()
                     if p.default is not p.empty]
        assert not defaulted, (fn.__qualname__, defaulted)
    assert not hasattr(LrPhi, "update") and not hasattr(kronprecond.PrecondPhi, "update")


def test_lr_update_needs_base_direction():
    model, theta, batch = quadratic_setup()
    phi = LrPhi(0.0)
    with pytest.raises(ContractError, match="base direction"):
        phi.linearize(theta, theta.copy(), None,
                      apo.meta_work(model, theta, phi, zero_lam_cfg(), 1))


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
        fresh_meta_gradient(model, theta, huge, batch, batch, cfg,
                            sgd_delta(model, theta, batch))


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
