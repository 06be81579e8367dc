import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import diffnet, numkit, tasks
from apobench.apo import LrPhi, loss_and_grad
from apobench.baseopt import apply_lr_update
from apobench.diffnet import (Batch, LayerSpec, Model, ParamSet, backward, check_dataset,
                              forward, init_params, loss_eval, loss_value_and_grad, mlp,
                              per_example_jacobian, softmax)
from apobench.errors import ContractError, DimensionError
from apobench.kronprecond import PrecondPhi, apply_precond_update, init_identity

from helpers import fd_param_gradient, rel_err


def small_batch(rng, model, n=5, classification=False):
    x = rng.standard_normal((n, model.d_in))
    if classification:
        t = rng.integers(0, model.d_out, size=n)
    else:
        t = rng.standard_normal((n, model.d_out))
    return Batch(x, t)


def test_forward_zero_params_zero_output():
    model = mlp([3, 4, 2], activation="relu")
    theta = init_params(model, numkit.make_rng(0)).map(np.zeros_like)
    out, _ = forward(model, theta, np.ones((4, 3)))
    assert np.array_equal(out, np.zeros((4, 2)))


def test_forward_identity_layer():
    model = Model((LayerSpec(3, 3, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.eye(3), None)])
    x = numkit.make_rng(0).standard_normal((6, 3))
    out, _ = forward(model, theta, x)
    assert np.array_equal(out, x)


def test_forward_two_layer_composition():
    model = Model((LayerSpec(1, 1, "linear", False), LayerSpec(1, 1, "linear", False)),
                  "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[2.0]]), None), (np.array([[3.0]]), None)])
    out, _ = forward(model, theta, np.array([[1.0]]))
    assert out[0, 0] == 6.0


def test_forward_deterministic():
    rng = numkit.make_rng(9)
    model = mlp([4, 8, 3], activation="sigmoid")
    theta = init_params(model, rng)
    x = rng.standard_normal((7, 4))
    a, _ = forward(model, theta, x)
    b, _ = forward(model, theta, x)
    assert np.array_equal(a, b)


def test_dataset_shape_mismatch():
    """forward trusts its inputs; a task's data is shape-checked at build."""
    model = mlp([3, 2])
    x, t = np.ones((4, 3)), np.zeros((4, 2))
    check_dataset(model, x, t)
    for bad_x, bad_t in ((np.ones((4, 4)), t), (np.ones(4), t), (x, np.zeros((3, 2))),
                         (x, np.zeros((4, 1))), (x, np.zeros(4)),
                         (np.ones((4, 3), dtype=np.float32), t), (x, t.astype(np.int64))):
        with pytest.raises(DimensionError):
            check_dataset(model, bad_x, bad_t)
    with pytest.raises(ContractError):
        check_dataset(model, np.ones((0, 3)), np.zeros((0, 2)))
    with pytest.raises(DimensionError):
        tasks._finite_dataset_task(2, model, np.ones((4, 4)), t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("head", ["regression-gaussian-unit-variance", "classification-softmax"])
def test_dataset_non_finite_row_is_named(bad, head):
    """A non-finite input, or float target, is a ContractError at its first row."""
    model = mlp([3, 2], head=head)
    x = np.ones((5, 3))
    t = np.zeros((5, 2)) if head.startswith("regression") else np.zeros(5, dtype=np.int64)
    x[3, 1] = bad
    with pytest.raises(ContractError, match="^row 3 "):
        check_dataset(model, x, t)
    if head.startswith("regression"):
        x[3, 1] = 1.0
        t[2, 0] = t[4, 1] = bad
        with pytest.raises(ContractError, match="^row 2 "):
            check_dataset(model, x, t)


def test_loss_regression_zero_at_target():
    assert loss_eval("regression-gaussian-unit-variance", np.ones((3, 2)), np.ones((3, 2))) == 0.0


def test_loss_regression_hand_value():
    assert loss_eval("regression-gaussian-unit-variance",
                     np.array([[0.0]]), np.array([[2.0]])) == 4.0


def test_loss_uniform_logits_is_log_c():
    for c in (2, 3, 7):
        logits = np.zeros((4, c))
        labels = np.arange(4) % c
        assert loss_eval("classification-softmax", logits, labels) == pytest.approx(np.log(c))


def test_loss_label_out_of_range():
    """Labels are checked where a task's data enters, not by the loss, which
    would wrap a negative label to the last class."""
    model = mlp([2, 3], head="classification-softmax")
    x = np.ones((2, 2))
    check_dataset(model, x, np.array([0, 2]))
    for labels in (np.array([0, 3]), np.array([-1, 0]), np.array([0.0, 1.0]),
                   np.eye(3)[[0, 1]].astype(np.int64), np.array(["a", "b"])):
        with pytest.raises(ContractError):
            check_dataset(model, x, labels)
    with pytest.raises(ContractError):
        tasks._finite_dataset_task(2, model, x, np.array([1, -1]))


def test_grad_zero_at_minimum():
    model = mlp([2, 2], activation="sigmoid", out_activation="linear")
    theta = init_params(model, numkit.make_rng(1))
    x = numkit.make_rng(2).standard_normal((4, 2))
    out, _ = forward(model, theta, x)
    g = loss_and_grad(model, theta, Batch(x, out))[1]
    assert g.sq_norm() == 0.0


def test_grad_one_param_quadratic():
    # J(theta) = (theta * x)^2 with x = 1 gives dJ/dtheta = 2 theta; at
    # theta=3 with the loss convention L = ||y - t||^2 the slope is 6.
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[3.0]]), None)])
    g = loss_and_grad(model, theta, Batch(np.array([[1.0]]), np.array([[0.0]])))[1]
    assert g.weights[0][0, 0] == pytest.approx(6.0)


@pytest.mark.parametrize("activation,classification", [
    ("sigmoid", False), ("sigmoid", True), ("linear", False), ("relu", False),
])
def test_grad_matches_finite_differences(activation, classification):
    rng = numkit.make_rng(42 if classification else 7)
    head = "classification-softmax" if classification else "regression-gaussian-unit-variance"
    model = mlp([3, 4, 2], activation=activation, head=head)
    theta = init_params(model, rng)
    if activation == "relu":
        # keep pre-activations away from the kink for the FD oracle
        theta = theta.map(lambda w: w + 0.05)
    batch = small_batch(rng, model, n=4, classification=classification)
    g = loss_and_grad(model, theta, batch)[1].to_flat()
    fd = fd_param_gradient(model, theta, batch)
    assert rel_err(g, fd) < 1e-5
    assert theta.size <= 50


def test_three_layer_fd_check():
    rng = numkit.make_rng(17)
    model = mlp([2, 3, 3, 2], activation="sigmoid")
    theta = init_params(model, rng)
    batch = small_batch(rng, model, n=3)
    assert rel_err(loss_and_grad(model, theta, batch)[1].to_flat(),
                   fd_param_gradient(model, theta, batch)) < 1e-5


def test_jacobian_linear_model_kron_pattern():
    # y = W^T x for a single linear layer: dy_j/dW[i, k] = x_i * delta_{jk}
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    theta = init_params(model, numkit.make_rng(0))
    x = np.array([[1.0, 2.0, -1.0]])
    _, jac = per_example_jacobian(model, theta, x)
    expect = np.zeros((2, 6))
    for j in range(2):
        for i in range(3):
            expect[j, i * 2 + j] = x[0, i]
    assert np.abs(jac[0] - expect).max() < 1e-12


def test_jacobian_saturated_relu_rows_zero():
    model = Model((LayerSpec(2, 3, "relu", False), LayerSpec(3, 1, "linear", False)),
                  "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(-np.ones((2, 3)), None), (np.ones((3, 1)), None)])
    _, jac = per_example_jacobian(model, theta, np.array([[1.0, 1.0]]))
    # relu saturates at 0 for all hidden units, so the first-layer block is 0
    assert np.abs(jac[0, 0, :6]).max() == 0.0


def test_jacobian_matches_finite_differences():
    rng = numkit.make_rng(3)
    model = mlp([4, 8, 3], activation="sigmoid")
    theta = init_params(model, rng)
    x = rng.standard_normal((3, 4))
    _, jac = per_example_jacobian(model, theta, x)
    flat = theta.to_flat()
    h = 1e-5
    for b in range(3):
        fd = np.zeros_like(jac[b])
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            yp, _ = forward(model, theta.from_flat(flat + e), x[b:b + 1])
            ym, _ = forward(model, theta.from_flat(flat - e), x[b:b + 1])
            fd[:, i] = (yp - ym)[0] / (2 * h)
        assert rel_err(jac[b], fd) < 1e-5
    assert theta.size <= 200


def test_predictive_uniform():
    p = softmax(np.zeros((2, 4)))
    assert np.abs(p - 0.25).max() < 1e-12


def test_predictive_hand_softmax():
    p = softmax(np.array([[np.log(2.0), 0.0]]))
    assert np.allclose(p, [[2 / 3, 1 / 3]], atol=1e-12)


def test_predictive_rows_sum_to_one():
    rng = numkit.make_rng(1)
    p = softmax(rng.standard_normal((10, 5)) * 30)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def row_max_softmax_parts(y):
    """diffnet._softmax_parts with the maximum reduced along each row."""
    z = y - np.maximum.reduce(y, axis=1, keepdims=True)
    e = np.exp(z)
    return z, e, np.add.reduce(e, axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.integers(1, 11), st.integers(-3, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_softmax_parts_match_row_max_bytes(rows, cols, log_scale, zeros, seed):
    """The column-wise maximum gives the bytes of the row-wise one.  Ties of
    0.0 and -0.0 may leave a zero row maximum with either sign, which can
    flip only the sign of a zero in z: exp, the row sums and the loss agree
    byte for byte."""
    rng = numkit.make_rng(seed)
    y = rng.standard_normal((rows, cols)) * 10.0 ** log_scale
    if zeros:
        y = np.where(rng.random(y.shape) < 0.5, rng.choice([0.0, -0.0], y.shape), y)
    (z, e, total), (z0, e0, total0) = diffnet._softmax_parts(y), row_max_softmax_parts(y)
    assert e.tobytes() == e0.tobytes() and total.tobytes() == total0.tobytes()
    assert np.array_equal(z, z0) and z[z0 != 0].tobytes() == z0[z0 != 0].tobytes()
    pick = np.arange(rows), rng.integers(0, cols, rows)
    assert (np.add.reduce(np.log(total[:, 0]) - z[pick]) ==
            np.add.reduce(np.log(total0[:, 0]) - z0[pick]))


def test_paramset_flatten_roundtrip():
    rng = numkit.make_rng(8)
    model = mlp([3, 4, 2], activation="relu")
    theta = init_params(model, rng)
    again = theta.from_flat(theta.to_flat())
    for a, b in zip(theta.weights + theta.biases, again.weights + again.biases):
        assert np.array_equal(a, b)


# ------------------------------------------------------------ flat layout


@st.composite
def random_layers(draw):
    """Per layer (W, b or None) for a random width chain, biases optional."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    has_bias = draw(st.lists(st.booleans(), min_size=len(widths) - 1,
                             max_size=len(widths) - 1))
    rng = numkit.make_rng(draw(st.integers(0, 2**32 - 1)))
    return [(rng.standard_normal((m, n)), rng.standard_normal(n) if b else None)
            for m, n, b in zip(widths, widths[1:], has_bias)]


def arrays_of(params):
    return [a for w, b in zip(params.weights, params.biases) for a in (w, b) if a is not None]


def model_of(layers):
    return Model(tuple(LayerSpec(*w.shape, "linear", b is not None) for w, b in layers),
                 "regression-gaussian-unit-variance")


@settings(max_examples=60, deadline=None)
@given(random_layers())
def test_flat_is_storage_order_and_views_share_it(layers):
    theta = ParamSet.from_layers(layers)
    expect = np.concatenate([a.ravel() for w, b in layers for a in (w, b) if a is not None])
    assert np.array_equal(theta.flat, expect)
    assert theta.flat.flags.c_contiguous and theta.size == expect.size
    assert all(np.shares_memory(a, theta.flat) for a in arrays_of(theta))
    theta.weights[-1][...] = 7.0
    assert np.count_nonzero(theta.flat == 7.0) >= theta.weights[-1].size
    with pytest.raises(TypeError):
        theta.weights[0] = np.zeros_like(theta.weights[0])
    with pytest.raises(TypeError):
        theta.biases[0] = None


@settings(max_examples=60, deadline=None)
@given(random_layers())
def test_flat_roundtrip_and_dot_order(layers):
    theta = ParamSet.from_layers(layers)
    other = theta.map(lambda v: np.cos(v) - 0.5)
    back = theta.from_flat(theta.to_flat())
    assert back.layout == theta.layout
    assert all(np.array_equal(a, b) for a, b in zip(arrays_of(back), arrays_of(theta)))
    # one reduction over the arrays concatenated in layout order
    mine, theirs = (np.concatenate([a.ravel() for a in arrays_of(p)]) for p in (theta, other))
    assert theta.dot(other) == float(np.vdot(mine, theirs))
    assert theta.dot(other.flat) == float(np.vdot(mine, theirs))
    assert theta.sq_norm() == float(np.vdot(mine, mine))
    assert theta.sq_norm(other.flat) == other.sq_norm()
    with pytest.raises(DimensionError):
        theta.from_flat(np.zeros(theta.size + 1))


@settings(max_examples=60, deadline=None)
@given(random_layers())
def test_stacked_views_are_w_with_b_appended(layers):
    theta = ParamSet.from_layers(layers)
    for view, (w, b) in zip(theta.stacked(), layers):
        assert np.shares_memory(view, theta.flat)
        assert np.array_equal(view, w if b is None else np.vstack([w, b]))


@settings(max_examples=60, deadline=None)
@given(random_layers(), st.lists(st.sampled_from(diffnet.ACTIVATIONS), min_size=4, max_size=4),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_jacobian_rows_are_batch_invariant(layers, activations, bsz, seed):
    """Row b of the batched Jacobian is the Jacobian of example b alone, and
    contracting it with an output gradient gives backward's gradient."""
    model = Model(tuple(LayerSpec(*w.shape, act, b is not None)
                        for (w, b), act in zip(layers, activations)),
                  "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers(layers)
    rng = numkit.make_rng(seed)
    x = rng.standard_normal((bsz, model.d_in))
    _, jac = per_example_jacobian(model, theta, x)
    assert jac.shape == (bsz, model.d_out, theta.size)
    for b in range(bsz):
        one = per_example_jacobian(model, theta, x[b:b + 1])[1][0]
        assert np.abs(jac[b] - one).max() <= 1e-12 * max(1.0, np.abs(one).max())
    dy = rng.standard_normal((bsz, model.d_out))
    g, _ = backward(model, theta, forward(model, theta, x)[1], dy)
    vjp = np.einsum("bj,bjm->m", dy, jac)
    assert np.abs(vjp - g.flat).max() <= 1e-12 * max(1.0, np.abs(g.flat).max())


def test_phi_types_rebuild_through_from_layers():
    lr = LrPhi.from_layers([((0.5,),)])
    assert type(lr) is LrPhi and lr.log_lr == 0.5 and np.array_equal(lr.flat, [0.5])
    with pytest.raises(DimensionError):
        LrPhi.from_layers([((0.5, 0.1),)])
    rng = numkit.make_rng(3)
    phi = init_identity(mlp([3, 4, 2]), scale=0.4).map(
        lambda f: f + rng.standard_normal(f.size))
    again = PrecondPhi.from_layers(
        [(blk.a, blk.b, blk.s, d) for blk, d in zip(phi.blocks, phi.bias_diags)], phi.scale)
    assert type(again) is PrecondPhi and again.layout == phi.layout
    assert np.array_equal(again.flat, phi.flat) and again.scale == 0.4


@settings(max_examples=60, deadline=None)
@given(random_layers())
def test_container_operations_never_alias_inputs(layers):
    """Each operation that builds a fresh set, the step functions at out=None
    included, shares no memory with its inputs (meta_step, which writes phi
    in place, is tested in test_apo)."""
    theta = ParamSet.from_layers(layers)
    g = theta.map(np.sin)
    vec = g.to_flat()
    phi = init_identity(model_of(layers))
    lr, lr_grad = LrPhi(float(vec[0])), LrPhi(-0.3)
    outputs = {
        "map": (theta.map(lambda v: 2.0 * v), [theta]),
        "map2": (theta.map2(g, lambda a, b: a - b), [theta, g]),
        "copy": (theta.copy(), [theta]),
        "from_flat": (theta.from_flat(vec), [theta, vec]),
        "to_flat": (vec, [g]),
        "apply_lr_update": (apply_lr_update(theta, 0.1, vec), [theta, vec]),
        "apply_precond_update": (apply_precond_update(theta, phi, g, phi.lookahead_products(),
                                                      theta.map(np.empty_like)), [theta, g, phi]),
        "phi.copy": (phi.copy(), [phi]),
        "lr_phi.copy": (lr.copy(), [lr]),
        "lr_phi.from_flat": (lr.from_flat(lr_grad.flat), [lr, lr_grad]),
    }
    for name, (out, inputs) in outputs.items():
        out_flat = getattr(out, "flat", out)
        for x in inputs:
            assert not np.shares_memory(out_flat, getattr(x, "flat", x)), name


@pytest.mark.parametrize("activations", [("relu", "linear", "sigmoid"),
                                         ("sigmoid", "relu", "linear")])
def test_backward_reads_activations_from_the_trace(monkeypatch, activations):
    """backward calls no activation function: every activation, the output
    layer's included, comes from the forward trace."""
    calls = []
    act = diffnet._act
    monkeypatch.setattr(diffnet, "_act", lambda name, s: calls.append(name) or act(name, s))
    widths = (3, 5, 4, 2)
    model = Model(tuple(LayerSpec(m, n, a) for m, n, a in zip(widths, widths[1:], activations)),
                  "regression-gaussian-unit-variance")
    rng = numkit.make_rng(21)
    theta = init_params(model, rng)
    batch = small_batch(rng, model)
    outputs, trace = forward(model, theta, batch.inputs)
    assert calls == list(activations)
    _, dy = loss_value_and_grad(model.head, outputs, batch.targets)
    g, _ = backward(model, theta, trace, dy)
    assert calls == list(activations)
    assert rel_err(g.flat, fd_param_gradient(model, theta, batch)) < 1e-6


def _separate_loss_passes(head, outputs, targets):
    """The loss and its output gradient by the formulas that computed them
    apart (loss_eval and the deleted loss_out_grad), through numpy's
    reduction wrappers."""
    b = len(outputs)
    if head == "regression-gaussian-unit-variance":
        return (float(np.mean(np.sum((outputs - targets) ** 2, axis=1))),
                2.0 * (outputs - targets) / b)
    z = outputs - outputs.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.sum(np.exp(z), axis=1)) - z[np.arange(b), targets]))
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(b), targets] -= 1.0
    return loss, p / b


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(diffnet.HEADS), st.integers(1, 40), st.integers(1, 12),
       st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_loss_value_and_grad_is_bitwise_the_separate_passes(head, b, d, spread, seed):
    rng = numkit.make_rng(seed)
    outputs = spread * rng.standard_normal((b, d))
    targets = (rng.integers(0, d, b) if head == "classification-softmax"
               else rng.standard_normal((b, d)))
    loss, dy = loss_value_and_grad(head, outputs, targets)
    expect_loss, expect_dy = _separate_loss_passes(head, outputs, targets)
    assert loss == expect_loss == loss_eval(head, outputs, targets)
    assert np.array_equal(dy, expect_dy)
