import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import diffnet, numkit
from apobench.baseopt import apply_lr_update
from apobench.diffnet import (Batch, LayerSpec, Model, ParamSet, forward, grad_params,
                              init_params, loss_eval, mlp, per_example_jacobian,
                              predictive, rosenbrock_model)
from apobench.errors import ContractError, DimensionError
from apobench.kronprecond import apply_precond_update, init_identity

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
    theta = init_params(model, numkit.make_rng(0)).zeros_like()
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


def test_forward_shape_mismatch():
    model = mlp([3, 2])
    theta = init_params(model, numkit.make_rng(0))
    with pytest.raises(DimensionError):
        forward(model, theta, np.ones((2, 4)))


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
    with pytest.raises(ContractError):
        loss_eval("classification-softmax", np.zeros((2, 3)), np.array([0, 3]))


def test_grad_zero_at_minimum():
    model = mlp([2, 2], activation="sigmoid", out_activation="linear")
    theta = init_params(model, numkit.make_rng(1))
    x = numkit.make_rng(2).standard_normal((4, 2))
    out, _ = forward(model, theta, x)
    g = grad_params(model, theta, Batch(x, out))
    assert g.sq_norm() == 0.0


def test_grad_one_param_quadratic():
    # J(theta) = (theta * x)^2 with x = 1 gives dJ/dtheta = 2 theta; at
    # theta=3 with the loss convention L = ||y - t||^2 the slope is 6.
    model = Model((LayerSpec(1, 1, "linear", False),), "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(np.array([[3.0]]), None)])
    g = grad_params(model, theta, Batch(np.array([[1.0]]), np.array([[0.0]])))
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
    g = grad_params(model, theta, batch).to_flat()
    fd = fd_param_gradient(model, theta, batch)
    assert rel_err(g, fd) < 1e-5
    assert theta.size <= 50


def test_three_layer_fd_check():
    rng = numkit.make_rng(17)
    model = mlp([2, 3, 3, 2], activation="sigmoid")
    theta = init_params(model, rng)
    batch = small_batch(rng, model, n=3)
    assert rel_err(grad_params(model, theta, batch).to_flat(),
                   fd_param_gradient(model, theta, batch)) < 1e-5


def test_jacobian_linear_model_kron_pattern():
    # y = W^T x for a single linear layer: dy_j/dW[i, k] = x_i * delta_{jk}
    model = Model((LayerSpec(3, 2, "linear", False),), "regression-gaussian-unit-variance")
    theta = init_params(model, numkit.make_rng(0))
    x = np.array([[1.0, 2.0, -1.0]])
    jac = per_example_jacobian(model, theta, x)
    expect = np.zeros((2, 6))
    for j in range(2):
        for i in range(3):
            expect[j, i * 2 + j] = x[0, i]
    assert np.abs(jac[0] - expect).max() < 1e-12


def test_jacobian_saturated_relu_rows_zero():
    model = Model((LayerSpec(2, 3, "relu", False), LayerSpec(3, 1, "linear", False)),
                  "regression-gaussian-unit-variance")
    theta = ParamSet.from_layers([(-np.ones((2, 3)), None), (np.ones((3, 1)), None)])
    jac = per_example_jacobian(model, theta, np.array([[1.0, 1.0]]))
    # relu saturates at 0 for all hidden units, so the first-layer block is 0
    assert np.abs(jac[0, 0, :6]).max() == 0.0


def test_jacobian_matches_finite_differences():
    rng = numkit.make_rng(3)
    model = mlp([4, 8, 3], activation="sigmoid")
    theta = init_params(model, rng)
    x = rng.standard_normal((3, 4))
    jac = per_example_jacobian(model, theta, x)
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


def test_jacobian_chain_rule_reproduces_gradient():
    rng = numkit.make_rng(5)
    model = mlp([3, 5, 2], activation="sigmoid")
    theta = init_params(model, rng)
    batch = small_batch(rng, model, n=4)
    jac = per_example_jacobian(model, theta, batch.inputs)
    outputs, _ = forward(model, theta, batch.inputs)
    dy = diffnet.loss_out_grad(model.head, outputs, batch.targets)
    contracted = np.einsum("bj,bjm->m", dy, jac)
    assert rel_err(contracted, grad_params(model, theta, batch).to_flat()) < 1e-10


def test_predictive_uniform():
    p = predictive("classification-softmax", np.zeros((2, 4)))
    assert np.abs(p - 0.25).max() < 1e-12


def test_predictive_hand_softmax():
    p = predictive("classification-softmax", np.array([[np.log(2.0), 0.0]]))
    assert np.allclose(p, [[2 / 3, 1 / 3]], atol=1e-12)


def test_predictive_rows_sum_to_one():
    rng = numkit.make_rng(1)
    p = predictive("classification-softmax", rng.standard_normal((10, 5)) * 30)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_predictive_regression_passthrough():
    y = np.array([[1.0, -2.0]])
    assert np.array_equal(predictive("regression-gaussian-unit-variance", y), y)


def test_rosenbrock_values_and_gradient():
    model = rosenbrock_model()
    at = lambda x, y: ParamSet.from_layers([(np.array([[x], [y]]), None)])
    batch = Batch(np.zeros((1, 1)), np.zeros((1, 1)))
    out, _ = forward(model, at(1.0, 1.0), batch.inputs)
    assert out[0, 0] == 0.0
    out, _ = forward(model, at(1.0, -1.5), batch.inputs)
    assert out[0, 0] == 625.0
    g = grad_params(model, at(1.0, 1.0), batch)
    assert np.abs(g.weights[0]).max() == 0.0
    # FD check away from the minimum
    theta = at(0.3, -0.2)
    assert rel_err(grad_params(model, theta, batch).to_flat(),
                   fd_param_gradient(model, theta, batch, h=1e-6)) < 1e-6


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
    per_array = sum(np.vdot(a, b) for a, b in zip(arrays_of(theta), arrays_of(other)))
    assert theta.dot(other) == float(per_array)
    assert theta.dot(other.flat) == float(per_array)
    assert theta.sq_norm() == float(sum(np.vdot(a, a) for a in arrays_of(theta)))
    with pytest.raises(DimensionError):
        theta.from_flat(np.zeros(theta.size + 1))


@settings(max_examples=60, deadline=None)
@given(random_layers())
def test_container_operations_never_alias_inputs(layers):
    theta = ParamSet.from_layers(layers)
    g = theta.map(np.sin)
    vec = g.to_flat()
    phi = init_identity(model_of(layers))
    outputs = {
        "map": (theta.map(lambda v: 2.0 * v), [theta]),
        "map2": (theta.map2(g, lambda a, b: a - b), [theta, g]),
        "copy": (theta.copy(), [theta]),
        "from_flat": (theta.from_flat(vec), [theta, vec]),
        "to_flat": (vec, [g]),
        "apply_lr_update": (apply_lr_update(theta, 0.1, vec), [theta, vec]),
        "apply_precond_update": (apply_precond_update(theta, phi, g), [theta, g, phi]),
        "phi.copy": (phi.copy(), [phi]),
    }
    for name, (out, inputs) in outputs.items():
        out_flat = getattr(out, "flat", out)
        for x in inputs:
            assert not np.shares_memory(out_flat, getattr(x, "flat", x)), name
