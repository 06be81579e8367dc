import numpy as np
import pytest

from apobench import numkit
from apobench.baseopt import BaseOptKind, apply_lr_update, init_state, update_direction
from apobench.diffnet import ParamSet
from apobench.errors import ContractError


def vec(*values):
    return np.array(values, dtype=float)


def params(*values):
    return ParamSet.from_layers([(vec(*values), None)])


def test_sgd_direction_is_gradient():
    g = vec(1.0, -2.0, 0.5)
    kind = BaseOptKind("sgd")
    delta, _ = update_direction(kind, init_state(kind, g), g)
    assert np.array_equal(delta, g)


def test_momentum_recurrence():
    kind = BaseOptKind("sgd-momentum", beta=0.9)
    g = vec(1.0)
    state = init_state(kind, g)
    d1, state = update_direction(kind, state, g)
    assert d1[0] == pytest.approx(1.0)
    d2, _ = update_direction(kind, state, g)
    assert d2[0] == pytest.approx(1.9)


def test_adam_first_step_near_sign():
    kind = BaseOptKind("adam")
    g = vec(0.5)
    delta, _ = update_direction(kind, init_state(kind, g), g)
    assert delta[0] == pytest.approx(0.99999998, abs=1e-8)


def test_rmsprop_direction():
    kind = BaseOptKind("rmsprop", rms_beta2=0.99, eps=1e-8)
    g = vec(2.0)
    delta, state = update_direction(kind, init_state(kind, g), g)
    v = 0.01 * 4.0
    assert delta[0] == pytest.approx(2.0 / (np.sqrt(v) + 1e-8))
    assert state.second[0] == pytest.approx(v)


def test_determinism():
    kind = BaseOptKind("adam")
    g = vec(0.3, -0.7)
    s0 = init_state(kind, g)
    d1, s1 = update_direction(kind, s0, g)
    d2, s2 = update_direction(kind, s0, g)
    assert np.array_equal(d1, d2)
    assert s1.step == s2.step
    assert np.array_equal(s1.momentum, s2.momentum)


@pytest.mark.parametrize("kind_name", ["rmsprop", "adam"])
def test_scale_invariance_small_eps(kind_name):
    kind = BaseOptKind(kind_name, eps=1e-12)
    rng = numkit.make_rng(0)
    g = rng.standard_normal(6) + 2.0
    g10 = 10.0 * g
    d1, _ = update_direction(kind, init_state(kind, g), g)
    d2, _ = update_direction(kind, init_state(kind, g10), g10)
    assert np.abs(d1 - d2).max() < 1e-6 * np.abs(d2).max()


def test_apply_lr_zero_is_identity():
    theta = params(1.0, 2.0)
    out = apply_lr_update(theta, 0.0, vec(5.0, -1.0))
    assert np.array_equal(out.weights[0], theta.weights[0])


def test_apply_lr_hand_value():
    out = apply_lr_update(params(1.0, 2.0), 0.1, vec(0.5, -1.0))
    assert np.allclose(out.weights[0], [0.95, 2.1])


def test_apply_lr_zero_direction():
    theta = params(3.0)
    out = apply_lr_update(theta, 0.7, vec(0.0))
    assert np.array_equal(out.weights[0], theta.weights[0])


def test_bad_hyperparameters_rejected():
    with pytest.raises(ContractError):
        BaseOptKind("sgd-momentum", beta=1.0)
    with pytest.raises(ContractError):
        BaseOptKind("adam", eps=0.0)
    with pytest.raises(ContractError):
        BaseOptKind("newton")


def test_momentum_state_not_aliased():
    kind = BaseOptKind("sgd-momentum", beta=0.5)
    g = vec(1.0)
    state = init_state(kind, g)
    delta, state1 = update_direction(kind, state, g)
    delta[0] = 99.0
    assert state1.momentum[0] == pytest.approx(1.0)
