import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.baseopt import (KINDS, BaseOptKind, apply_lr_update, init_state,
                              update_direction)
from apobench.diffnet import ParamSet
from apobench.errors import ContractError

from helpers import textbook_step


def vec(*values):
    return np.array(values, dtype=float)


def params(*values):
    return ParamSet.from_layers([(vec(*values), None)])


def test_sgd_direction_is_gradient():
    g = vec(1.0, -2.0, 0.5)
    kind = BaseOptKind("sgd")
    delta = update_direction(kind, init_state(kind, g), g)
    assert np.array_equal(delta, g)


def test_momentum_recurrence():
    kind = BaseOptKind("sgd-momentum", beta=0.9)
    g = vec(1.0)
    state = init_state(kind, g)
    d1 = update_direction(kind, state, g)
    assert d1[0] == pytest.approx(1.0)
    d2 = update_direction(kind, state, g)
    assert d2[0] == pytest.approx(1.9)


def test_adam_first_step_near_sign():
    kind = BaseOptKind("adam")
    g = vec(0.5)
    delta = update_direction(kind, init_state(kind, g), g)
    assert delta[0] == pytest.approx(0.99999998, abs=1e-8)


def test_rmsprop_direction():
    kind = BaseOptKind("rmsprop", rms_beta2=0.99, eps=1e-8)
    g = vec(2.0)
    state = init_state(kind, g)
    delta = update_direction(kind, state, g)
    v = 0.01 * 4.0
    assert delta[0] == pytest.approx(2.0 / (np.sqrt(v) + 1e-8))
    assert state.second[0] == pytest.approx(v)


def test_determinism():
    """Two states from the same start, advanced by the same gradients, give
    the same directions and moments bit for bit."""
    kind = BaseOptKind("adam")
    g = vec(0.3, -0.7)
    s1, s2 = init_state(kind, g), init_state(kind, g)
    for t in (1, 2):
        d1 = update_direction(kind, s1, g)
        d2 = update_direction(kind, s2, g)
        assert np.array_equal(d1, d2)
        assert s1.step == s2.step == t
        assert np.array_equal(s1.momentum, s2.momentum)
        assert np.array_equal(s1.second, s2.second)


@pytest.mark.parametrize("kind_name", ["rmsprop"])
def test_scale_invariance_small_eps(kind_name):
    kind = BaseOptKind(kind_name, eps=1e-12)
    rng = numkit.make_rng(0)
    g = rng.standard_normal(6) + 2.0
    g10 = 10.0 * g
    d1 = update_direction(kind, init_state(kind, g), g)
    d2 = update_direction(kind, init_state(kind, g10), g10)
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


def test_apply_lr_through_scratch_is_bitwise_the_fresh_update():
    """Given out (theta itself) and a scratch, theta - lr * Delta is written
    in place, bit for bit the fresh result, with lr * Delta left in the
    scratch."""
    rng = numkit.make_rng(3)
    theta = ParamSet.from_layers([(rng.standard_normal((3, 2)), rng.standard_normal(2))])
    delta = rng.standard_normal(theta.size)
    fresh = apply_lr_update(theta, 0.3, delta)
    scratch = np.full(theta.size, np.nan)
    assert apply_lr_update(theta, 0.3, delta, theta, scratch) is theta
    assert np.array_equal(theta.flat, fresh.flat) and np.array_equal(scratch, 0.3 * delta)


def test_bad_hyperparameters_rejected():
    with pytest.raises(ContractError):
        BaseOptKind("sgd-momentum", beta=1.0)
    with pytest.raises(ContractError):
        BaseOptKind("adam", eps=0.0)
    with pytest.raises(ContractError):
        BaseOptKind("newton")


@pytest.mark.parametrize("field,value", [("damping", -1.0), ("update_every", 0),
                                         ("ema_decay", 1.5), ("ema_decay", 1.0),
                                         ("ema_decay", -0.1)])
def test_bad_kfac_settings_rejected_at_construction(field, value):
    """update_every 0 would divide by zero at step 2, and ema_decay 1.5 train
    until a refresh fails to factor: each is refused up front, by name."""
    with pytest.raises(ContractError, match=f"^{field} "):
        BaseOptKind("kfac", **{field: value})


def test_momentum_state_not_aliased():
    """The momentum buffer is the state's own: one buffer across steps,
    shared with neither g nor another state; its direction is that buffer."""
    kind = BaseOptKind("sgd-momentum", beta=0.5)
    g = vec(1.0)
    state, other = init_state(kind, g), init_state(kind, g)
    buf = state.momentum
    for want in (1.0, 1.5):
        delta = update_direction(kind, state, g)
        assert state.momentum is buf and delta is buf
        assert delta[0] == want and g[0] == 1.0
        assert not np.shares_memory(buf, g) and not np.shares_memory(buf, other.momentum)
    assert other.momentum[0] == 0.0 and other.step == 0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 50), st.integers(1, 6),
       st.floats(0.0, 0.999), st.floats(0.0, 0.9999), st.integers(-4, 4),
       st.integers(0, 2 ** 32 - 1))
def test_update_direction_matches_textbook_bit_for_bit(name, n, steps, beta, beta2,
                                                       log_scale, seed):
    kind = BaseOptKind(name, beta=beta, beta2=beta2, rms_beta2=beta2)
    rng = numkit.make_rng(seed)
    state = init_state(kind, np.zeros(n))
    buffers = (state.momentum, state.second)
    kept = (state.scratch, state.delta)
    m = v = np.zeros(n)
    for t in range(1, steps + 1):
        g = rng.standard_normal(n) * 10.0 ** log_scale
        g_before = g.copy()
        delta = update_direction(kind, state, g)
        want, m, v = textbook_step(kind, m, v, t, g)
        assert np.array_equal(delta, want)
        assert state.step == t
        for got, buf, expect in zip((state.momentum, state.second), buffers, (m, v)):
            assert got is buf  # advanced in place
            assert got is None or np.array_equal(got, expect)
            # only sgd-momentum's direction is a moment buffer
            assert got is None or np.shares_memory(got, delta) == (name == "sgd-momentum")
        assert not np.shares_memory(delta, g) and np.array_equal(g, g_before)
        # Delta lives in the state's own buffer, the same one every step
        assert state.scratch is kept[0] and state.delta is kept[1]
        assert delta is (state.momentum if name == "sgd-momentum" else state.delta)
