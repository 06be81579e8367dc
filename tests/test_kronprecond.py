import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.diffnet import ParamSet, mlp
from apobench.errors import DimensionError, OracleScaleError
from apobench.kronprecond import (KronBlocks, PrecondPhi, apply_precond,
                                  apply_precond_update, dense_precond, from_json,
                                  init_identity, to_json)
from apobench.numkit import kron_dense, sym_eig_min, unvec_cm, vec_cm


def random_blocks(rng, fan_in, fan_out):
    return KronBlocks(rng.standard_normal((fan_out, fan_out)),
                      rng.standard_normal((fan_in, fan_in)),
                      rng.standard_normal((fan_in, fan_out)))


def dense_apply(blocks, grad):
    """Oracle route: multiply by the materialized preconditioner."""
    p = dense_precond(blocks)
    return unvec_cm(p @ vec_cm(grad), *grad.shape)


def test_identity_blocks_leave_gradient_unchanged():
    blocks = KronBlocks(np.eye(3), np.eye(2), np.ones((2, 3)))
    g = numkit.make_rng(0).standard_normal((2, 3))
    assert np.array_equal(apply_precond(blocks, g), g)


def test_scalar_blocks_hand_value():
    blocks = KronBlocks(np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]]))
    out = apply_precond(blocks, np.array([[4.0]]))
    # dense oracle: P = 6 * 0.25 * 6 = 9, so 9 * 4 = 36
    assert out[0, 0] == pytest.approx(36.0)
    assert dense_precond(blocks)[0, 0] == pytest.approx(9.0)


def test_apply_matches_dense_small():
    rng = numkit.make_rng(4)
    blocks = random_blocks(rng, 4, 4)
    g = rng.standard_normal((4, 4))
    eff = apply_precond(blocks, g)
    ref = dense_apply(blocks, g)
    assert np.abs(eff - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 8), st.integers(1, 8))
def test_equivalence_and_psd_property(seed, fan_in, fan_out):
    rng = numkit.make_rng(seed)
    blocks = random_blocks(rng, fan_in, fan_out)
    g = rng.standard_normal((fan_in, fan_out))
    eff = apply_precond(blocks, g)
    ref = dense_apply(blocks, g)
    assert np.abs(eff - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    p = dense_precond(blocks)
    assert np.abs(p - p.T).max() <= 1e-10 * max(1.0, np.abs(p).max())
    assert sym_eig_min(0.5 * (p + p.T)) >= -1e-10
    # descent direction: the quadratic form is nonnegative
    v = vec_cm(g)
    assert v @ p @ v >= -1e-10 * max(1.0, np.abs(p).max() * (v @ v))


def test_dense_identity_blocks():
    blocks = KronBlocks(np.eye(2), np.eye(3), np.ones((3, 2)))
    assert np.abs(dense_precond(blocks) - np.eye(6)).max() < 1e-14


def test_dense_scale_homogeneity():
    rng = numkit.make_rng(9)
    blocks = random_blocks(rng, 3, 2)
    p1 = dense_precond(blocks)
    scaled = KronBlocks(blocks.a, blocks.b, 2.0 * blocks.s)
    assert np.allclose(dense_precond(scaled), 4.0 * p1)


def test_dense_scale_guard():
    blocks = KronBlocks(np.eye(9), np.eye(9), np.ones((9, 9)))
    with pytest.raises(OracleScaleError):
        dense_precond(blocks)


def test_param_count():
    for fan_in, fan_out in [(3, 2), (8, 8), (1, 5)]:
        blocks = random_blocks(numkit.make_rng(0), fan_in, fan_out)
        assert blocks.param_count == fan_in ** 2 + fan_out ** 2 + fan_in * fan_out


def test_init_identity_contract():
    model = mlp([3, 4, 2], activation="relu")
    phi = init_identity(model)
    assert phi.scale == 0.9
    rng = numkit.make_rng(2)
    for spec, blk in zip(model.layers, phi.blocks):
        g = rng.standard_normal((spec.fan_in, spec.fan_out))
        assert np.array_equal(apply_precond(blk, g), g)
    assert np.abs(dense_precond(phi.blocks[1]) - np.eye(8)).max() < 1e-14


def test_first_update_is_scaled_gradient_bitwise():
    model = mlp([3, 4, 2], activation="relu")
    phi = init_identity(model, scale=0.9)
    rng = numkit.make_rng(3)
    w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    theta = ParamSet.from_layers([(w1, rng.standard_normal(4)), (w2, rng.standard_normal(2))])
    g = theta.map(lambda a: rng.standard_normal(a.shape))
    stepped = apply_precond_update(theta, phi, g)
    expect = theta.map2(g, lambda t, gg: t - 0.9 * gg)
    assert np.array_equal(stepped.flat, expect.flat)


def test_update_zero_gradient_is_identity():
    model = mlp([2, 2])
    phi = init_identity(model)
    theta = ParamSet.from_layers([(np.ones((2, 2)), np.ones(2))])
    out = apply_precond_update(theta, phi, theta.zeros_like())
    assert np.array_equal(out.flat, theta.flat)


def test_update_1x1_hand_value():
    blocks = KronBlocks(np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]]))
    phi = PrecondPhi.from_layers([(blocks.a, blocks.b, blocks.s, None)], 1.0)
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[4.0]]), None)])
    out = apply_precond_update(theta, phi, g)
    assert out.weights[0][0, 0] == pytest.approx(-35.0)


def test_bias_diag_square_parameterization():
    model = mlp([2, 3])
    phi = init_identity(model, scale=1.0)
    phi.bias_diags[0][:] = np.array([2.0, -3.0, 0.5])
    theta = ParamSet.from_layers([(np.zeros((2, 3)), np.zeros(3))])
    g = ParamSet.from_layers([(np.zeros((2, 3)), np.ones(3))])
    out = apply_precond_update(theta, phi, g)
    # diag(d)^2 keeps the bias preconditioner PSD even for negative d
    assert np.allclose(out.biases[0], [-4.0, -9.0, -0.25])


def test_shape_mismatch_raises():
    blocks = KronBlocks(np.eye(2), np.eye(3), np.ones((3, 2)))
    with pytest.raises(DimensionError):
        apply_precond(blocks, np.ones((2, 3)))


def test_json_roundtrip():
    model = mlp([3, 2], activation="sigmoid")
    phi = init_identity(model, scale=0.7)
    phi.blocks[0].s[:] = numkit.make_rng(1).standard_normal((3, 2))
    doc = to_json(phi, layer_names=["enc"])
    back = from_json(doc)
    assert back.scale == phi.scale
    assert np.array_equal(back.blocks[0].s, phi.blocks[0].s)
    assert np.array_equal(back.bias_diags[0], phi.bias_diags[0])


def test_flat_roundtrip():
    model = mlp([3, 4, 2])
    phi = init_identity(model)
    rng = numkit.make_rng(5)
    flat = rng.standard_normal(phi.to_flat().size)
    back = phi.from_flat(flat)
    assert np.array_equal(back.to_flat(), flat)


def test_phi_flat_is_a_b_s_d_per_layer():
    model = mlp([3, 4, 2], bias=True)
    phi = init_identity(model).map(lambda v: v + numkit.make_rng(6).standard_normal(v.shape))
    expect = np.concatenate([a.ravel() for blk, d in zip(phi.blocks, phi.bias_diags)
                             for a in (blk.a, blk.b, blk.s, d)])
    assert np.array_equal(phi.flat, expect)
    views = [a for blk, d in zip(phi.blocks, phi.bias_diags) for a in (blk.a, blk.b, blk.s, d)]
    assert all(np.shares_memory(a, phi.flat) for a in views)
    assert phi.frobenius_norm() == float(np.sqrt(sum(np.vdot(a, a) for a in views)))
    assert phi.from_flat(phi.flat).scale == phi.scale
