import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.diffnet import ParamSet, init_params, mlp
from apobench.errors import DimensionError, OracleScaleError
from apobench.kronprecond import (KronBlocks, PrecondPhi, apply_precond,
                                  apply_precond_update, dense_precond, init_identity)
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
    """A PrecondPhi checks its (A, B, S, d) layout once, when it is built;
    apply_precond trusts the blocks."""
    good = (np.eye(2), np.eye(3), np.ones((3, 2)), np.ones(2))
    assert PrecondPhi.from_layers([good, good[:3] + (None,)]).layout == (
        ((2, 2), (3, 3), (3, 2), (2,)), ((2, 2), (3, 3), (3, 2), None))
    for i, bad in ((0, np.eye(3)), (1, np.eye(2)), (2, np.ones((2, 3))), (3, np.ones(3))):
        layer = good[:i] + (bad,) + good[i + 1:]
        with pytest.raises(DimensionError):
            PrecondPhi.from_layers([layer])
    phi = init_identity(mlp([3, 2]))
    with pytest.raises(DimensionError):
        PrecondPhi(phi.flat, (((2, 2), (3, 3), (2, 3), (2,)),))


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
    assert phi.scalar() == float(np.sqrt(sum(np.vdot(a, a) for a in views)))
    assert phi.from_flat(phi.flat).scale == phi.scale


def _separate_vjp(blocks, g, v):
    """precond_vjp's formulas, dA, dB and dS, with every product computed
    afresh, as the VJP computed them before it shared the lookahead's."""
    a, b, s = blocks.a, blocks.b, blocks.s
    s2 = s * s
    t = b.T @ g @ a
    u = s2 * t
    x = b.T @ v @ a
    s2x = s2 * x
    return (g.T @ (b @ s2x) + v.T @ (b @ u), v @ a @ u.T + (g @ a) @ s2x.T,
            2.0 * s * t * x)


def _perturbed_setup(widths, bias, seed, scale):
    """A model, theta, gradient g, upstream v and a non-identity phi."""
    model = mlp(widths, bias=bias)
    rng = numkit.make_rng(seed)
    theta = init_params(model, rng)
    g, v = (theta.map(lambda a: rng.standard_normal(a.shape)) for _ in range(2))
    phi = init_identity(model, scale)
    phi = phi.map(lambda f: f + 0.3 * rng.standard_normal(f.size))
    return theta, g, v, phi


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.booleans(),
       st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
def test_linearize_is_bitwise_the_update_and_an_unshared_vjp(widths, bias, seed, scale):
    theta, g, v, phi = _perturbed_setup(widths, bias, seed, scale)
    attrs = set(vars(phi))
    theta_new, vjp = phi.linearize(theta, g, None)
    assert np.array_equal(theta_new.flat, apply_precond_update(theta, phi, g).flat)
    grad = vjp(v)
    assert type(grad) is PrecondPhi and grad.layout == phi.layout
    assert set(vars(phi)) == attrs   # the lookahead's products stay in the closure
    for blk, d, gw, gb, vw, vb, out, dout in zip(phi.blocks, phi.bias_diags, g.weights,
                                                 g.biases, v.weights, v.biases,
                                                 grad.blocks, grad.bias_diags):
        for got, unshared in zip((out.a, out.b, out.s), _separate_vjp(blk, gw, -scale * vw)):
            assert np.array_equal(got, unshared)
        if d is not None:
            assert np.array_equal(dout, 2.0 * d * gb * (-scale * vb))


class MatmulCounter(np.ndarray):
    """An ndarray that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        MatmulCounter.products += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        MatmulCounter.products += 1
        return super().__rmatmul__(other)


def test_lookahead_and_vjp_share_products():
    """One layer's lookahead and VJP take 13 matrix products: the VJP reuses
    T = B^T G A and B U, which the unshared formulas compute again (16)."""
    theta, g, v, phi = _perturbed_setup([4, 3], True, 8, 0.5)
    theta, g, v, phi = (p.with_flat(p.flat.view(MatmulCounter)) for p in (theta, g, v, phi))
    MatmulCounter.products = 0
    _, vjp = phi.linearize(theta, g, None)
    vjp(v)
    assert MatmulCounter.products == 13
    MatmulCounter.products = 0
    apply_precond_update(theta, phi, g)
    _separate_vjp(phi.blocks[0], g.weights[0], -phi.scale * v.weights[0])
    assert MatmulCounter.products == 16
