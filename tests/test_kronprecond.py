import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.apo import MetaWork, default_precond_config, meta_step
from apobench.baseopt import init_state
from apobench.diffnet import ParamSet, init_params, mlp
from apobench.errors import DimensionError, OracleScaleError
from apobench.kronprecond import (DEFAULT_SCALE, KronBlocks, PrecondPhi, apply_precond,
                                  apply_precond_update, dense_precond, init_identity)

from helpers import rel_err


def random_blocks(rng, fan_in, fan_out):
    return KronBlocks(rng.standard_normal((fan_out, fan_out)),
                      rng.standard_normal((fan_in, fan_in)),
                      rng.standard_normal((fan_in, fan_out)))


def dense_apply(blocks, grad):
    """Oracle route: multiply by the materialized preconditioner."""
    return (dense_precond(blocks) @ grad.ravel()).reshape(grad.shape)


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
    assert np.linalg.eigvalsh(0.5 * (p + p.T))[0] >= -1e-10
    # descent direction: the quadratic form is nonnegative
    v = g.ravel()
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
    blocks = KronBlocks(np.eye(45), np.eye(45), np.ones((45, 45)))  # 2,025 weights
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


def _meta_work(theta, phi):
    """A new record of the arrays a preconditioner's lookahead and VJP write."""
    return MetaWork(theta_new=theta.map(np.empty_like), phi_grad=phi.map(np.empty_like),
                    products=phi.lookahead_products())


def _update(theta, phi, g):
    """apply_precond_update into a new theta' through a new PrecondWork."""
    return apply_precond_update(theta, phi, g, phi.lookahead_products(),
                                theta.map(np.empty_like))


def test_first_update_is_scaled_gradient_bitwise():
    model = mlp([3, 4, 2], activation="relu")
    phi = init_identity(model, scale=0.9)
    rng = numkit.make_rng(3)
    w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    theta = ParamSet.from_layers([(w1, rng.standard_normal(4)), (w2, rng.standard_normal(2))])
    g = theta.map(lambda a: rng.standard_normal(a.shape))
    stepped = _update(theta, phi, g)
    expect = theta.map2(g, lambda t, gg: t - 0.9 * gg)
    assert np.array_equal(stepped.flat, expect.flat)


def test_update_zero_gradient_is_identity():
    model = mlp([2, 2])
    phi = init_identity(model)
    theta = ParamSet.from_layers([(np.ones((2, 2)), np.ones(2))])
    out = _update(theta, phi, theta.map(np.zeros_like))
    assert np.array_equal(out.flat, theta.flat)


def test_update_1x1_hand_value():
    blocks = KronBlocks(np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]]))
    phi = PrecondPhi.from_layers([(blocks.a, blocks.b, blocks.s, None)], 1.0)
    theta = ParamSet.from_layers([(np.array([[1.0]]), None)])
    g = ParamSet.from_layers([(np.array([[4.0]]), None)])
    out = _update(theta, phi, g)
    assert out.weights[0][0, 0] == pytest.approx(-35.0)


def test_bias_diag_square_parameterization():
    model = mlp([2, 3])
    phi = init_identity(model, scale=1.0)
    phi.bias_diags[0][:] = np.array([2.0, -3.0, 0.5])
    theta = ParamSet.from_layers([(np.zeros((2, 3)), np.zeros(3))])
    g = ParamSet.from_layers([(np.zeros((2, 3)), np.ones(3))])
    out = _update(theta, phi, g)
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


def test_phi_flat_is_every_a_then_every_b_s_d():
    """PrecondPhi stores phi kind-major: every layer's A, then every B, every
    S and every d (a bias-free layer has none); regions are those four
    contiguous views of flat, and each block is a view of its region."""
    rng = numkit.make_rng(6)
    layers = [tuple(None if shape is None else rng.standard_normal(shape) for shape in layer)
              for layer in (((4, 4), (3, 3), (3, 4), (4,)), ((2, 2), (4, 4), (4, 2), None),
                            ((5, 5), (2, 2), (2, 5), (5,)))]
    phi = PrecondPhi.from_layers(layers, 0.4)
    kinds = [[layer[i] for layer in layers if layer[i] is not None] for i in range(4)]
    expect = np.concatenate([a.ravel() for kind in kinds for a in kind])
    assert np.array_equal(phi.flat, expect)
    for region, kind in zip(phi.regions, kinds):
        assert np.shares_memory(region, phi.flat)
        assert np.array_equal(region, np.concatenate([a.ravel() for a in kind]))
    for layer, blk, d in zip(layers, phi.blocks, phi.bias_diags):
        for given_array, view, region in zip(layer, (blk.a, blk.b, blk.s, d), phi.regions):
            if given_array is None:
                assert view is None
            else:
                assert np.array_equal(view, given_array) and np.shares_memory(view, region)
    assert phi.scalar() == float(np.sqrt(np.vdot(expect, expect)))
    assert phi.from_flat(phi.flat).scale == phi.scale


def _separate_vjp(blocks, g, v):
    """precond_vjp's formulas, dA, dB and dS, with every product computed
    afresh in the VJP's association (T = B^T (G A), X = B^T (V A)), as the
    VJP computed them before it shared the lookahead's."""
    a, b, s = blocks.a, blocks.b, blocks.s
    s2 = s * s
    t = b.T @ (g @ a)
    u = s2 * t
    x = b.T @ (v @ a)
    s2x = s2 * x
    return (g.T @ (b @ s2x) + v.T @ (b @ u), (v @ a) @ u.T + (g @ a) @ s2x.T,
            2.0 * s * t * x)


def _textbook_update(theta, phi, g):
    """theta' layer by layer with plain @, in apply_precond's association:
    W - c (B (S^2 * (B^T (G A)))) A^T and b - c ((d d) g_b)."""
    c, layers = phi.scale, []
    for w, b, gw, gb, blk, d in zip(theta.weights, theta.biases, g.weights, g.biases,
                                    phi.blocks, phi.bias_diags):
        a, bb, s = blk.a, blk.b, blk.s
        layers.append((w - c * ((bb @ ((s * s) * (bb.T @ (gw @ a)))) @ a.T),
                       None if b is None else b - c * ((d * d) * gb)))
    return ParamSet.from_layers(layers)


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
    """theta' is bitwise the textbook per-layer update, and each layer's VJP
    the unshared formulas."""
    theta, g, v, phi = _perturbed_setup(widths, bias, seed, scale)
    attrs = set(vars(phi))
    theta_new, vjp = phi.linearize(theta, g, None, _meta_work(theta, phi))
    assert np.array_equal(theta_new.flat, _textbook_update(theta, phi, g).flat)
    grad = vjp(v)
    assert type(grad) is PrecondPhi and grad.layout == phi.layout
    assert set(vars(phi)) == attrs   # the lookahead's products stay in the record
    for blk, d, gw, gb, vw, vb, out, dout in zip(phi.blocks, phi.bias_diags, g.weights,
                                                 g.biases, v.weights, v.biases,
                                                 grad.blocks, grad.bias_diags):
        for got, unshared in zip((out.a, out.b, out.s), _separate_vjp(blk, gw, -scale * vw)):
            assert np.array_equal(got, unshared)
        if d is not None:
            assert np.array_equal(dout, 2.0 * d * gb * (-scale * vb))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_update_is_dense_precond_on_layer_slices_of_flat(widths, bias, seed):
    """Storage order: per layer, theta' = theta - c P g on the layer's slice of
    the flat vectors, P = dense_precond(blocks); each bias b - c d^2 g_b."""
    theta, g, _, phi = _perturbed_setup(widths, bias, seed, DEFAULT_SCALE)
    c = phi.scale
    out = _update(theta, phi, g).flat
    i = 0
    for (w_shape, b_shape), blk, d in zip(theta.layout, phi.blocks, phi.bias_diags):
        j = i + math.prod(w_shape)
        ref = theta.flat[i:j] - c * dense_precond(blk) @ g.flat[i:j]
        assert rel_err(out[i:j], ref) <= 1e-12
        if b_shape is not None:
            i, j = j, j + b_shape[0]
            assert rel_err(out[i:j], theta.flat[i:j] - c * d * d * g.flat[i:j]) <= 1e-12
        i = j
    assert i == out.size


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_one_kept_record_through_meta_steps_gives_a_fresh_records_bytes(widths, bias, seed):
    """One MetaWork, its PrecondWork included, reused through in-place meta
    steps of phi gives, at each step, the bytes of a new record: theta',
    dQ/dphi (twice from one lookahead) and the update through the record."""
    theta, g, v, phi = _perturbed_setup(widths, bias, seed, 0.5)
    rng = numkit.make_rng(seed)
    work = _meta_work(theta, phi)
    cfg = default_precond_config(meta_lr=0.05)
    state = init_state(cfg.meta_opt, phi.flat)
    for _ in range(3):
        g, v = (theta.map(lambda a: rng.standard_normal(a.shape)) for _ in range(2))
        theta_new, vjp = phi.linearize(theta, g, None, work)
        fresh_new, fresh_vjp = phi.linearize(theta, g, None, _meta_work(theta, phi))
        fresh = fresh_vjp(v)
        assert theta_new is work.theta_new and np.array_equal(theta_new.flat, fresh_new.flat)
        for _ in range(2):
            assert vjp(v) is work.phi_grad and np.array_equal(work.phi_grad.flat, fresh.flat)
        stepped = apply_precond_update(theta, phi, g, work.products, theta.map(np.empty_like))
        assert np.array_equal(stepped.flat, fresh_new.flat)
        meta_step(phi, state, work.phi_grad, cfg)


class UfuncCounter(np.ndarray):
    """An ndarray that counts the ufunc calls it takes part in (calls) and,
    of those, the matrix products (products), by an operator or a function,
    into an out= array or not; what it computes, and an array made like it
    (np.empty_like keeps the subclass, so a PrecondWork made from a counting
    phi counts too), is again a UfuncCounter."""

    calls = products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        UfuncCounter.calls += 1
        if ufunc is np.matmul:
            UfuncCounter.products += 1

        def plain(arrays):
            return [x.view(np.ndarray) if isinstance(x, UfuncCounter) else x for x in arrays]

        out = kwargs.pop("out", None)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs,
                                        **({} if out is None else {"out": tuple(plain(out))}))
        if out is not None:
            return out[0]
        return result.view(UfuncCounter) if isinstance(result, np.ndarray) else result


def _counting_lookahead_and_vjp(widths):
    """(ufunc calls, matrix products) of one lookahead and its VJP on
    counting arrays of a biased model, into a kept MetaWork made before the
    count starts."""
    theta, g, v, phi = _perturbed_setup(widths, True, 8, 0.5)
    theta, g, v, phi = (p.with_flat(p.flat.view(UfuncCounter)) for p in (theta, g, v, phi))
    work = _meta_work(theta, phi)
    UfuncCounter.calls = UfuncCounter.products = 0
    _, vjp = phi.linearize(theta, g, None, work)
    vjp(v)
    return UfuncCounter.calls, UfuncCounter.products


def test_lookahead_and_vjp_share_products():
    """One layer's lookahead and VJP take 11 matrix products: the VJP reuses
    T = B^T (G A), B U and G A, and takes V A once, where the unshared
    formulas compute each again (16)."""
    assert _counting_lookahead_and_vjp([4, 3])[1] == 11
    theta, g, v, phi = _perturbed_setup([4, 3], True, 8, 0.5)
    theta, g, v, phi = (p.with_flat(p.flat.view(UfuncCounter)) for p in (theta, g, v, phi))
    UfuncCounter.products = 0
    _update(theta, phi, g)
    _separate_vjp(phi.blocks[0], g.weights[0], -phi.scale * v.weights[0])
    assert UfuncCounter.products == 16


def test_lookahead_and_vjp_run_elementwise_steps_once_per_phi():
    """Only the matrix products and a biased layer's d^2 g_b, d g_b and its
    -c v_b factor run per layer: S^2, d^2, c P g, theta - c P g, -c v, the
    dA and dB sums, dS = 2 S * T * X and 2 d run once over theta or over a
    region of phi.  Per biased layer the lookahead and VJP take 16 ufunc
    calls (11 products, U = S^2 * T, S^2 * X and three bias steps), where
    each layer once took 29 and the bottleneck autoencoder's 4 layers 118."""
    calls_2, _ = _counting_lookahead_and_vjp([16, 8, 2])
    calls_4, products_4 = _counting_lookahead_and_vjp([16, 8, 2, 8, 16])
    assert products_4 == 4 * 11
    assert (calls_4 - calls_2) / 2 == 16
    assert calls_4 <= 80
