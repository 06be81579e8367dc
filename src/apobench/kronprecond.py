"""Kronecker-structured gradient preconditioner.

Per weight matrix W (fan_in x fan_out) the preconditioner acting on
grad W in ParamSet's row-major storage order, G.ravel(), is

    P = (B kron A) diag(S.ravel())^2 (B kron A)^T

with A fan_out x fan_out, B fan_in x fan_in, S fan_in x fan_out (the paper's
(A kron B) diag(vec S)^2 (A kron B)^T in column stacking).  P is PSD for
arbitrary A, B, S, and is applied without ever materializing it:

    P G.ravel() = ( B (S^2 * (B^T G A)) A^T ).ravel()      (* elementwise)

Biases are not covered by the factorization; each bias vector gets an
independent diagonal preconditioner diag(d)^2 with d meta-learned alongside
the blocks.  The fixed step scale c multiplies the preconditioned gradient
and is not meta-learned.  PrecondPhi is a ParamSet: it stores A, B, S and d
in one flat vector kind-major, every layer's A, then every B, every S and
every d, so each kind is one contiguous region of phi and of dQ/dphi, and
apo.meta_step steps it through that vector as it steps apo.LrPhi.
apply_precond_update steps theta, and PrecondPhi.linearize takes the meta
step's lookahead through it and returns that lookahead's vector-Jacobian
product in phi, precond_update_vjp, built from the lookahead's own
products.  Only the matrix products run per layer: apply_precond takes the
lookahead's 4 (keeping T, U = S^2 * T, B U and G A) and precond_vjp the
VJP's 7, 11 per layer and meta step.  The elementwise steps run once per
phi, over a kind's region or over all of theta: S^2, d^2, c * P g and
theta - c * P g in apply_precond_update, and -c v, the dA and dB sums,
dS = 2 S * T * X and 2 d in precond_update_vjp.  A PrecondWork, kept for
the run in apo.MetaWork, holds those products in the same kind-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffnet import ParamSet
from .errors import DimensionError, NumericalError
from .numkit import require_oracle_scale

DEFAULT_SCALE = 0.9


@dataclass
class KronBlocks:
    a: np.ndarray  # fan_out x fan_out
    b: np.ndarray  # fan_in x fan_in
    s: np.ndarray  # fan_in x fan_out

    @property
    def param_count(self):
        return self.a.size + self.b.size + self.s.size


class PrecondPhi(ParamSet):
    """The meta-parameters phi in one flat vector with ParamSet's layout
    code: per layer the views A, B and S of one KronBlocks, and the bias
    diagonal d (None for a bias-free layer), stored kind-major: every
    layer's A, then every B, every S, every d.  regions holds those four
    contiguous views of flat.  The fixed application scale c is not part of
    the vector.  The layout is checked once, here; the sets with_flat
    derives from this one share it."""

    KIND_MAJOR = True

    def __init__(self, flat, layout, scale=DEFAULT_SCALE):
        for a, b, (fan_in, fan_out), d in layout:
            if (a, b, d) != ((fan_out,) * 2, (fan_in,) * 2, d and (fan_out,)):
                raise DimensionError(f"A, B, d of {a}, {b}, {d} do not fit S of {fan_in}x{fan_out}")
        self.scale = scale
        super().__init__(flat, layout)

    def _bind(self):
        a, b, s, self.bias_diags = map(tuple, self._views())
        self.blocks = tuple(map(KronBlocks, a, b, s))
        # The last layer's A, B and S end their kinds' regions.
        self.regions = tuple(np.split(self.flat, [span[1] for span in self._spans[-1][:3]]))

    def scalar(self):
        """phi's Frobenius norm, the value a training row logs."""
        return float(np.sqrt(self.sq_norm()))

    def lookahead_products(self):
        """A fresh PrecondWork for this phi's layout, each array made like
        flat (so of flat's array type)."""
        rows = np.empty_like(self.flat, shape=(7, self.regions[2].size))
        layers, k = [], 0
        for blk in self.blocks:
            layers.append(tuple(row[k:k + blk.s.size].reshape(blk.s.shape) for row in rows))
            k += blk.s.size
        step = ParamSet(np.empty_like(self.flat, shape=k + self.regions[3].size),
                        tuple((s, d) for _, _, s, d in self.layout))
        return PrecondWork(rows, tuple(layers), self.map(np.empty_like), step)

    def linearize(self, theta, g, delta, work):
        """(theta', vjp): the update theta' = theta - c * P g and its
        vector-Jacobian product in phi, vjp(v) = d <v, theta'> / d phi with
        g fixed (precond_update_vjp); the base direction delta is unused.
        theta', the PrecondWork and each vjp result are work's theta_new,
        products and phi_grad (an apo.MetaWork, kept for a run)."""
        kept = work.products
        return (apply_precond_update(theta, self, g, kept, work.theta_new),
                lambda v: precond_update_vjp(self, g, v, kept, work.phi_grad))


class PrecondWork:
    """The arrays of a preconditioner step and its VJP, kept for a run
    (PrecondPhi.lookahead_products): rows, seven S-kind rows in phi's S
    order, S^2, T, U = S^2 * T, B U and G A from the lookahead, then V A
    (later B (S^2 * X)) and X = B^T (V A) from the VJP, with layers[l] the
    tuple of layer l's views of them; rest, a set shaped like phi whose A
    and B hold the second terms of dA and dB, S holds S^2 * X and d holds
    d^2; and step, a set shaped like theta holding c P g, then -c v.  A
    plain class: a NamedTuple's would be built at import."""

    __slots__ = ("rows", "layers", "rest", "step")

    def __init__(self, rows, layers, rest, step):
        self.rows, self.layers, self.rest, self.step = rows, layers, rest, step


def init_identity(model, scale=DEFAULT_SCALE):
    """Identity preconditioner: A = I, B = I, S = ones (and d = ones for
    biases), so the first preconditioned update equals scale * gradient."""
    return PrecondPhi.from_layers(
        [(np.eye(spec.fan_out), np.eye(spec.fan_in), np.ones((spec.fan_in, spec.fan_out)),
          np.ones(spec.fan_out) if spec.has_bias else None) for spec in model.layers],
        scale)


def apply_precond(blocks, grad_w, keep=None, out=None):
    """Efficient application: B (S^2 * T) A^T with T = B^T (G A), 4 matrix
    products, written into out (a fresh array when None).  keep is one
    layer's tuple of PrecondWork rows whose first already holds S^2; T,
    U = S^2 * T, B U and G A, which precond_vjp reuses, go into the next
    four.  With keep None, S^2 and those products are fresh arrays."""
    s2, t, u, bu, ga = (blocks.s * blocks.s,) + (None,) * 4 if keep is None else keep[:5]
    ga = np.matmul(grad_w, blocks.a, out=ga)
    t = np.matmul(blocks.b.T, ga, out=t)
    u = np.multiply(s2, t, out=u)
    bu = np.matmul(blocks.b, u, out=bu)
    return np.matmul(bu, blocks.a.T, out=out)


def dense_precond(blocks):
    """Materialized (B kron A) diag(S.ravel())^2 (B kron A)^T, oracle scale;
    it multiplies a layer's slice of a ParamSet's flat vector."""
    require_oracle_scale("dense_precond", blocks.s.size)
    ba = np.kron(blocks.b, blocks.a)
    return (ba * blocks.s.ravel() ** 2) @ ba.T


def apply_precond_update(params, phi, g, products, out):
    """theta' = theta - c * P g (bias preconditioner diag(d)^2), written into
    the set out (params itself included) and returned.  products, a
    PrecondWork, gets S^2 and d^2 over their whole regions of phi, each
    layer's apply_precond products, and c * P g in its step, which is scaled
    and subtracted over all of theta at once.  A non-finite result raises
    once out is written."""
    step = products.step
    np.multiply(phi.regions[2], phi.regions[2], out=products.rows[0])
    np.multiply(phi.regions[3], phi.regions[3], out=products.rest.regions[3])
    for blk, gw, gb, keep, sw, sb, d2 in zip(phi.blocks, g.weights, g.biases, products.layers,
                                            step.weights, step.biases,
                                            products.rest.bias_diags):
        apply_precond(blk, gw, keep, sw)
        if sb is not None:
            np.multiply(d2, gb, out=sb)
    np.multiply(phi.scale, step.flat, out=step.flat)
    np.subtract(params.flat, step.flat, out=out.flat)
    if not out.all_finite():
        raise NumericalError("preconditioned update produced non-finite parameters")
    return out


def precond_update_vjp(phi, g, v, products, out):
    """d <v, apply_precond_update(theta, phi, g, products, ...)> / d phi
    with g fixed, written into out, a set shaped like phi, and returned;
    products holds that update's products.  Per layer, precond_vjp takes the
    matrix products; the elementwise steps run once over theta or over a
    region of phi."""
    np.multiply(-phi.scale, v.flat, out=products.step.flat)
    for blk, gw, cvw, layer, dblk, rest in zip(phi.blocks, g.weights, products.step.weights,
                                               products.layers, out.blocks,
                                               products.rest.blocks):
        precond_vjp(blk, gw, cvw, layer, dblk, rest)
    da, db, ds, dd = out.regions
    np.add(da, products.rest.regions[0], out=da)
    np.add(db, products.rest.regions[1], out=db)
    np.multiply(np.multiply(2.0, phi.regions[2], out=ds), products.rows[1], out=ds)
    np.multiply(ds, products.rows[6], out=ds)
    # d <v_b, -c d^2 g_b> / dd = 2 d g_b (-c v_b)
    np.multiply(2.0, phi.regions[3], out=dd)
    for dout, gb, cvb in zip(out.bias_diags, g.biases, products.step.biases):
        if dout is not None:
            np.multiply(np.multiply(dout, gb, out=dout), cvb, out=dout)
    return out


def precond_vjp(blocks, g, v, products, out, rest):
    """The matrix products of the gradients of <v, apply_precond(blocks, g)>
    w.r.t. A, B, S, holding the weight gradient g fixed; products is the
    layer's PrecondWork rows, holding apply_precond's (S^2, T, U, B U, G A)
    on g.

    Derived from R = B U A^T with U = S^2 * T and T = B^T G A:
      dS = 2 S * T * X          where X = B^T (V A)  (G = g, V = v)
      dB = (V A) U^T + (G A) (S^2 * X)^T
      dA = G^T B (S^2 * X) + V^T B U
    The first term of dA and of dB goes into the KronBlocks out, the second
    into rest, S^2 * X into rest.s and X into products' seventh row; the
    caller adds the terms and forms dS over whole regions of phi.  V A is
    computed once, so with the kept products this takes 7 matrix products,
    11 per layer with the lookahead's 4.
    """
    b = blocks.b
    s2, _, u, bu, ga, va, x = products
    np.matmul(v, blocks.a, out=va)
    np.matmul(b.T, va, out=x)
    s2x = np.multiply(s2, x, out=rest.s)
    np.matmul(va, u.T, out=out.b)
    np.matmul(ga, s2x.T, out=rest.b)
    np.matmul(g.T, np.matmul(b, s2x, out=va), out=out.a)
    np.matmul(v.T, bu, out=rest.a)
