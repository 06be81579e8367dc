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
of every layer in one flat vector, in that order, so apo.meta_step steps it
through that vector as it steps apo.LrPhi.  It owns its update of theta
and, in linearize, the meta step's lookahead with that lookahead's
vector-Jacobian product in phi, built from the lookahead's own products:
per layer apply_precond keeps S^2, T, U = S^2 * T, B U and G A, and
precond_vjp reuses them, 11 matrix products per layer and meta step.
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
    code: per layer the views A, B and S of one KronBlocks, then the bias
    diagonal d (None for a bias-free layer).  The fixed application scale c
    is not part of the vector.  The layout is checked once, here; the sets
    with_flat derives from this one share it."""

    def __init__(self, flat, layout, scale=DEFAULT_SCALE):
        for a, b, (fan_in, fan_out), d in layout:
            if (a, b, d) != ((fan_out,) * 2, (fan_in,) * 2, d and (fan_out,)):
                raise DimensionError(f"A, B, d of {a}, {b}, {d} do not fit S of {fan_in}x{fan_out}")
        self.scale = scale
        super().__init__(flat, layout)

    def _bind(self):
        a, b, s, self.bias_diags = map(tuple, self._views())
        self.blocks = tuple(map(KronBlocks, a, b, s))

    def scalar(self):
        """phi's Frobenius norm, the value a training row logs."""
        return float(np.sqrt(self.sq_norm()))

    def update(self, theta, g, delta, out=None):
        """theta' = theta - c * P g, written into out (a new set when None);
        the base direction delta is unused."""
        return apply_precond_update(theta, self, g, out=out)

    def lookahead_products(self):
        """Storage for the products linearize's lookahead keeps: per layer
        one fresh (5, fan_in, fan_out) array for S^2, T, U, B U and G A."""
        return [np.empty((5, *blk.s.shape)) for blk in self.blocks]

    def linearize(self, theta, g, delta, work=None):
        """(theta', vjp): the update and its vector-Jacobian product in phi,
        vjp(v) = d <v, theta'> / d phi with g fixed.  vjp reuses each layer's
        S^2, T, U, B U and G A from the update.  theta', those products and
        each vjp result are written into work's theta_new, products and
        phi_grad (an apo.MetaWork, kept for a run), or into fresh arrays
        where work or its field is None."""
        out, kept, dphi = ((None,) * 3 if work is None
                           else (work.theta_new, work.products, work.phi_grad))
        kept = self.lookahead_products() if kept is None else kept
        theta_new = apply_precond_update(theta, self, g, kept, out)

        def vjp(v):
            c = self.scale
            grad = self.map(np.empty_like) if dphi is None else dphi
            for blk, d, gw, gb, vw, vb, products, dblk, dout in zip(
                    self.blocks, self.bias_diags, g.weights, g.biases, v.weights, v.biases,
                    kept, grad.blocks, grad.bias_diags):
                precond_vjp(blk, gw, -c * vw, products, dblk)
                if d is not None:   # d <v_b, -c d^2 g_b> / dd = 2 d g_b (-c v_b)
                    np.multiply(np.multiply(2.0 * d, gb, out=dout), -c * vb, out=dout)
            return grad

        return theta_new, vjp


def init_identity(model, scale=DEFAULT_SCALE):
    """Identity preconditioner: A = I, B = I, S = ones (and d = ones for
    biases), so the first preconditioned update equals scale * gradient."""
    return PrecondPhi.from_layers(
        [(np.eye(spec.fan_out), np.eye(spec.fan_in), np.ones((spec.fan_in, spec.fan_out)),
          np.ones(spec.fan_out) if spec.has_bias else None) for spec in model.layers],
        scale)


def apply_precond(blocks, grad_w, keep=None):
    """Efficient application: B (S^2 * T) A^T with T = B^T (G A), 4 matrix
    products, returned in a fresh array.  The products S^2, T, U = S^2 * T,
    B U and G A, which precond_vjp reuses, are written into the five rows of
    keep, a (5, fan_in, fan_out) array, or into fresh arrays when keep is
    None."""
    s2, t, u, bu, ga = (None,) * 5 if keep is None else keep
    s2 = np.multiply(blocks.s, blocks.s, out=s2)
    ga = np.matmul(grad_w, blocks.a, out=ga)
    t = np.matmul(blocks.b.T, ga, out=t)
    u = np.multiply(s2, t, out=u)
    bu = np.matmul(blocks.b, u, out=bu)
    return bu @ blocks.a.T


def dense_precond(blocks):
    """Materialized (B kron A) diag(S.ravel())^2 (B kron A)^T, oracle scale;
    it multiplies a layer's slice of a ParamSet's flat vector."""
    require_oracle_scale("dense_precond", blocks.s.size)
    ba = np.kron(blocks.b, blocks.a)
    return (ba * blocks.s.ravel() ** 2) @ ba.T


def apply_precond_update(params, phi, g, keep=None, out=None):
    """theta' = theta - c * P g, per layer (bias preconditioner diag(d)^2),
    written into the set out (params itself included) and returned; a new
    set when out is None.  keep, a list of PrecondPhi.lookahead_products'
    arrays, gets each layer's apply_precond products.  A non-finite result
    raises once out is written."""
    c = phi.scale
    out = params.map(np.empty_like) if out is None else out
    for w, b, gw, gb, blk, d, ow, ob, kept in zip(
            params.weights, params.biases, g.weights, g.biases, phi.blocks, phi.bias_diags,
            out.weights, out.biases, keep or (None,) * len(phi.blocks)):
        step = apply_precond(blk, gw, kept)
        np.subtract(w, np.multiply(c, step, out=step), out=ow)
        if b is not None:
            np.subtract(b, c * ((d * d) * gb), out=ob)
    if not out.all_finite():
        raise NumericalError("preconditioned update produced non-finite parameters")
    return out


def precond_vjp(blocks, g, v, products, out):
    """Gradients of <v, apply_precond(blocks, g)> w.r.t. A, B, S, holding the
    weight gradient g fixed, written into the KronBlocks out; products are
    apply_precond's (S^2, T, U, B U, G A) on g.

    Derived from R = B U A^T with U = S^2 * T and T = B^T G A:
      dS = 2 S * T * X          where X = B^T (V A)  (G = g, V = v)
      dB = (V A) U^T + (G A) (S^2 * X)^T
      dA = G^T B (S^2 * X) + V^T B U
    V A is computed once, so with the kept products this takes 7 matrix
    products, 11 per layer with the lookahead's 4.
    """
    b, s = blocks.b, blocks.s
    s2, t, u, bu, ga = products
    va = v @ blocks.a
    x = b.T @ va
    s2x = s2 * x
    np.multiply(np.multiply(2.0 * s, t, out=out.s), x, out=out.s)
    np.add(va @ u.T, ga @ s2x.T, out=out.b)
    np.add(g.T @ (b @ s2x), v.T @ bu, out=out.a)
