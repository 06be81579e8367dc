"""Kronecker-structured gradient preconditioner.

Per weight matrix W (fan_in x fan_out) the preconditioner acting on
vec_cm(grad W) is

    P = (A kron B) diag(vec_cm(S))^2 (A kron B)^T

with A fan_out x fan_out, B fan_in x fan_in, S fan_in x fan_out.  P is PSD
for arbitrary A, B, S, and is applied without ever materializing it:

    P vec_cm(G) = vec_cm( B (S^2 * (B^T G A)) A^T )      (* elementwise)

Biases are not covered by the factorization; each bias vector gets an
independent diagonal preconditioner diag(d)^2 with d meta-learned alongside
the blocks.  The fixed step scale c multiplies the preconditioned gradient
and is not meta-learned.  PrecondPhi is a ParamSet: it stores A, B, S and d
of every layer in one flat vector, in that order, so apo.meta_step steps it
through that vector as it steps apo.LrPhi.  It owns its update of theta
and, in linearize, the meta step's lookahead with that lookahead's
vector-Jacobian product in phi, built from the lookahead's own products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffnet import ParamSet
from .errors import DimensionError, NumericalError, OracleScaleError
from .numkit import kron_dense, vec_cm

DENSE_MAX_DIM = 64
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

    def update(self, theta, g, delta):
        """theta' = theta - c * P g; the base direction delta is unused."""
        return apply_precond_update(theta, self, g)

    def linearize(self, theta, g, delta):
        """(theta', vjp): the update and its vector-Jacobian product in phi,
        vjp(v) = d <v, theta'> / d phi with g fixed.  vjp reuses each layer's
        S^2, T, U and B U from the update, and writes into one fresh set."""
        products = []
        theta_new = apply_precond_update(theta, self, g, products)

        def vjp(v):
            c = self.scale
            grad = self.map(np.empty_like)
            for blk, d, gw, gb, vw, vb, kept, out, dout in zip(
                    self.blocks, self.bias_diags, g.weights, g.biases, v.weights, v.biases,
                    products, grad.blocks, grad.bias_diags):
                precond_vjp(blk, gw, -c * vw, kept, out)
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
    """Efficient application: B (S^2 * (B^T G A)) A^T.  A list keep gets
    the products (S^2, T, U, B U) appended, which precond_vjp reuses."""
    s2 = blocks.s * blocks.s
    t = blocks.b.T @ grad_w @ blocks.a
    u = s2 * t
    bu = blocks.b @ u
    if keep is not None:
        keep.append((s2, t, u, bu))
    return bu @ blocks.a.T


def dense_precond(blocks):
    """Materialized (A kron B) diag(vec_cm(S))^2 (A kron B)^T, oracle scale."""
    fan_in, fan_out = blocks.s.shape
    if fan_in * fan_out > DENSE_MAX_DIM:
        raise OracleScaleError(
            f"dense_precond limited to {DENSE_MAX_DIM} rows, got {fan_in * fan_out}"
        )
    ab = kron_dense(blocks.a, blocks.b)
    d2 = vec_cm(blocks.s) ** 2
    return (ab * d2) @ ab.T


def apply_precond_update(params, phi, g, keep=None):
    """theta' = theta - c * P g, per layer (bias preconditioner diag(d)^2);
    keep, a list, gets each layer's apply_precond products."""
    c = phi.scale
    out = params.map(np.empty_like)
    for w, b, gw, gb, blk, d, ow, ob in zip(params.weights, params.biases, g.weights,
                                            g.biases, phi.blocks, phi.bias_diags,
                                            out.weights, out.biases):
        np.subtract(w, c * apply_precond(blk, gw, keep), out=ow)
        if b is not None:
            np.subtract(b, c * ((d * d) * gb), out=ob)
    if not out.all_finite():
        raise NumericalError("preconditioned update produced non-finite parameters")
    return out


def precond_vjp(blocks, g, v, products, out):
    """Gradients of <v, apply_precond(blocks, g)> w.r.t. A, B, S, holding the
    weight gradient g fixed, written into the KronBlocks out; products are
    apply_precond's (S^2, T, U, B U) on g.

    Derived from R = B U A^T with U = S^2 * T and T = B^T G A:
      dS = 2 S * T * X          where X = B^T V A  (G = g, V = v)
      dB = V A U^T + (G A) (S^2 * X)^T
      dA = G^T B (S^2 * X) + V^T B U
    """
    a, b, s = blocks.a, blocks.b, blocks.s
    s2, t, u, bu = products
    x = b.T @ v @ a
    s2x = s2 * x
    np.multiply(np.multiply(2.0 * s, t, out=out.s), x, out=out.s)
    np.add(v @ a @ u.T, (g @ a) @ s2x.T, out=out.b)
    np.add(g.T @ (b @ s2x), v.T @ bu, out=out.a)
