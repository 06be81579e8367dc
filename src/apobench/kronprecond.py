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
and is not meta-learned.  PrecondPhi stores A, B, S and d of every layer in
one flat vector, in that order, through ParamSet's layout code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffnet import ParamSet
from .errors import DimensionError, NumericalError, OracleScaleError
from .numkit import FLOAT, kron_dense, vec_cm

DENSE_MAX_DIM = 64
DEFAULT_SCALE = 0.9


@dataclass
class KronBlocks:
    a: np.ndarray  # fan_out x fan_out
    b: np.ndarray  # fan_in x fan_in
    s: np.ndarray  # fan_in x fan_out

    def check(self, fan_in, fan_out):
        if self.a.shape != (fan_out, fan_out):
            raise DimensionError(f"A block {self.a.shape} != ({fan_out}, {fan_out})")
        if self.b.shape != (fan_in, fan_in):
            raise DimensionError(f"B block {self.b.shape} != ({fan_in}, {fan_in})")
        if self.s.shape != (fan_in, fan_out):
            raise DimensionError(f"S block {self.s.shape} != ({fan_in}, {fan_out})")

    @property
    def param_count(self):
        return self.a.size + self.b.size + self.s.size


class PrecondPhi(ParamSet):
    """The meta-parameters phi in one flat vector with ParamSet's layout
    code: per layer the views A, B and S of one KronBlocks, then the bias
    diagonal d (None for a bias-free layer).  The fixed application scale c
    is not part of the vector."""

    def __init__(self, flat, layout, scale=DEFAULT_SCALE):
        self.scale = scale
        super().__init__(flat, layout)

    def _bind(self):
        a, b, s, self.bias_diags = map(tuple, self._views())
        self.blocks = tuple(map(KronBlocks, a, b, s))

    def frobenius_norm(self):
        return float(np.sqrt(self.sq_norm()))


def init_identity(model, scale=DEFAULT_SCALE):
    """Identity preconditioner: A = I, B = I, S = ones (and d = ones for
    biases), so the first preconditioned update equals scale * gradient."""
    return PrecondPhi.from_layers(
        [(np.eye(spec.fan_out), np.eye(spec.fan_in), np.ones((spec.fan_in, spec.fan_out)),
          np.ones(spec.fan_out) if spec.has_bias else None) for spec in model.layers],
        scale)


def apply_precond(blocks, grad_w):
    """Efficient application: B (S^2 * (B^T G A)) A^T."""
    grad_w = np.asarray(grad_w, dtype=FLOAT)
    fan_in, fan_out = grad_w.shape
    blocks.check(fan_in, fan_out)
    inner = blocks.b.T @ grad_w @ blocks.a
    return blocks.b @ ((blocks.s * blocks.s) * inner) @ blocks.a.T


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


def apply_precond_update(params, phi, g):
    """theta' = theta - c * P g, per layer (bias preconditioner diag(d)^2)."""
    if len(phi.blocks) != len(params.weights):
        raise DimensionError(
            f"{len(phi.blocks)} block sets for {len(params.weights)} layers"
        )
    c = phi.scale
    out = params.map(np.empty_like)
    for w, b, gw, gb, blk, d, ow, ob in zip(params.weights, params.biases, g.weights,
                                            g.biases, phi.blocks, phi.bias_diags,
                                            out.weights, out.biases):
        np.subtract(w, c * apply_precond(blk, gw), out=ow)
        if b is not None:
            np.subtract(b, c * ((d * d) * gb), out=ob)
    if not out.all_finite():
        raise NumericalError("preconditioned update produced non-finite parameters")
    return out


def precond_vjp(blocks, grad_w, upstream):
    """Gradients of <upstream, apply_precond(blocks, grad_w)> w.r.t. A, B, S,
    holding grad_w fixed.

    Derived from R = B U A^T with U = S^2 * T and T = B^T G A:
      dS = 2 S * T * X          where X = B^T V A  (V = upstream)
      dB = V A U^T + (G A) (S^2 * X)^T
      dA = G^T B (S^2 * X) + V^T B U
    """
    g = np.asarray(grad_w, dtype=FLOAT)
    v = np.asarray(upstream, dtype=FLOAT)
    a, b, s = blocks.a, blocks.b, blocks.s
    s2 = s * s
    t = b.T @ g @ a
    u = s2 * t
    x = b.T @ v @ a
    ds = 2.0 * s * t * x
    db = v @ a @ u.T + (g @ a) @ (s2 * x).T
    da = g.T @ (b @ (s2 * x)) + v.T @ (b @ u)
    return da, db, ds


def bias_diag_vjp(d, grad_b, upstream):
    """Gradient of <upstream, d^2 * grad_b> w.r.t. d."""
    return 2.0 * d * grad_b * upstream


def to_json(phi, layer_names=None):
    """Flat JSON document: per-layer row-major block arrays plus the scale."""
    layers = []
    for i, (blk, d) in enumerate(zip(phi.blocks, phi.bias_diags)):
        name = layer_names[i] if layer_names else f"layer{i}"
        layers.append({
            "name": name,
            "a": blk.a.tolist(),
            "b": blk.b.tolist(),
            "s": blk.s.tolist(),
            "bias_diag": None if d is None else d.tolist(),
        })
    return json.dumps({"scale": phi.scale, "layers": layers}, indent=2)


def from_json(doc):
    data = json.loads(doc)
    return PrecondPhi.from_layers(
        [(layer["a"], layer["b"], layer["s"], layer.get("bias_diag"))
         for layer in data["layers"]],
        float(data["scale"]))
