"""Base-optimizer update directions (SGD, heavy-ball momentum, RMSprop, Adam,
KFAC).

A step is split into the unscaled direction Delta and the learning-rate
application theta' = theta - eta * Delta, so the meta-learning layer can
treat the optimizer state as a constant while differentiating through eta.
Every base kind yields its Delta here: update_direction for the four
elementwise kinds, kfac_direction for kfac, whose state is the KfacStats
that kfac_statistics refreshes.

Gradients, directions and optimizer buffers are flat float64 vectors (a
ParamSet's ``flat``, or a meta-parameter vector), so each update is one
whole-vector expression.  An optimizer state persists from step to step:
update_direction advances its moment buffers in place, with out= through
one scratch array, so its results are bit-identical to the formulas it
lists.  The direction it returns never shares memory with the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffnet import backward, forward, softmax
from .errors import ContractError, NumericalError
from .numkit import cholesky_spd, solve_spd

KINDS = ("sgd", "sgd-momentum", "rmsprop", "adam")
# kfac's direction needs curvature statistics: kfac_direction, not update_direction.
BASE_KINDS = KINDS + ("kfac",)


@dataclass(frozen=True)
class BaseOptKind:
    kind: str = "sgd"
    beta: float = 0.9        # momentum / Adam beta1
    beta2: float = 0.999     # second-moment decay (Adam; RMSprop uses rms_beta2)
    rms_beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0
    damping: float = 1e-3    # kfac: added to each block's diagonal
    update_every: int = 5    # kfac: statistics refresh interval, in steps
    ema_decay: float = 0.95  # kfac: weight of the old statistics at a refresh

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ContractError(f"unknown base optimizer {self.kind!r}")
        for name in ("beta", "beta2", "rms_beta2", "ema_decay"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ContractError(f"{name} must lie in [0, 1), got {v}")
        if self.eps <= 0:
            raise ContractError(f"eps must be positive, got {self.eps}")
        if self.damping < 0:
            raise ContractError(f"damping must be nonnegative, got {self.damping}")
        if self.update_every < 1:
            raise ContractError(f"update_every must be >= 1, got {self.update_every}")


@dataclass
class OptState:
    """Flat accumulators shaped like the parameter vector, one buffer each
    for the whole run, advanced in place; treated as fixed by the
    meta-gradient."""

    momentum: np.ndarray | None
    second: np.ndarray | None
    step: int = 0


def init_state(kind, flat):
    momentum = np.zeros_like(flat) if kind.kind in ("sgd-momentum", "adam") else None
    second = np.zeros_like(flat) if kind.kind in ("rmsprop", "adam") else None
    return OptState(momentum, second, 0)


def update_direction(kind, state, g):
    """Unscaled step direction Delta for the flat gradient g; advances
    state in place and returns Delta.

    sgd:          Delta = g
    sgd-momentum: buf <- beta*buf + g;              Delta = buf
    rmsprop:      v <- b2*v + (1-b2)*g*g;           Delta = g / (sqrt(v) + eps)
    adam:         m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g*g;
                  Delta = (m/c1) / (sqrt(v/c2) + eps),  c_i = 1 - b_i^t

    evaluated in the order written, bit for bit.  g is never written and
    Delta never shares memory with it; Delta may be a state buffer
    (sgd-momentum's buf), so a caller must not write into it.
    """
    if not np.isfinite(g).all():
        raise NumericalError("gradient passed to update_direction is non-finite")
    if kind.kind not in KINDS:
        raise ContractError(f"{kind.kind} has no update direction")
    state.step += 1
    if kind.kind == "sgd":
        return g.copy()
    if kind.kind == "sgd-momentum":
        m = state.momentum
        np.multiply(kind.beta, m, out=m)
        return np.add(m, g, out=m)
    scratch = np.empty(g.shape)
    if kind.kind == "rmsprop":
        _second_moment(kind.rms_beta2, state.second, g, scratch)
        np.sqrt(state.second, out=scratch)
        np.add(scratch, kind.eps, out=scratch)
        return np.divide(g, scratch, out=scratch)
    b1, b2 = kind.beta, kind.beta2
    m = state.momentum
    np.multiply(b1, m, out=m)
    np.multiply(1.0 - b1, g, out=scratch)
    np.add(m, scratch, out=m)
    _second_moment(b2, state.second, g, scratch)
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    np.divide(state.second, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.add(scratch, kind.eps, out=scratch)
    delta = np.divide(m, c1)
    return np.divide(delta, scratch, out=delta)


def _second_moment(b2, second, g, scratch):
    """second <- b2*second + (1-b2)*g*g in place, through scratch."""
    np.multiply(b2, second, out=second)
    np.multiply(1.0 - b2, g, out=scratch)
    np.multiply(scratch, g, out=scratch)
    np.add(second, scratch, out=second)


def apply_lr_update(params, lr, delta, out=None):
    """theta' = theta - lr * Delta on the flat vector, written into the set
    out (params itself included) and returned; a new set when out is None."""
    flat = np.subtract(params.flat, lr * delta, out=None if out is None else out.flat)
    return params.with_flat(flat) if out is None else out


def _sample_targets(head, outputs, rng):
    """Targets drawn from the model's predictive distribution (true Fisher)."""
    if head == "regression-gaussian-unit-variance":
        return outputs + rng.standard_normal(outputs.shape)
    p = softmax(outputs)
    u = rng.random(p.shape[0])
    # Per row, the first index whose running total reaches u; a total
    # that rounds to just below 1 can stay under u, so clamp to the last.
    drawn = np.count_nonzero(np.cumsum(p, axis=1) < u[:, None], axis=1)
    return np.minimum(drawn, p.shape[1] - 1)


def _nll_seed(head, outputs, targets):
    """Per-example d NLL / d outputs at the sampled targets (no 1/B)."""
    if head == "regression-gaussian-unit-variance":
        return outputs - targets
    seed = softmax(outputs)
    seed[np.arange(len(outputs)), targets] -= 1.0
    return seed


def kfac_input_moments(model, trace):
    """Per layer, KFAC's A statistic: the second moment a^T a / B of the
    layer inputs a of a forward trace, with a column of ones for a bias."""
    abars = [np.hstack([a, np.ones((len(a), 1))]) if spec.has_bias else a
             for spec, a in zip(model.layers, trace.layer_inputs)]
    return [a.T @ a / len(a) for a in abars]


def kfac_sampled_blocks(model, params, inputs, rng):
    """Per-layer KFAC statistics (A, B) on a batch: B is the second moment
    of the pre-activation gradients of one sampled target per example."""
    outputs, trace = forward(model, params, inputs)
    seed = _nll_seed(model.head, outputs, _sample_targets(model.head, outputs, rng))
    _, ds_list = backward(model, params, trace, seed)
    return [(a, ds.T @ ds / inputs.shape[0])
            for a, ds in zip(kfac_input_moments(model, trace), ds_list)]


class KfacStats(NamedTuple):
    """The KFAC state between refreshes: per layer the statistics (A, B) and
    the Cholesky factors of A + damping I and B + damping I, whose inverses
    kfac_direction forms once per refresh, on first use, and multiplies by."""

    blocks: list
    factors: list


def kfac_factors(blocks, damping):
    """Per layer, the Cholesky factors of A + damping I and B + damping I.
    A block that is not SPD raises NumericalError with its failing pivot."""
    try:
        return [tuple(cholesky_spd(m + damping * np.eye(m.shape[0])) for m in pair)
                for pair in blocks]
    except NumericalError as exc:
        raise NumericalError(f"kfac block factorization failed: {exc}",
                             pivot=exc.pivot) from exc


def kfac_statistics(model, params, inputs, rng, stats, t, kind):
    """The KfacStats for training step t: kfac_sampled_blocks on the first
    step, then every kind.update_every-th step averaged into stats with
    decay kind.ema_decay, each refresh factoring its damped blocks
    (kind.damping) once; stats unchanged on the other steps."""
    if stats is not None and t % kind.update_every:
        return stats
    blocks = kfac_sampled_blocks(model, params, inputs, rng)
    if stats is not None:
        d = kind.ema_decay
        blocks = [(d * a0 + (1 - d) * a1, d * b0 + (1 - d) * b1)
                  for (a0, b0), (a1, b1) in zip(stats.blocks, blocks)]
    return KfacStats(blocks, kfac_factors(blocks, kind.damping))


def kfac_direction(g, factors):
    """The fresh flat Delta whose span of each layer's [W; b] (g.stacked())
    is (A + damping I)^-1 grad(Wbar) (B + damping I)^-1: two solve_spd
    products with the inverses of kfac_factors' factors, formed once per
    refresh; B's comes first, so A's lands in Wbar's row-major layout."""
    return np.concatenate([solve_spd(a_fac, solve_spd(b_fac, gbar.T).T).ravel()
                           for gbar, (a_fac, b_fac) in zip(g.stacked(), factors)])
