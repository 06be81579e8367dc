"""Base-optimizer update directions (SGD, heavy-ball momentum, RMSprop, Adam).

A step is split into the unscaled direction Delta and the learning-rate
application theta' = theta - eta * Delta, so the meta-learning layer can
treat the optimizer state as a constant while differentiating through eta.

Gradients, directions and optimizer buffers are flat float64 vectors (a
ParamSet's ``flat``, or a meta-parameter vector), so each update is one
whole-vector expression.  An optimizer state persists from step to step:
update_direction advances its moment buffers in place, with out= through
one scratch array, so its results are bit-identical to the formulas it
lists.  The direction it returns never shares memory with the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

KINDS = ("sgd", "sgd-momentum", "rmsprop", "adam")
# kfac has no update direction: apo_train steps it with oracles.kfac_update.
BASE_KINDS = KINDS + ("kfac",)


@dataclass(frozen=True)
class BaseOptKind:
    kind: str = "sgd"
    beta: float = 0.9        # momentum / Adam beta1
    beta2: float = 0.999     # second-moment decay (Adam; RMSprop uses rms_beta2)
    rms_beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ContractError(f"unknown base optimizer {self.kind!r}")
        for name in ("beta", "beta2", "rms_beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ContractError(f"{name} must lie in [0, 1), got {v}")
        if self.eps <= 0:
            raise ContractError(f"eps must be positive, got {self.eps}")


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
