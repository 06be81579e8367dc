"""Base-optimizer update directions (SGD, heavy-ball momentum, RMSprop, Adam).

A step is split into the unscaled direction Delta and the learning-rate
application theta' = theta - eta * Delta, so the meta-learning layer can
treat the optimizer state as a constant while differentiating through eta.

Gradients, directions and optimizer buffers are flat float64 vectors (a
ParamSet's ``flat``, or a meta-parameter vector), so each update is one
whole-vector expression.  update_direction writes its temporaries with
out= into the new state's arrays or one scratch array, so its results are
bit-identical to the formulas it lists, and the direction it returns is
always a fresh array.
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
    """Flat accumulators shaped like the parameter vector; treated as fixed
    by the meta-gradient."""

    momentum: np.ndarray | None
    second: np.ndarray | None
    step: int = 0


def init_state(kind, flat):
    momentum = np.zeros_like(flat) if kind.kind in ("sgd-momentum", "adam") else None
    second = np.zeros_like(flat) if kind.kind in ("rmsprop", "adam") else None
    return OptState(momentum, second, 0)


def update_direction(kind, state, g):
    """Unscaled step direction Delta for the flat gradient g, and the
    advanced state.

    sgd:          Delta = g
    sgd-momentum: buf' = beta*buf + g;              Delta = buf'
    rmsprop:      v' = b2*v + (1-b2)*g*g;           Delta = g / (sqrt(v') + eps)
    adam:         m' = b1*m + (1-b1)*g;  v' = b2*v + (1-b2)*g*g;
                  Delta = (m'/c1) / (sqrt(v'/c2) + eps),  c_i = 1 - b_i^t

    evaluated in the order written, bit for bit; the input state is not
    written, and Delta is a fresh array that no state shares.
    """
    if not np.isfinite(g).all():
        raise NumericalError("gradient passed to update_direction is non-finite")
    if kind.kind == "sgd":
        return g.copy(), OptState(None, None, state.step + 1)
    if kind.kind == "sgd-momentum":
        buf = np.multiply(kind.beta, state.momentum)
        np.add(buf, g, out=buf)
        return buf.copy(), OptState(buf, None, state.step + 1)
    if kind.kind == "rmsprop":
        scratch = np.empty(g.shape)
        v = _second_moment(kind.rms_beta2, state.second, g, scratch)
        np.sqrt(v, out=scratch)
        np.add(scratch, kind.eps, out=scratch)
        return np.divide(g, scratch, out=scratch), OptState(None, v, state.step + 1)
    if kind.kind != "adam":
        raise ContractError(f"{kind.kind} has no update direction")
    t = state.step + 1
    b1, b2 = kind.beta, kind.beta2
    m = np.multiply(b1, state.momentum)
    scratch = np.multiply(1.0 - b1, g)
    np.add(m, scratch, out=m)
    v = _second_moment(b2, state.second, g, scratch)
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.add(scratch, kind.eps, out=scratch)
    delta = np.divide(m, c1)
    return np.divide(delta, scratch, out=delta), OptState(m, v, t)


def _second_moment(b2, second, g, scratch):
    """b2*second + (1-b2)*g*g in a new array, through scratch."""
    v = np.multiply(b2, second)
    np.multiply(1.0 - b2, g, out=scratch)
    np.multiply(scratch, g, out=scratch)
    return np.add(v, scratch, out=v)


def apply_lr_update(params, lr, delta):
    """theta' = theta - lr * Delta on the flat vector; a new ParamSet that
    wraps the freshly computed vector."""
    return params.with_flat(params.flat - lr * delta)
