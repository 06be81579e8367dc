"""Base-optimizer update directions (SGD, heavy-ball momentum, RMSprop, Adam).

A step is split into the unscaled direction Delta and the learning-rate
application theta' = theta - eta * Delta, so the meta-learning layer can
treat the optimizer state as a constant while differentiating through eta.

Gradients, directions and optimizer buffers are flat float64 vectors (a
ParamSet's ``flat``, or a meta-parameter vector), so each update is one
whole-vector expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError

KINDS = ("sgd", "sgd-momentum", "rmsprop", "adam")


@dataclass(frozen=True)
class BaseOptKind:
    kind: str = "sgd"
    beta: float = 0.9        # momentum / Adam beta1
    beta2: float = 0.999     # second-moment decay (Adam; RMSprop uses rms_beta2)
    rms_beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
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
    rmsprop:      v' = b2*v + (1-b2)*g^2;           Delta = g / (sqrt(v') + eps)
    adam:         bias-corrected m-hat / (sqrt(v-hat) + eps)
    """
    if not np.all(np.isfinite(g)):
        raise NumericalError("gradient passed to update_direction is non-finite")
    if kind.kind == "sgd":
        return g.copy(), OptState(None, None, state.step + 1)
    if kind.kind == "sgd-momentum":
        buf = kind.beta * state.momentum + g
        return buf.copy(), OptState(buf, None, state.step + 1)
    if kind.kind == "rmsprop":
        b2 = kind.rms_beta2
        v = b2 * state.second + (1.0 - b2) * g * g
        return g / (np.sqrt(v) + kind.eps), OptState(None, v, state.step + 1)
    # adam
    t = state.step + 1
    b1, b2 = kind.beta, kind.beta2
    m = b1 * state.momentum + (1.0 - b1) * g
    v = b2 * state.second + (1.0 - b2) * g * g
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    return (m / c1) / (np.sqrt(v / c2) + kind.eps), OptState(m, v, t)


def apply_lr_update(params, lr, delta):
    """theta' = theta - lr * Delta on the flat vector; a new ParamSet."""
    if not np.isfinite(lr):
        raise ContractError(f"learning rate must be finite, got {lr}")
    return params.from_flat(params.flat - lr * delta)
