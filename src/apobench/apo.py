"""Proximal meta-objective, exact one-step meta-gradients, and the online
meta-learning training loop.

The meta-objective evaluated at the one-step lookahead theta'(phi) is

    Q(phi) = J_B(theta'(phi))
           + lam_fsd * mean_{x in B'} rho(f(x, theta'(phi)), f(x, theta))
           + lam_wsd * 0.5 * ||theta'(phi) - theta||^2

where theta'(phi) applies the base update with the gradient g on B and the
optimizer state held fixed.  The loss term defaults to the same batch B that
produced g (the fresh-batch variant exists as an ablation and exhibits the
classic rapid learning-rate collapse).  The learning rate is adapted in log
space so it stays positive.

Each phi type (LrPhi, kronprecond.PrecondPhi) owns its rule: update(theta,
g, delta) takes the step, vjp(g, v, delta) is its vector-Jacobian product in
phi, and scalar() is the value a training row logs.  Only the SGDm warm-up
of preconditioner mode and base kind kfac (oracles.kfac_update) step
without phi.

Each output divergence rho is defined once, in DIVERGENCES: its per-row
value, its gradient in the new outputs, and its Hessian at zero displacement
(the oracles read the Hessians).  An fsd kind of None names the divergence
the model head implies, per HEAD_DIVERGENCE.  The proximal objective and its gradient in
theta' are assembled once, by proximal_value_and_grad, which the meta step and
the exact proximal-point oracle share.  One pass costs one forward and one
backward on the loss batch, plus, when lam_fsd > 0, one forward at theta',
one at theta and one backward on the discrepancy rows: 3 forwards and 2
backwards per meta step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseopt import BaseOptKind, OptState, apply_lr_update, init_state, update_direction
from .diffnet import ParamSet, backward, forward, loss_eval, loss_out_grad, predictive
from .errors import ContractError, NumericalError, TrainingDivergedError
from .kronprecond import DEFAULT_SCALE, init_identity
from .numkit import FLOAT


@dataclass(frozen=True)
class Divergence:
    """An output-space divergence rho(y_new, y_old) on row-batched outputs."""

    value: object    # (y_new, y_old) -> per-row rho, shape (B,)
    grad: object     # (y_new, y_old) -> d rho / d y_new, shape (B, d)
    hessian: object  # output row y, shape (d,) -> d^2 rho / d y_new^2 at y_new = y_old = y


def _log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _kl_categorical_rows(y_new, y_old):
    """KL( softmax(y_old) || softmax(y_new) ) per row."""
    lp = _log_softmax(y_old)
    lq = _log_softmax(y_new)
    return np.sum(np.exp(lp) * (lp - lq), axis=1)


def _softmax_hessian(y):
    p = predictive("classification-softmax", y[None, :])[0]
    return np.diag(p) - np.outer(p, p)


DIVERGENCES = {
    "kl-categorical": Divergence(
        value=_kl_categorical_rows,
        grad=lambda y_new, y_old: (predictive("classification-softmax", y_new)
                                   - predictive("classification-softmax", y_old)),
        hessian=_softmax_hessian),
    "kl-gaussian-unit-variance": Divergence(
        value=lambda y_new, y_old: 0.5 * np.sum((y_new - y_old) ** 2, axis=1),
        grad=lambda y_new, y_old: y_new - y_old,
        hessian=lambda y: np.eye(y.shape[0])),
    "squared-output-distance": Divergence(
        value=lambda y_new, y_old: np.sum((y_new - y_old) ** 2, axis=1),
        grad=lambda y_new, y_old: 2.0 * (y_new - y_old),
        hessian=lambda y: 2.0 * np.eye(y.shape[0])),
}
FSD_KINDS = tuple(DIVERGENCES)
# The divergence each model head implies, used wherever no fsd kind is named.
HEAD_DIVERGENCE = {
    "regression-gaussian-unit-variance": "kl-gaussian-unit-variance",
    "classification-softmax": "kl-categorical",
    "rosenbrock-direct": "squared-output-distance",
}
BATCH_POLICIES = ("same", "fresh")

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class ProximalConfig:
    lam_fsd: float = 0.0
    lam_wsd: float = 0.0
    fsd_kind: str | None = None   # None: the model head's, per HEAD_DIVERGENCE
    meta_interval: int = 10
    meta_lr: float = 0.1
    meta_opt: BaseOptKind = field(default_factory=lambda: BaseOptKind("rmsprop"))
    warmup_steps: int = 0
    warmup_lr: float = 0.01
    loss_batch_policy: str = "same"
    fsd_batch_policy: str = "fresh"
    scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.lam_fsd < 0 or self.lam_wsd < 0:
            raise ContractError("discrepancy weights must be nonnegative")
        if self.fsd_kind is not None and self.fsd_kind not in FSD_KINDS:
            raise ContractError(f"unknown fsd kind {self.fsd_kind!r}")
        if self.meta_interval < 1:
            raise ContractError("meta_interval must be >= 1")
        if self.meta_lr <= 0:
            raise ContractError("meta_lr must be positive")
        if self.warmup_steps < 0:
            raise ContractError("warmup_steps must be >= 0")
        if self.loss_batch_policy not in BATCH_POLICIES:
            raise ContractError(f"bad loss_batch_policy {self.loss_batch_policy!r}")
        if self.fsd_batch_policy not in BATCH_POLICIES:
            raise ContractError(f"bad fsd_batch_policy {self.fsd_batch_policy!r}")
        if self.scale <= 0:
            raise ContractError("scale must be positive")


def default_lr_config(**overrides):
    """Learning-rate adaptation defaults: RMSprop meta-optimizer at 0.1."""
    base = dict(meta_opt=BaseOptKind("rmsprop"), meta_lr=0.1, warmup_steps=0)
    base.update(overrides)
    return ProximalConfig(**base)


def default_precond_config(**overrides):
    """Preconditioner adaptation defaults: Adam meta-optimizer, identity init
    applied with the fixed DEFAULT_SCALE, and an SGDm warm-up phase."""
    base = dict(meta_opt=BaseOptKind("adam"), meta_lr=1e-4, warmup_steps=300)
    base.update(overrides)
    return ProximalConfig(**base)


@dataclass
class LrPhi:
    """Scalar log learning rate; exp keeps the induced rate positive."""

    log_lr: float

    @property
    def lr(self):
        try:
            return math.exp(self.log_lr)
        except OverflowError as exc:
            raise NumericalError(f"learning rate exp({self.log_lr}) overflows") from exc

    def scalar(self):
        return self.lr

    def update(self, theta, g, delta):
        """theta' = theta - lr * delta; the gradient g is unused."""
        if delta is None:
            raise ContractError("a learning-rate update needs the base direction")
        return apply_lr_update(theta, self.lr, delta)

    def vjp(self, g, v, delta):
        """Gradient of <v, update(theta, g, delta)> w.r.t. log_lr."""
        return LrPhi(-self.lr * v.dot(delta))

    def to_flat(self):
        return np.array([self.log_lr], dtype=FLOAT)

    def from_flat(self, vec):
        return LrPhi(float(np.asarray(vec).reshape(-1)[0]))


@dataclass(frozen=True)
class KfacSettings:
    """The kfac base optimizer's damping and statistics refresh."""

    damping: float = 1e-3
    update_every: int = 5
    ema_decay: float = 0.95


@dataclass
class MetaState:
    opt: OptState
    iteration: int = 0


def init_meta_state(cfg, phi):
    return MetaState(init_state(cfg.meta_opt, phi.to_flat()), 0)


def wsd(theta_new, theta_old):
    """0.5 * sum of squared parameter differences, biases included."""
    diff = theta_new.map2(theta_old, lambda a, b: a - b)
    return 0.5 * diff.sq_norm()


def divergence(model, kind=None):
    """The Divergence named kind; None names the model head's."""
    kind = kind or HEAD_DIVERGENCE[model.head]
    if kind not in DIVERGENCES:
        raise ContractError(f"unknown fsd kind {kind!r}")
    return DIVERGENCES[kind]


def loss_and_grad(model, params, batch):
    outputs, trace = forward(model, params, batch.inputs)
    loss = loss_eval(model.head, outputs, batch.targets)
    dy = loss_out_grad(model.head, outputs, batch.targets)
    g, _ = backward(model, params, trace, dy)
    return loss, g


def lookahead(model, theta, phi, opt_state, batch_b, base_kind=None, g=None, delta=None):
    """One-step lookahead theta'(phi) with g and the optimizer state fixed.

    Returns (theta_new, g, delta); delta is the flat base direction, computed
    from base_kind and opt_state unless given, and None without either (a
    preconditioner ignores it).
    """
    if g is None:
        _, g = loss_and_grad(model, theta, batch_b)
    if delta is None and base_kind is not None:
        delta, _ = update_direction(base_kind, opt_state, g.flat)
    return phi.update(theta, g, delta), g, delta


def _resolve_batches(cfg, batch_b, batch_bp, batch_loss):
    if cfg.loss_batch_policy == "same":
        lb = batch_b
    else:
        lb = batch_loss if batch_loss is not None else batch_bp
    fsd_inputs = batch_bp.inputs if cfg.fsd_batch_policy == "fresh" else batch_b.inputs
    return lb, fsd_inputs


def proximal_value_and_grad(model, u, theta, loss_batch, fsd_inputs, lam_fsd, lam_wsd,
                            fsd_kind):
    """The proximal objective
    Q(u) = J_batch(u) + lam_fsd * FSD(u, theta) + lam_wsd * 0.5 ||u - theta||^2
    with its terms and its gradient in u (theta fixed), in one pass; a None
    fsd_kind means the model head's divergence.

    Returns (Q, {"loss", "fsd", "wsd"}, dQ/du); a term whose weight is zero is
    skipped and reported as 0.0.
    """
    loss_term, grad = loss_and_grad(model, u, loss_batch)
    fsd_term = wsd_term = 0.0
    if lam_fsd:
        div = divergence(model, fsd_kind)
        fsd_inputs = np.asarray(fsd_inputs, dtype=FLOAT)
        y_new, trace = forward(model, u, fsd_inputs)
        y_old, _ = forward(model, theta, fsd_inputs)
        fsd_term = float(np.mean(div.value(y_new, y_old)))
        seed = div.grad(y_new, y_old) / fsd_inputs.shape[0]
        fsd_grad, _ = backward(model, u, trace, seed)
        grad = grad.map2(fsd_grad, lambda a, b: a + lam_fsd * b)
    if lam_wsd:
        diff = u.map2(theta, lambda a, b: a - b)
        wsd_term = 0.5 * diff.sq_norm()
        grad = grad.map2(diff, lambda a, b: a + lam_wsd * b)
    q = loss_term + lam_fsd * fsd_term + lam_wsd * wsd_term
    return q, {"loss": loss_term, "fsd": fsd_term, "wsd": wsd_term}, grad


def _meta_value_and_grad(model, theta, phi, opt_state, batch_b, batch_bp, cfg,
                         base_kind, batch_loss, g, delta):
    """Q at the lookahead theta'(phi), its terms, v = dQ/d theta', and the
    lookahead intermediates g and delta."""
    theta_new, g, delta = lookahead(model, theta, phi, opt_state, batch_b,
                                    base_kind, g=g, delta=delta)
    loss_batch, fsd_inputs = _resolve_batches(cfg, batch_b, batch_bp, batch_loss)
    q, parts, v = proximal_value_and_grad(model, theta_new, theta, loss_batch, fsd_inputs,
                                          cfg.lam_fsd, cfg.lam_wsd, cfg.fsd_kind)
    for name, value in parts.items():
        if not np.isfinite(value):
            raise NumericalError(f"meta-objective {name} term is non-finite")
    return q, parts, v, g, delta


def meta_objective(model, theta, phi, opt_state, batch_b, batch_bp, cfg,
                   base_kind=None, batch_loss=None):
    q, _, _, _, _ = _meta_value_and_grad(model, theta, phi, opt_state, batch_b, batch_bp,
                                         cfg, base_kind, batch_loss, None, None)
    return q


def meta_gradient(model, theta, phi, opt_state, batch_b, batch_bp, cfg,
                  base_kind=None, batch_loss=None, g=None, delta=None,
                  return_parts=False):
    """Exact reverse-mode gradient of Q w.r.t. phi (g and opt state fixed).

    Returns a phi-shaped container; with return_parts=True also (Q, parts).
    """
    q, parts, v, g, delta = _meta_value_and_grad(model, theta, phi, opt_state, batch_b,
                                                 batch_bp, cfg, base_kind, batch_loss,
                                                 g, delta)
    grad = phi.vjp(g, v, delta)
    if return_parts:
        return grad, q, parts
    return grad


def meta_step(phi, meta_state, meta_grad, cfg):
    """One meta-optimizer step on phi's flat vector."""
    flat = phi.to_flat()
    gflat = meta_grad.to_flat()
    if flat.size != gflat.size:
        raise ContractError("meta gradient does not match phi layout")
    delta, opt = update_direction(cfg.meta_opt, meta_state.opt, gflat)
    return phi.from_flat(flat - cfg.meta_lr * delta), MetaState(opt, meta_state.iteration + 1)


@dataclass
class TrainRow:
    step: int
    train_loss: float
    meta_objective: float | None
    lr_or_phi_norm: float
    fsd_term: float | None
    wsd_term: float | None
    eval_loss: float | None = None


@dataclass
class TrainResult:
    rows: list
    theta: ParamSet
    phi: object


DEFAULT_INIT_LR = {"sgd": 0.1, "sgd-momentum": 0.1, "rmsprop": 3e-4, "adam": 3e-4,
                   "kfac": 0.01}


def apo_train(model, theta0, cfg, task, steps, rng, mode="apo-lr", base_kind=None,
              init_lr=None, kfac=KfacSettings(), eval_fn=None, eval_every=0):
    """Online meta-learning loop.

    Per iteration t = 1..steps: sample B; every meta_interval-th iteration
    sample B' (and a separate loss batch under the fresh-loss policy), take
    one meta-optimizer step on phi through the one-step lookahead; then step
    theta with phi.update.  In preconditioner mode the first warmup_steps
    parameter updates use SGDm while phi is still meta-learned.  Base kind
    kfac (mode none only) steps with oracles.kfac_update at init_lr.  Raises
    TrainingDivergedError past the loss guard or on a NumericalError,
    carrying the rows of the steps completed before it.
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    if mode not in ("none", "apo-lr", "apo-precond"):
        raise ContractError(f"unknown mode {mode!r}")
    base_kind = base_kind or BaseOptKind("sgd")
    wd = base_kind.weight_decay
    lr0 = init_lr if init_lr is not None else DEFAULT_INIT_LR[base_kind.kind]
    use_kfac = base_kind.kind == "kfac"
    if use_kfac:
        if mode != "none":
            raise ContractError("the kfac base optimizer only runs with mode 'none'")
        from .oracles import kfac_statistics, kfac_update  # oracles imports apo
        phi = stats = None
    elif mode == "apo-precond":
        phi = init_identity(model, cfg.scale)
    else:
        phi = LrPhi(math.log(lr0))

    theta = theta0.copy()
    opt_state = init_state(base_kind, theta.flat)
    warmup = cfg.warmup_steps if mode == "apo-precond" else 0
    warm_kind = BaseOptKind("sgd-momentum", beta=0.9)
    warm_state = init_state(warm_kind, theta.flat) if warmup else None
    meta_state = init_meta_state(cfg, phi) if mode != "none" else None

    rows = []
    delta = last_q = last_fsd = last_wsd = None
    for t in range(1, steps + 1):
        batch = task.sample_batch(rng)
        try:
            loss, g = loss_and_grad(model, theta, batch)
            if not np.isfinite(loss) or loss > DIVERGENCE_GUARD:
                raise TrainingDivergedError(f"loss {loss} at step {t}", t, rows)
            if wd:
                g = g.map2(theta, lambda gg, th: gg + wd * th)
            if mode != "apo-precond" and not use_kfac:
                delta, opt_state = update_direction(base_kind, opt_state, g.flat)
            if mode != "none" and t % cfg.meta_interval == 0:
                batch_bp = task.sample_batch(rng)
                batch_loss = (task.sample_batch(rng)
                              if cfg.loss_batch_policy == "fresh" else None)
                mgrad, last_q, parts = meta_gradient(
                    model, theta, phi, None, batch, batch_bp, cfg, batch_loss=batch_loss,
                    g=g, delta=delta, return_parts=True)
                last_fsd, last_wsd = parts["fsd"], parts["wsd"]
                phi, meta_state = meta_step(phi, meta_state, mgrad, cfg)
            if use_kfac:
                stats = kfac_statistics(model, theta, batch.inputs, rng, stats, t, kfac)
                theta = kfac_update(theta, g, stats, kfac.damping, lr0)
            elif t <= warmup:
                wdelta, warm_state = update_direction(warm_kind, warm_state, g.flat)
                theta = apply_lr_update(theta, cfg.warmup_lr, wdelta)
            else:
                theta = phi.update(theta, g, delta)
            due = eval_fn is not None and eval_every and (t % eval_every == 0 or t == steps)
            eval_loss = float(eval_fn(theta)) if due else None
            rows.append(TrainRow(t, loss, last_q, lr0 if use_kfac else phi.scalar(),
                                 last_fsd, last_wsd, eval_loss))
        except NumericalError as exc:
            raise TrainingDivergedError(f"non-finite at step {t}: {exc}", t, rows) from exc
    return TrainResult(rows, theta, phi)
