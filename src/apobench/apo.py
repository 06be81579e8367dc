"""Proximal meta-objective, exact one-step meta-gradients, and the online
meta-learning training loop.

The meta-objective evaluated at the one-step lookahead theta'(phi) is

    Q(phi) = J_B(theta'(phi))
           + lam_fsd * mean_{x in B'} rho(f(x, theta'(phi)), f(x, theta))
           + lam_wsd * 0.5 * ||theta'(phi) - theta||^2

where theta'(phi) applies the update rule with the gradient g on B and the
base direction delta held fixed.  The loss term defaults to the same batch B
that produced g (the fresh-batch variant exists as an ablation and exhibits
the classic rapid learning-rate collapse).

Every base kind yields a direction Delta (baseopt); MODE_BASE_KINDS names
the kinds each mode takes.  A base step, theta - rate * Delta through
apply_lr_update, is each step of mode none (rate init_lr, no phi) and apo-lr
(init_lr until the first meta step, then phi's exp(log_lr)), and each of
apo-precond's warmup_steps (WARMUP_KIND at warmup_lr, init_lr unused), after
which phi.update steps.  A row logs the rate, or phi.scalar() under apo-precond.

Both phi types are ParamSets, so the meta-optimizer steps either one through
its flat vector: LrPhi holds the log learning rate (exp keeps the rate
positive) and kronprecond.PrecondPhi the Kronecker blocks.  Each owns its
rule: update(theta, g, delta, out) takes the step, and linearize(theta, g,
delta) also returns the step's vector-Jacobian product in phi, a closure
over its intermediates.  The training loop updates theta, phi and the
optimizer moments in place, each in its own buffer; what a step derives
(gradients, theta', the meta-gradient, Delta) is fresh.

Each output divergence rho is defined once, in DIVERGENCES: its per-row
value with its gradient in the new outputs, from one pass, and its Hessian
at zero displacement (the oracles read the Hessians).  An fsd kind of None
names the divergence the model head implies, per HEAD_DIVERGENCE.  The
proximal objective and its gradient in theta' are assembled once, by
proximal_value_and_grad, which meta_gradient and the exact proximal-point
oracle share.  meta_gradient is the one entry point to Q: one pass takes the
lookahead, Q with its terms, and dQ/dphi.  Given g, it costs one forward and
one backward on the loss batch, plus, when lam_fsd > 0, one forward at
theta', one at theta and one backward on the discrepancy rows: 3 forwards
and 2 backwards per meta step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseopt import (BASE_KINDS, KINDS, BaseOptKind, apply_lr_update, init_state,
                      kfac_direction, kfac_statistics, update_direction)
from .diffnet import ParamSet, _softmax_parts, backward, forward, loss_value_and_grad, softmax
from .errors import ContractError, DimensionError, NumericalError, TrainingDivergedError
from .kronprecond import DEFAULT_SCALE, init_identity
from .numkit import FLOAT


@dataclass(frozen=True)
class Divergence:
    """An output-space divergence rho(y_new, y_old) on row-batched outputs."""

    value_and_grad: object  # (y_new, y_old) -> (per-row rho (B,), d rho / d y_new (B, d))
    hessian: object  # (y,) -> per-row d^2 rho / d y_new^2 at y_new = y_old = y, shape (B, d, d)


def _kl_categorical(y_new, y_old):
    """KL( softmax(y_old) || softmax(y_new) ) per row, and its gradient in
    y_new, softmax(y_new) - softmax(y_old); each softmax's parts are shared."""
    zp, ep, sp = _softmax_parts(y_old)
    zq, eq, sq = _softmax_parts(y_new)
    lp = zp - np.log(sp)
    lq = zq - np.log(sq)
    return np.add.reduce(np.exp(lp) * (lp - lq), axis=1), eq / sq - ep / sp


def _softmax_hessians(y):
    p = softmax(y)[:, :, None]
    return np.eye(y.shape[1]) * p - p * p.transpose(0, 2, 1)


def _half_squared_distance(y_new, y_old):
    r = y_new - y_old
    return 0.5 * np.add.reduce(r ** 2, axis=1), r


def _squared_distance(y_new, y_old):
    r = y_new - y_old
    return np.add.reduce(r ** 2, axis=1), 2.0 * r


DIVERGENCES = {
    "kl-categorical": Divergence(_kl_categorical, _softmax_hessians),
    "kl-gaussian-unit-variance": Divergence(
        _half_squared_distance,
        lambda y: np.broadcast_to(np.eye(y.shape[1]), (*y.shape, y.shape[1]))),
    "squared-output-distance": Divergence(
        _squared_distance,
        lambda y: np.broadcast_to(2.0 * np.eye(y.shape[1]), (*y.shape, y.shape[1]))),
}
FSD_KINDS = tuple(DIVERGENCES)
# The divergence each model head implies, used wherever no fsd kind is named.
HEAD_DIVERGENCE = {
    "regression-gaussian-unit-variance": "kl-gaussian-unit-variance",
    "classification-softmax": "kl-categorical",
}
# The divergence whose per-row output Hessian is the loss's (the Gauss-Newton
# curvature of oracles.exact_ppm_solve).
HEAD_LOSS_CURVATURE = {
    "regression-gaussian-unit-variance": "squared-output-distance",
    "classification-softmax": "kl-categorical",
}
BATCH_POLICIES = ("same", "fresh")

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class ProximalConfig:
    """Proximal meta-learning settings; the defaults are learning-rate mode's
    (RMSprop meta-optimizer at 0.1), default_precond_config preconditioner's."""

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
        if self.warmup_lr <= 0:
            raise ContractError("warmup_lr must be positive")
        if self.loss_batch_policy not in BATCH_POLICIES:
            raise ContractError(f"bad loss_batch_policy {self.loss_batch_policy!r}")
        if self.fsd_batch_policy not in BATCH_POLICIES:
            raise ContractError(f"bad fsd_batch_policy {self.fsd_batch_policy!r}")
        if self.scale <= 0:
            raise ContractError("scale must be positive")


def default_precond_config(**overrides):
    """Preconditioner adaptation defaults: Adam meta-optimizer, identity init
    applied with the fixed DEFAULT_SCALE, and an SGDm warm-up phase."""
    base = dict(meta_opt=BaseOptKind("adam"), meta_lr=1e-4, warmup_steps=300)
    base.update(overrides)
    return ProximalConfig(**base)


class LrPhi(ParamSet):
    """Scalar log learning rate, the one entry of a ParamSet; exp keeps the
    induced rate positive."""

    LAYOUT = (((1,),),)

    def __init__(self, log_lr, layout=LAYOUT):
        """LrPhi(log_lr), or LrPhi(flat, layout) as ParamSet.from_layers
        rebuilds one."""
        if layout != LrPhi.LAYOUT:
            raise DimensionError(f"a learning-rate phi has layout {LrPhi.LAYOUT}, got {layout}")
        super().__init__(np.array(log_lr, dtype=FLOAT).reshape(1), layout)

    def _bind(self):
        """A one-entry vector has no per-layer views."""

    @property
    def log_lr(self):
        return float(self.flat[0])

    @property
    def lr(self):
        """exp(log_lr), read on each use; a NumericalError unless finite."""
        try:
            if math.isfinite(lr := math.exp(self.flat[0])):
                return lr
        except OverflowError:
            pass
        raise NumericalError(f"learning rate exp({self.log_lr}) is not finite")

    def update(self, theta, g, delta, out=None):
        """theta' = theta - lr * delta, into out or a new set; g is unused."""
        if delta is None:
            raise ContractError("a learning-rate update needs the base direction")
        return apply_lr_update(theta, self.lr, delta, out)

    def linearize(self, theta, g, delta):
        """(theta', vjp): the update and its vector-Jacobian product in
        log_lr, vjp(v) = d <v, theta'> / d log_lr = -lr <v, delta>."""
        return self.update(theta, g, delta), lambda v: LrPhi(-self.lr * v.dot(delta))


def divergence(model, kind=None):
    """The Divergence named kind; None names the model head's."""
    kind = kind or HEAD_DIVERGENCE[model.head]
    if kind not in DIVERGENCES:
        raise ContractError(f"unknown fsd kind {kind!r}")
    return DIVERGENCES[kind]


def loss_and_grad(model, params, batch):
    outputs, trace = forward(model, params, batch.inputs)
    loss, dy = loss_value_and_grad(model.head, outputs, batch.targets)
    g, _ = backward(model, params, trace, dy)
    return loss, g


def _add_scaled(a, lam, b):
    """a <- a + lam * b, written into a; b is overwritten with lam * b."""
    np.add(a, np.multiply(lam, b, out=b), out=a)


def proximal_value_and_grad(model, u, theta, loss_batch, fsd_inputs, lam_fsd, lam_wsd,
                            fsd_kind):
    """The proximal objective
    Q(u) = J_batch(u) + lam_fsd * FSD(u, theta) + lam_wsd * 0.5 ||u - theta||^2
    with its terms and its gradient in u (theta fixed), in one pass; a None
    fsd_kind means the model head's divergence.

    Returns (Q, {"loss", "fsd", "wsd"}, dQ/du); a term whose weight is zero is
    skipped and reported as 0.0.  dQ/du is the loss gradient's set, with the
    weighted fsd and wsd gradients added into its buffer.
    """
    loss_term, grad = loss_and_grad(model, u, loss_batch)
    fsd_term = wsd_term = 0.0
    if lam_fsd:
        div = divergence(model, fsd_kind)
        y_new, trace = forward(model, u, fsd_inputs)
        y_old, _ = forward(model, theta, fsd_inputs)
        rho, dy = div.value_and_grad(y_new, y_old)
        n = fsd_inputs.shape[0]
        fsd_term = float(np.add.reduce(rho) / n)
        fsd_grad, _ = backward(model, u, trace, dy / n)
        _add_scaled(grad.flat, lam_fsd, fsd_grad.flat)
    if lam_wsd:
        diff = u.flat - theta.flat
        wsd_term = 0.5 * u.sq_norm(diff)
        _add_scaled(grad.flat, lam_wsd, diff)
    q = loss_term + lam_fsd * fsd_term + lam_wsd * wsd_term
    return q, {"loss": loss_term, "fsd": fsd_term, "wsd": wsd_term}, grad


def meta_gradient(model, theta, phi, batch_b, batch_bp, cfg, g=None, delta=None,
                  batch_loss=None):
    """Exact reverse-mode gradient of Q w.r.t. phi at the lookahead
    theta' = phi.update(theta, g, delta), with g and delta held fixed:
    phi.linearize takes the lookahead and gives its vjp.

    g is the loss gradient on batch_b, computed here unless given; delta is
    the base direction a learning-rate phi steps along (a preconditioner
    ignores it).  Returns (dQ/dphi as a set of phi's type, Q, Q's terms
    {"loss", "fsd", "wsd"}); raises NumericalError on a non-finite term.
    """
    if g is None:
        _, g = loss_and_grad(model, theta, batch_b)
    theta_new, vjp = phi.linearize(theta, g, delta)
    if cfg.loss_batch_policy == "same":
        loss_batch = batch_b
    else:
        loss_batch = batch_loss if batch_loss is not None else batch_bp
    fsd_inputs = batch_bp.inputs if cfg.fsd_batch_policy == "fresh" else batch_b.inputs
    q, parts, v = proximal_value_and_grad(model, theta_new, theta, loss_batch, fsd_inputs,
                                          cfg.lam_fsd, cfg.lam_wsd, cfg.fsd_kind)
    for name, value in parts.items():
        if not math.isfinite(value):
            raise NumericalError(f"meta-objective {name} term is non-finite")
    return vjp(v), q, parts


def meta_step(phi, state, meta_grad, cfg):
    """One meta-optimizer step on phi's flat vector, phi <- phi - meta_lr *
    Delta, written in place, so the views phi binds stay valid.  state, the
    meta-optimizer's OptState (init_state(cfg.meta_opt, phi.flat)), advances
    in place and counts the meta steps; meta_grad is not written."""
    delta = update_direction(cfg.meta_opt, state, meta_grad.flat)
    np.subtract(phi.flat, cfg.meta_lr * delta, out=phi.flat)


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
# The base kinds each mode takes; apo-precond's warm-up steps with WARMUP_KIND.
MODE_BASE_KINDS = {"none": BASE_KINDS, "apo-lr": KINDS, "apo-precond": ("sgd",)}
WARMUP_KIND = BaseOptKind("sgd-momentum", beta=0.9)


# The non-finite guards decide a divergence; numpy's warnings would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def apo_train(model, theta0, cfg, task, steps, rng, mode="apo-lr", base_kind=None,
              init_lr=None, eval_fn=None, eval_every=0):
    """Online meta-learning loop.

    Per iteration t = 1..steps: sample B and, on a base step, take the base
    direction Delta; every meta_interval-th iteration (warm-up included)
    sample B' (and a separate loss batch under the fresh-loss policy) and
    take one meta-optimizer step on phi; then step theta as the module
    docstring says.  base_kind (default sgd) must be in MODE_BASE_KINDS[mode];
    its weight decay holds in every step; apo-precond takes no init_lr.
    theta is a copy of theta0, written in place.  Raises TrainingDivergedError past the loss guard or on a
    NumericalError, carrying the rows of the steps completed before it.
    """
    if steps < 1:
        raise ContractError("steps must be >= 1")
    if mode not in MODE_BASE_KINDS:
        raise ContractError(f"unknown mode {mode!r}")
    if theta0.layout != model.layout:
        raise DimensionError(f"theta0 layout {theta0.layout} != model layout {model.layout}")
    base_kind = base_kind or BaseOptKind("sgd")
    if base_kind.kind not in MODE_BASE_KINDS[mode]:
        raise ContractError(f"mode {mode!r} takes base kinds {MODE_BASE_KINDS[mode]}, "
                            f"not {base_kind.kind!r}")
    if mode == "apo-precond" and init_lr is not None:
        raise ContractError("apo-precond steps at cfg.warmup_lr, then with its "
                            "preconditioner, so it takes no init_lr")
    wd = base_kind.weight_decay
    rate = float(init_lr if init_lr is not None else DEFAULT_INIT_LR[base_kind.kind])
    phi, base_steps = None, steps
    if mode == "apo-lr":
        phi = LrPhi(math.log(rate))
    elif mode == "apo-precond":
        phi = init_identity(model, cfg.scale)
        base_kind, rate, base_steps = WARMUP_KIND, float(cfg.warmup_lr), cfg.warmup_steps

    theta = theta0.copy()
    opt_state = init_state(base_kind, theta.flat) if base_steps else None
    meta_state = init_state(cfg.meta_opt, phi.flat) if phi is not None else None

    rows = []
    stats = last_q = last_fsd = last_wsd = None
    for t in range(1, steps + 1):
        batch = task.sample_batch(rng)
        try:
            loss, g = loss_and_grad(model, theta, batch)
            if not math.isfinite(loss) or loss > DIVERGENCE_GUARD:
                raise TrainingDivergedError(f"loss {loss} at step {t}", t, rows)
            if wd:
                g = g.map2(theta, lambda gg, th: gg + wd * th)
            if t > base_steps:
                delta = None
            elif base_kind.kind == "kfac":
                stats = kfac_statistics(model, theta, batch.inputs, rng, stats, t, base_kind)
                delta = kfac_direction(g, stats.factors)
            else:
                delta = update_direction(base_kind, opt_state, g.flat)
            if phi is not None and t % cfg.meta_interval == 0:
                batch_bp = task.sample_batch(rng)
                batch_loss = (task.sample_batch(rng)
                              if cfg.loss_batch_policy == "fresh" else None)
                mgrad, last_q, parts = meta_gradient(model, theta, phi, batch, batch_bp, cfg,
                                                     g=g, delta=delta, batch_loss=batch_loss)
                last_fsd, last_wsd = parts["fsd"], parts["wsd"]
                meta_step(phi, meta_state, mgrad, cfg)
                if mode == "apo-lr":
                    rate = phi.lr
            if t <= base_steps:
                apply_lr_update(theta, rate, delta, theta)
            else:
                phi.update(theta, g, None, theta)
            due = eval_fn is not None and eval_every and (t % eval_every == 0 or t == steps)
            eval_loss = float(eval_fn(theta)) if due else None
            logged = phi.scalar() if mode == "apo-precond" else rate
            rows.append(TrainRow(t, loss, last_q, logged, last_fsd, last_wsd, eval_loss))
        except NumericalError as exc:
            raise TrainingDivergedError(f"non-finite at step {t}: {exc}", t, rows) from exc
    return TrainResult(rows, theta, phi)
