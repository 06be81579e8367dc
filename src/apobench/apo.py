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
which kronprecond.apply_precond_update steps.  A step's TrainRow logs the
rate in lr, or phi.scalar() in phi_frobenius_norm under apo-precond.

Both phi types are ParamSets, so the meta-optimizer steps either one through
its flat vector: LrPhi holds the log learning rate (exp keeps the rate
positive) and kronprecond.PrecondPhi the Kronecker blocks.  Each owns its
lookahead: linearize(theta, g, delta, work) takes the step into work and
returns it with its vector-Jacobian product in phi.  The training loop
updates theta, phi and the optimizer moments in place, each in its own
buffer, and writes every parameter-shaped array a step derives into a buffer
kept for the run: the training gradient into one set made with theta (and,
under weight decay, wd * theta into one vector made with it), Delta into its
OptState, and a meta step's arrays (theta', dQ/dtheta' with the wsd
difference, dQ/dphi, a preconditioner's kronprecond.PrecondWork) into the
MetaWork that the first step of a run with a phi makes; a learning-rate
lookahead puts lr * Delta in the buffer of theta' before theta' itself, and
apo-precond's steps after its warm-up update theta through the MetaWork's
PrecondWork.  Every meta-step function writes into a MetaWork the caller
passes; none makes arrays of its own.

Each output divergence rho is defined once, in DIVERGENCES: its per-row
value with its gradient in the new outputs, from one pass, and its Hessian
at zero displacement (the oracles read the Hessians).  An fsd kind of None
names the divergence the model head implies, per HEAD_DIVERGENCE.  The
proximal objective and its gradient in theta' are assembled once, by
proximal_value_and_grad, which meta_gradient and the exact proximal-point
oracle share.  meta_gradient is the one entry point to Q: one pass takes the
lookahead, Q with its terms, and dQ/dphi.  A meta step evaluates each point
once, over the rows meta_batches picks.  At theta, the training pass runs one
forward over [B; discrepancy inputs]: the B rows give the loss and, from one
backward over those rows alone, g; the other rows' outputs are the
discrepancy reference.  At theta', one forward over [loss batch;
discrepancy inputs] and one backward give Q and its gradient: 1 forward and
1 backward beyond the training pass, which reads the training pass's rows
when the loss batch is B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .baseopt import (BASE_KINDS, KINDS, BaseOptKind, apply_lr_update, init_state,
                      kfac_direction, kfac_statistics, update_direction)
from .diffnet import (Batch, ForwardTrace, ParamSet, _softmax_parts, backward, forward,
                      loss_value_and_grad, softmax)
from .errors import ContractError, DimensionError, NumericalError, TrainingDivergedError
from .kronprecond import DEFAULT_SCALE, PrecondWork, apply_precond_update, init_identity
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

    def lookahead_products(self):
        """A learning-rate lookahead keeps no products."""
        return None

    def linearize(self, theta, g, delta, work):
        """(theta', vjp): the update theta' = theta - lr * delta and its
        vector-Jacobian product in log_lr, vjp(v) = d <v, theta'> / d log_lr
        = -lr <v, delta>; g is unused.  theta' and each vjp result are
        written into work's theta_new and phi_grad (a MetaWork); lr * delta
        goes into the buffer of theta' before theta' does."""
        if delta is None:
            raise ContractError("a learning-rate update needs the base direction")
        theta_new = apply_lr_update(theta, self.lr, delta, work.theta_new, work.theta_new.flat)

        def vjp(v):
            work.phi_grad.flat[0] = -self.lr * v.dot(delta)
            return work.phi_grad

        return theta_new, vjp


def divergence(model, kind=None):
    """The Divergence named kind; None names the model head's."""
    kind = kind or HEAD_DIVERGENCE[model.head]
    if kind not in DIVERGENCES:
        raise ContractError(f"unknown fsd kind {kind!r}")
    return DIVERGENCES[kind]


def loss_and_grad(model, params, batch, fill=None, out=None):
    """(J, its gradient g, outputs): one forward over all of batch.inputs, J
    the mean loss on its target rows (the first len(batch.targets); a stacked
    batch's inputs run past them), and one backward over those rows or, given
    fill(dy, y), seeded with what fill returns from dJ/dy and the outputs y
    past them: [dJ/dy; the output gradient of a term on y].  g is written
    into the set out, or into a new set when out is None."""
    b = len(batch.targets)
    outputs, trace = forward(model, params, batch.inputs)
    loss, dy = loss_value_and_grad(model.head, outputs[:b], batch.targets)
    if fill is not None:
        dy = fill(dy, outputs[b:])
    elif len(outputs) > b:  # rows never mix in a pass: the target rows' trace is a slice
        trace = ForwardTrace([a[:b] for a in trace.acts], [s[:b] for s in trace.preacts])
    g, _ = backward(model, params, trace, dy, out)
    return loss, g, outputs


def meta_batches(cfg, batch_b, batch_bp, batch_loss=None, rows=None):
    """(train, prox): a meta step's batches at theta and at theta'.  The loss
    rows are B's under the loss policy "same", else batch_loss's (batch_bp's
    if None); the fsd rows are B''s inputs under the fsd policy "fresh", else
    B's.  With lam_fsd 0, train is B and prox the loss batch; otherwise train
    is [B; fsd rows] with B's targets and prox [loss rows; fsd rows] with the
    loss targets, their inputs in rows[0] and rows[1] (fresh arrays when rows
    is None) until the next call.  Under the loss policy "same" train is prox."""
    same = cfg.loss_batch_policy == "same"
    loss = batch_b if same else batch_bp if batch_loss is None else batch_loss
    if not cfg.lam_fsd:
        return batch_b, loss
    fsd = (batch_bp if cfg.fsd_batch_policy == "fresh" else batch_b).inputs
    rows = (None, None) if rows is None else rows
    train = Batch(np.concatenate((batch_b.inputs, fsd), out=rows[0]), batch_b.targets)
    if same:
        return train, train
    return train, Batch(np.concatenate((loss.inputs, fsd), out=rows[1]), loss.targets)


class MetaWork(NamedTuple):
    """The arrays a meta step writes, made by meta_work at the first step
    of a run with a phi and kept for the run: each call into a record
    overwrites what the last one wrote.  A None field is one the run never
    reads.  A preconditioner's products is its kind-major
    kronprecond.PrecondWork, which apo_train's steps after the warm-up
    update theta through too."""

    rows: tuple | None = None           # meta_batches' stacked inputs
    seed: np.ndarray | None = None      # the theta' backward's seed
    diff: np.ndarray | None = None      # theta' - theta, flat
    theta_new: ParamSet | None = None   # theta'
    grad: ParamSet | None = None        # dQ/dtheta'
    phi_grad: ParamSet | None = None    # dQ/dphi
    products: PrecondWork | None = None  # phi.lookahead_products()


def meta_work(model, theta, phi, cfg, b):
    """The MetaWork of a run on theta and phi whose batches have b rows,
    holding only the arrays cfg reads: the stacked rows and the seed when
    lam_fsd > 0 (the second stack only under the fresh loss policy), the wsd
    difference when lam_wsd > 0."""
    rows = seed = diff = None
    if cfg.lam_fsd:
        stacked = (2 * b, model.d_in)
        rows = (np.empty(stacked),
                np.empty(stacked) if cfg.loss_batch_policy == "fresh" else None)
        seed = np.empty((2 * b, model.d_out))
    if cfg.lam_wsd:
        diff = np.empty(theta.size)
    return MetaWork(rows, seed, diff, theta.map(np.empty_like), theta.map(np.empty_like),
                    phi.map(np.empty_like), phi.lookahead_products())


def proximal_value_and_grad(model, u, theta, batch, y_ref, lam_fsd, lam_wsd, fsd_kind, work):
    """The proximal objective
    Q(u) = J_batch(u) + lam_fsd * FSD(u, theta) + lam_wsd * 0.5 ||u - theta||^2
    with its terms and its gradient in u (theta fixed), from one forward and
    one backward at u; a None fsd_kind means the model head's divergence.
    When lam_fsd > 0, batch is stacked (meta_batches' prox): its rows past the
    targets are the fsd rows and y_ref their outputs at theta.  The backward's
    seed [dJ/dy; (lam_fsd / n) d rho / dy], dQ/du and the wsd difference
    u - theta are written into work's seed, grad and diff (a MetaWork).

    Returns (Q, {"loss", "fsd", "wsd"}, dQ/du); a term whose weight is zero is
    skipped and reported as 0.0.  dQ/du is the backward's set, with the
    weighted wsd gradient added into its buffer.
    """
    fsd_term = wsd_term = 0.0
    fsd_seed = None
    if lam_fsd:
        div, n = divergence(model, fsd_kind), len(y_ref)

        def fsd_seed(dy, y_new):
            nonlocal fsd_term
            rho, drho = div.value_and_grad(y_new, y_ref)
            fsd_term = float(np.add.reduce(rho) / n)
            out = np.concatenate((dy, drho), out=work.seed)
            out[len(dy):] *= lam_fsd / n
            return out

    loss_term, grad, _ = loss_and_grad(model, u, batch, fsd_seed, work.grad)
    if lam_wsd:
        diff = np.subtract(u.flat, theta.flat, out=work.diff)
        wsd_term = 0.5 * u.sq_norm(diff)
        grad.flat += np.multiply(lam_wsd, diff, out=diff)
    q = loss_term + lam_fsd * fsd_term + lam_wsd * wsd_term
    return q, {"loss": loss_term, "fsd": fsd_term, "wsd": wsd_term}, grad


def meta_gradient(model, theta, phi, train, prox, cfg, g, delta, outputs, work):
    """Exact reverse-mode gradient of Q w.r.t. phi at the lookahead theta'
    that phi.linearize takes, with g and delta held fixed; linearize also
    gives the lookahead's vjp.  train and prox are meta_batches'; g and
    outputs are the caller's training pass over train (loss_and_grad): the
    loss gradient at theta on train's target rows and the outputs on all its
    rows, whose rows past the targets are the fsd reference y_ref.  It costs
    1 forward and 1 backward, at theta' over prox.  delta is the base
    direction a learning-rate phi steps along (a preconditioner ignores it).
    theta', dQ/dtheta' and dQ/dphi are written into work, meta_work's record
    for this run.  Returns (dQ/dphi, which is work's phi_grad, Q, Q's terms
    {"loss", "fsd", "wsd"}); raises NumericalError on a non-finite term.
    """
    y_ref = outputs[len(train.targets):] if cfg.lam_fsd else None
    theta_new, vjp = phi.linearize(theta, g, delta, work)
    q, parts, v = proximal_value_and_grad(model, theta_new, theta, prox, y_ref, cfg.lam_fsd,
                                          cfg.lam_wsd, cfg.fsd_kind, work)
    for name, value in parts.items():
        if not math.isfinite(value):
            raise NumericalError(f"meta-objective {name} term is non-finite")
    return vjp(v), q, parts


def meta_step(phi, state, meta_grad, cfg):
    """One meta-optimizer step on phi's flat vector, phi <- phi - meta_lr *
    Delta, written in place, so the views phi binds stay valid.  state, the
    meta-optimizer's OptState (init_state(cfg.meta_opt, phi.flat)), advances
    in place and counts the meta steps, and meta_lr * Delta goes into its
    scratch; meta_grad is not written."""
    delta = update_direction(cfg.meta_opt, state, meta_grad.flat)
    np.subtract(phi.flat, np.multiply(cfg.meta_lr, delta, out=state.scratch), out=phi.flat)


class TrainRow(NamedTuple):
    """A completed step's metrics.csv row: its columns in order; None is empty."""

    step: int
    train_loss: float
    eval_loss: float | None
    meta_objective: float | None
    lr: float | None
    phi_frobenius_norm: float | None
    fsd_term: float | None
    wsd_term: float | None


DEFAULT_INIT_LR = {"sgd": 0.1, "sgd-momentum": 0.1, "rmsprop": 3e-4, "adam": 3e-4,
                   "kfac": 0.01}
# The base kinds each mode takes; apo-precond's warm-up steps with WARMUP_KIND.
MODE_BASE_KINDS = {"none": BASE_KINDS, "apo-lr": KINDS, "apo-precond": ("sgd",)}
WARMUP_KIND = BaseOptKind("sgd-momentum", beta=0.9)


# The non-finite guards decide a divergence; numpy's warnings would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def apo_train(task, theta0, cfg, steps, rng, emit, mode="apo-lr", base_kind=None,
              init_lr=None, eval_every=0):
    """Online meta-learning loop on task.model; returns (theta, phi).

    Per iteration t = 1..steps: sample B, and on every meta_interval-th
    iteration (warm-up included) then B' and, under the fresh-loss policy,
    the loss batch, in that order.  Take the training pass, over B or, on a
    meta step, over meta_batches' train, whose outputs past B's rows are the
    fsd reference, and on a base step the base direction Delta; on a meta
    step take one meta-optimizer step on phi; then step theta as the module
    docstring says.  The training gradient is one set made with theta (with
    one vector for wd * theta under weight decay), and the meta step's
    arrays one MetaWork that the first step makes when a phi exists; each
    is written in place by every step after.  The draws come before
    kfac's, the one other rng use in a step, and no mode with a phi takes
    kfac.  base_kind (default sgd) must be in MODE_BASE_KINDS[mode]; its
    weight decay holds in every step; apo-precond takes no init_lr.  theta is a copy of theta0, written in place.
    emit(row) takes each completed step's TrainRow in step order, with
    eval_loss = task.eval_loss(theta) at each eval_every-th step and the last
    (never if eval_every is 0).  Past the loss guard or on a NumericalError
    at step t (a non-finite output on B' ends the training forward there),
    raises TrainingDivergedError after rows 1..t-1.
    """
    model = task.model
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
    grad = theta.map(np.empty_like)
    decay = np.empty_like(theta.flat) if wd else None
    opt_state = init_state(base_kind, theta.flat) if base_steps else None
    meta_state = init_state(cfg.meta_opt, phi.flat) if phi is not None else None

    stats = last_q = last_fsd = last_wsd = work = None
    for t in range(1, steps + 1):
        batch = train = task.sample_batch(rng)
        meta = phi is not None and t % cfg.meta_interval == 0
        if phi is not None and work is None:
            work = meta_work(model, theta, phi, cfg, len(batch.targets))
        try:
            if meta:
                batch_bp = task.sample_batch(rng)
                batch_loss = (task.sample_batch(rng)
                              if cfg.loss_batch_policy == "fresh" else None)
                train, prox = meta_batches(cfg, batch, batch_bp, batch_loss, work.rows)
            loss, g, outputs = loss_and_grad(model, theta, train, out=grad)
            if not math.isfinite(loss) or loss > DIVERGENCE_GUARD:
                raise TrainingDivergedError(f"loss {loss} at step {t}", t)
            if wd:
                g.flat += np.multiply(wd, theta.flat, out=decay)
            if t > base_steps:
                delta = None
            elif base_kind.kind == "kfac":
                stats = kfac_statistics(model, theta, batch.inputs, rng, stats, t, base_kind)
                delta = kfac_direction(g, stats.factors)
            else:
                delta = update_direction(base_kind, opt_state, g.flat)
            if meta:
                mgrad, last_q, parts = meta_gradient(model, theta, phi, train, prox, cfg, g,
                                                     delta, outputs, work)
                last_fsd, last_wsd = parts["fsd"], parts["wsd"]
                meta_step(phi, meta_state, mgrad, cfg)
                if mode == "apo-lr":
                    rate = phi.lr
            if t <= base_steps:
                apply_lr_update(theta, rate, delta, theta, opt_state.scratch)
            else:
                apply_precond_update(theta, phi, g, work.products, theta)
            due = eval_every and (t % eval_every == 0 or t == steps)
            eval_loss = float(task.eval_loss(theta)) if due else None
            lr, phi_norm = (None, phi.scalar()) if mode == "apo-precond" else (rate, None)
            emit(TrainRow(t, loss, eval_loss, last_q, lr, phi_norm, last_fsd, last_wsd))
        except NumericalError as exc:
            raise TrainingDivergedError(f"non-finite at step {t}: {exc}", t) from exc
    return theta, phi
