"""Differentiable models: MLPs, their losses, and reverse-mode gradients.

Weight matrices are stored fan_in x fan_out, so a forward step is
``a @ W + b`` on row-batched activations.  A ParamSet stores all parameters
in one float64 vector: each layer's W in C order, then its bias.  This is
also the parameter order of the dense oracles, and it makes the per-layer
Fisher blocks come out as (input stats) kron (output stats).  The
preconditioner's meta-parameters (kronprecond.PrecondPhi) are stored
kind-major instead, each kind of array of every layer in one region.

``forward`` keeps every layer's activation in its ForwardTrace, and
``backward`` reads them from there instead of computing them again.
``preact_jacobians`` sweeps a whole batch with one forward and one backward
per output unit; the per-example Jacobian and the exact oracles read it.

Each input is checked once, where it enters: ``check_dataset`` checks a
task's inputs and targets (finite floats; labels: integers in [0, d_out))
when the task is built, apo.apo_train checks theta0's layout at its entry, and
kronprecond.PrecondPhi its block layout when it is constructed.  Batch,
forward, the losses and the preconditioner trust those checks; the step keeps
only the non-finite guards that decide a divergence.

ReLU uses subgradient 0 at 0; finite-difference checks are run on smooth
activations or off-kink inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, NumericalError
from .numkit import FLOAT, require_oracle_scale

ACTIVATIONS = ("linear", "relu", "sigmoid")
HEADS = ("regression-gaussian-unit-variance", "classification-softmax")


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str = "linear"
    has_bias: bool = True

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ContractError(f"fan extents must be positive, got {self.fan_in}x{self.fan_out}")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class Model:
    layers: tuple
    head: str

    def __post_init__(self):
        if self.head not in HEADS:
            raise ContractError(f"unknown head {self.head!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ContractError(
                    f"layer extents do not chain: {prev.fan_out} -> {nxt.fan_in}"
                )

    @property
    def d_in(self):
        return self.layers[0].fan_in

    @property
    def d_out(self):
        return self.layers[-1].fan_out

    @functools.cached_property
    def layout(self):
        """The ParamSet layout of this model's parameters."""
        return tuple(((s.fan_in, s.fan_out), (s.fan_out,) if s.has_bias else None)
                     for s in self.layers)


def mlp(widths, activation="sigmoid", head="regression-gaussian-unit-variance",
        out_activation="linear", bias=True):
    """MLP over a width chain, hidden activation everywhere but the last layer."""
    layers = []
    for i, (m, n) in enumerate(zip(widths, widths[1:])):
        act = out_activation if i == len(widths) - 2 else activation
        layers.append(LayerSpec(m, n, act, bias))
    return Model(tuple(layers), head)


class ParamSet:
    """Per-layer weights and optional biases held in one contiguous float64
    vector ``flat``; also the container for gradients and other
    parameter-shaped values, and the base class of both meta-parameter types
    phi (apo.LrPhi, kronprecond.PrecondPhi), which the meta-optimizer steps
    through ``flat``.

    ``layout`` gives, per layer, the shape of each of its arrays (None for an
    absent one).  ``flat`` stores them layer by layer, each layer's arrays in
    layout order, as theta and its gradients are stored; a KIND_MAJOR set
    (kronprecond.PrecondPhi) stores every layer's first array, then every
    layer's second, and so on, so each kind is one contiguous region.  The
    per-layer arrays are views of ``flat``, kept in tuples so they can be
    written through but not rebound.  Subclasses name the views of their own
    layouts in ``_bind``.
    """

    KIND_MAJOR = False

    def __init__(self, flat, layout):
        self.flat = flat
        self.layout = layout
        self._spans = ParamSet._offsets(layout, self.KIND_MAJOR)
        self._bind()

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _offsets(layout, kind_major):
        """Per layer, (start, stop, shape) of each array in ``flat`` (None
        where absent), in layer-major or kind-major storage order."""
        slots = [(l, i) for l, layer in enumerate(layout) for i in range(len(layer))]
        if kind_major:
            slots.sort(key=lambda slot: slot[1])
        spans, k = [[None] * len(layer) for layer in layout], 0
        for l, i in slots:
            if (shape := layout[l][i]) is not None:
                n = math.prod(shape)
                spans[l][i] = (k, k + n, shape)
                k += n
        return tuple(map(tuple, spans))

    def _views(self):
        """Per array slot of a layer (W, b, ...), its view of ``flat`` in
        every layer, None where absent."""
        flat = self.flat
        return zip(*[[None if span is None else flat[span[0]:span[1]].reshape(span[2])
                      for span in layer] for layer in self._spans])

    def _bind(self):
        self.weights, self.biases = map(tuple, self._views())

    def stacked(self):
        """Per layer of a (W, b) layout, the one view of ``flat`` that holds
        W with b appended as its last row (W alone for a bias-free layer):
        the homogeneous [W; b] that a Kronecker-factored step acts on."""
        views = []
        for w, b in self._spans:
            fan_in, fan_out = w[2]
            stop = w[1] if b is None else b[1]
            views.append(self.flat[w[0]:stop].reshape(fan_in + (b is not None), fan_out))
        return views

    @classmethod
    def from_layers(cls, layers, *args):
        """A set whose fresh buffer holds copies of the given arrays: one
        tuple per layer, in layout order, None for an absent array."""
        layers = [tuple(None if a is None else np.asarray(a, dtype=FLOAT) for a in layer)
                  for layer in layers]
        layout = tuple(tuple(None if a is None else a.shape for a in layer)
                       for layer in layers)
        flat = np.empty(sum(a.size for layer in layers for a in layer if a is not None))
        for layer, spans in zip(layers, ParamSet._offsets(layout, cls.KIND_MAJOR)):
            for a, span in zip(layer, spans):
                if a is not None:
                    flat[span[0]:span[1]] = a.ravel()
        return cls(flat, layout, *args)

    def with_flat(self, flat):
        """New set with this one's layout (and attributes) whose buffer is
        ``flat`` itself, not a copy."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.flat = flat
        new._bind()
        return new

    def map(self, fn):
        return self.with_flat(fn(self.flat))

    def map2(self, other, fn):
        return self.with_flat(fn(self.flat, other.flat))

    def copy(self):
        return self.map(np.copy)

    def dot(self, other):
        """One dot product over ``flat``; ``other`` is a set of the same
        layout or its flat vector."""
        return float(np.vdot(self.flat, other.flat if isinstance(other, ParamSet) else other))

    def sq_norm(self, flat=None):
        """The squared norm of flat (this set's by default), one dot product."""
        a = self.flat if flat is None else flat
        return float(np.vdot(a, a))

    @property
    def size(self):
        return self.flat.size

    def all_finite(self):
        return bool(np.isfinite(self.flat).all())

    def to_flat(self):
        return self.flat.copy()

    def from_flat(self, vec):
        """New set with this one's layout holding a copy of a flat vector."""
        vec = np.array(vec, dtype=FLOAT).reshape(-1)
        if vec.size != self.size:
            raise DimensionError(f"flat vector has {vec.size} entries, need {self.size}")
        return self.with_flat(vec)


def init_params(model, rng):
    """Fan-in-scaled uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    layers = []
    for spec in model.layers:
        bound = 1.0 / np.sqrt(spec.fan_in)
        layers.append((rng.uniform(-bound, bound, size=(spec.fan_in, spec.fan_out)),
                       np.zeros(spec.fan_out) if spec.has_bias else None))
    return ParamSet.from_layers(layers)


def check_dataset(model, inputs, targets):
    """Inputs are at least one float64 row of d_in finite features; targets
    have as many rows: an integer label vector in [0, d_out) for
    classification, else float64 rows of d_out finite values."""
    if inputs.dtype != FLOAT or inputs.ndim != 2 or inputs.shape[1] != model.d_in:
        raise DimensionError(f"inputs must be float64 rows of {model.d_in} features, "
                             f"got {inputs.dtype} {inputs.shape}")
    if len(inputs) < 1:
        raise ContractError("a dataset needs at least one example")
    if len(targets) != len(inputs):
        raise DimensionError("inputs and targets disagree on row count")
    if model.head != "classification-softmax":
        if targets.dtype != FLOAT or targets.shape != (len(inputs), model.d_out):
            raise DimensionError(f"targets must be float64 rows of {model.d_out} values, "
                                 f"got {targets.dtype} {targets.shape}")
    elif targets.ndim != 1 or not np.issubdtype(targets.dtype, np.integer):
        raise ContractError("classification targets must be a vector of integer labels")
    elif targets.min() < 0 or targets.max() >= model.d_out:
        raise ContractError(f"label outside [0, {model.d_out}): "
                            f"{targets.min()}..{targets.max()}")
    finite = np.isfinite(inputs).all(axis=1)
    if targets.dtype == FLOAT:
        finite &= np.isfinite(targets).all(axis=1)
    if not finite.all():
        raise ContractError(f"row {int(np.argmin(finite))} has a non-finite input or target")


@dataclass
class Batch:
    """Input rows and the targets of its first len(targets) rows; a stacked
    batch's inputs run past its targets (apo.meta_batches)."""

    inputs: np.ndarray
    targets: np.ndarray


@dataclass
class ForwardTrace:
    """Every activation and pre-activation of a forward pass, kept for
    backprop and KFAC stats; backward reads the activations, never
    recomputes them.

    acts[l] is the activation entering layer l (acts[0] is the batch input)
    and acts[-1] the output, the array forward returns; preacts[l] =
    acts[l] @ W_l (+ b_l).
    """

    acts: list = field(default_factory=list)
    preacts: list = field(default_factory=list)


def _act(name, s):
    if name == "linear":
        return s
    if name == "relu":
        return np.maximum(s, 0.0)
    return 1.0 / (1.0 + np.exp(-s))  # sigmoid


def _act_grad(name, da, s, a):
    """da times the activation's derivative at s (a is its value there);
    for linear that product is da itself."""
    if name == "linear":
        return da
    if name == "relu":
        return da * (s > 0)
    return da * (a * (1.0 - a))  # sigmoid, from the cached activation


def forward(model, params, inputs):
    """Run the network; returns (outputs, ForwardTrace)."""
    trace = ForwardTrace([inputs])
    a = inputs
    for spec, w, b in zip(model.layers, params.weights, params.biases):
        s = a @ w
        if b is not None:
            s = s + b
        trace.preacts.append(s)
        a = _act(spec.activation, s)
        trace.acts.append(a)
    if not np.isfinite(a).all():
        raise NumericalError("forward pass produced non-finite outputs")
    return a, trace


def backward(model, params, trace, out_grad, out=None):
    """Vector-Jacobian product of the forward map.

    out_grad is d(scalar)/d(outputs), shape B x d_out.  Returns
    (ParamSet gradient, per-layer pre-activation gradients ds); the gradient
    is written into the set out, or into a new set when out is None.  Each
    layer's activation comes from the trace; a linear layer's ds is the
    incoming gradient array itself.
    """
    g = params.map(np.empty_like) if out is None else out
    ds_list = [None] * len(model.layers)
    da = out_grad
    for idx in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[idx]
        ds = _act_grad(spec.activation, da, trace.preacts[idx], trace.acts[idx + 1])
        ds_list[idx] = ds
        np.matmul(trace.acts[idx].T, ds, out=g.weights[idx])
        if spec.has_bias:
            np.add.reduce(ds, axis=0, out=g.biases[idx])
        if idx > 0:
            da = ds @ params.weights[idx].T
    return g, ds_list


def _softmax_parts(y):
    """The shared parts of a row softmax: z = y minus its row maximum (exact
    and faster down a contiguous transpose), exp(z), and its row sums."""
    z = y - np.maximum.reduce(np.ascontiguousarray(y.T), axis=0)[:, None]
    e = np.exp(z)
    return z, e, np.add.reduce(e, axis=1, keepdims=True)


def _loss(head, outputs, targets):
    """loss_eval's value, and what its gradient reuses: the residual
    (regression) or the softmax parts (classification)."""
    b = len(outputs)
    if head == "regression-gaussian-unit-variance":
        r = outputs - targets
        return float(np.add.reduce(np.add.reduce(r ** 2, axis=1)) / b), r
    parts = z, _, total = _softmax_parts(outputs)
    return float(np.add.reduce(np.log(total[:, 0]) - z[np.arange(b), targets]) / b), parts


def loss_eval(head, outputs, targets):
    """Mean per-example loss: squared error for regression, softmax
    cross-entropy for classification."""
    return _loss(head, outputs, targets)[0]


def loss_value_and_grad(head, outputs, targets):
    """(loss_eval, d loss_eval / d outputs) from one pass: one residual, or
    one shift, exp and row sum of the logits."""
    loss, shared = _loss(head, outputs, targets)
    b = len(outputs)
    if head == "regression-gaussian-unit-variance":
        return loss, 2.0 * shared / b
    _, e, total = shared
    p = e / total
    p[np.arange(b), targets] -= 1.0
    return loss, p / b


def softmax(outputs):
    """Row softmax of logits: the classification head's predictive
    probabilities."""
    _, e, total = _softmax_parts(outputs)
    return e / total


def preact_jacobians(model, params, inputs):
    """One forward on the whole batch, then one backward per output unit j
    seeded with e_j on every row (rows never mix in a backward pass).
    Returns (outputs, trace, ds): ds[l] is B x d_out x fan_out, with
    ds[l][b, j] = d y_j(x_b) / d s_l(x_b) at layer l's pre-activation."""
    outputs, trace = forward(model, params, inputs)
    per_out = [backward(model, params, trace, np.tile(e, (len(outputs), 1)))[1]
               for e in np.eye(outputs.shape[1])]
    return outputs, trace, [np.stack(ds, axis=1) for ds in zip(*per_out)]


def per_example_jacobian(model, params, inputs):
    """(outputs, the exact per-example Jacobian d f(x_b, theta) / d theta,
    B x d_out x m).

    Parameter ordering is the ParamSet storage order (row-major W, then bias,
    per layer).  From one preact_jacobians sweep: a weight block is the outer
    product of the layer input with ds, a bias block is ds itself.
    """
    require_oracle_scale("per_example_jacobian", params.size)
    outputs, trace, ds = preact_jacobians(model, params, inputs)
    blocks = []
    for spec, a, d in zip(model.layers, trace.acts[:-1], ds):
        blocks.append((a[:, None, :, None] * d[:, :, None, :]).reshape(*d.shape[:2], -1))
        if spec.has_bias:
            blocks.append(d)
    return outputs, np.concatenate(blocks, axis=2)
