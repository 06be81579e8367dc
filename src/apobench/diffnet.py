"""Differentiable models: MLPs, a 2-parameter Rosenbrock model, losses, and
reverse-mode gradients.

Weight matrices are stored fan_in x fan_out, so a forward step is
``a @ W + b`` on row-batched activations.  A ParamSet stores all parameters
in one float64 vector: each layer's W in C order, then its bias.  This is
also the parameter order of the dense oracles, and it makes the per-layer
Fisher blocks come out as (input stats) kron (output stats).

ReLU uses subgradient 0 at 0; finite-difference checks are run on smooth
activations or off-kink inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, NumericalError, OracleScaleError
from .numkit import FLOAT

ACTIVATIONS = ("linear", "relu", "sigmoid")
HEADS = ("regression-gaussian-unit-variance", "classification-softmax", "rosenbrock-direct")

JACOBIAN_MAX_PARAMS = 2000


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
    kind: str = "mlp"  # "mlp" or "rosenbrock"

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


def rosenbrock_model():
    """Two free parameters (x, y) stored as a 2x1 weight; the scalar output is
    (1 - x)^2 + 100 (y - x^2)^2 regardless of the (dummy) input rows."""
    return Model((LayerSpec(2, 1, "linear", False),), "rosenbrock-direct", kind="rosenbrock")


class ParamSet:
    """Per-layer weights and optional biases held in one contiguous float64
    vector ``flat``; also the container for gradients and other
    parameter-shaped values.

    ``layout`` gives, per layer, the shape of each of its arrays (None for an
    absent one), in storage order.  The per-layer arrays are views of
    ``flat``, kept in tuples so they can be written through but not rebound.
    Subclasses name the views of their own layouts in ``_bind``.
    """

    def __init__(self, flat, layout):
        self.flat = flat
        self.layout = layout
        self._spans, self._bounds = ParamSet._offsets(layout)
        self._bind()

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _offsets(layout):
        """Per layer, (start, stop, shape) of each array in ``flat`` (None
        where absent); and the (start, stop) of every present array."""
        spans, k = [], 0
        for layer in layout:
            row = []
            for shape in layer:
                n = 0 if shape is None else math.prod(shape)
                row.append(None if shape is None else (k, k + n, shape))
                k += n
            spans.append(tuple(row))
        return tuple(spans), tuple(span[:2] for row in spans for span in row if span)

    def _views(self):
        """Per array slot of a layer (W, b, ...), its view of ``flat`` in
        every layer, None where absent."""
        flat = self.flat
        return zip(*[[None if span is None else flat[span[0]:span[1]].reshape(span[2])
                      for span in layer] for layer in self._spans])

    def _bind(self):
        self.weights, self.biases = map(tuple, self._views())

    @classmethod
    def from_layers(cls, layers, *args):
        """A set whose fresh buffer holds copies of the given arrays: one
        tuple per layer, in storage order, None for an absent array."""
        layers = [tuple(None if a is None else np.asarray(a, dtype=FLOAT) for a in layer)
                  for layer in layers]
        layout = tuple(tuple(None if a is None else a.shape for a in layer)
                       for layer in layers)
        flat = np.concatenate([a.ravel() for layer in layers for a in layer if a is not None])
        return cls(flat, layout, *args)

    def _with_flat(self, flat):
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.flat = flat
        new._bind()
        return new

    def map(self, fn):
        return self._with_flat(fn(self.flat))

    def map2(self, other, fn):
        return self._with_flat(fn(self.flat, other.flat))

    def copy(self):
        return self.map(np.copy)

    def zeros_like(self):
        return self.map(np.zeros_like)

    def dot(self, other):
        """Sum of the per-array dot products in layout order; ``other`` is a
        set of the same layout or its flat vector."""
        a, b = self.flat, other.flat if isinstance(other, ParamSet) else other
        return float(sum(np.vdot(a[i:j], b[i:j]) for i, j in self._bounds))

    def sq_norm(self):
        a = self.flat
        return float(sum(np.vdot(a[i:j], a[i:j]) for i, j in self._bounds))

    @property
    def size(self):
        return self.flat.size

    def all_finite(self):
        return bool(np.all(np.isfinite(self.flat)))

    def to_flat(self):
        return self.flat.copy()

    def from_flat(self, vec):
        """New set with this one's layout holding a copy of a flat vector."""
        vec = np.array(vec, dtype=FLOAT).reshape(-1)
        if vec.size != self.size:
            raise DimensionError(f"flat vector has {vec.size} entries, need {self.size}")
        return self._with_flat(vec)


def init_params(model, rng):
    """Fan-in-scaled uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    layers = []
    for spec in model.layers:
        bound = 1.0 / np.sqrt(spec.fan_in)
        layers.append((rng.uniform(-bound, bound, size=(spec.fan_in, spec.fan_out)),
                       np.zeros(spec.fan_out) if spec.has_bias else None))
    return ParamSet.from_layers(layers)


def check_params(model, params):
    if params.layout != model.layout:
        raise DimensionError(f"parameter layout {params.layout} != model layout {model.layout}")


@dataclass
class Batch:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=FLOAT)
        targets = np.asarray(self.targets)
        if not np.issubdtype(targets.dtype, np.integer):
            targets = targets.astype(FLOAT)
        self.targets = targets
        if self.inputs.ndim != 2:
            raise DimensionError(f"inputs must be 2-D, got {self.inputs.shape}")
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise DimensionError("inputs and targets disagree on row count")
        if self.inputs.shape[0] < 1:
            raise ContractError("batch must contain at least one example")

    @property
    def size(self):
        return self.inputs.shape[0]


@dataclass
class ForwardTrace:
    """Per-layer inputs and pre-activations kept for backprop / KFAC stats.

    layer_inputs[l] is the activation entering layer l (layer_inputs[0] is the
    batch input); preacts[l] = layer_inputs[l] @ W_l (+ b_l).
    """

    layer_inputs: list = field(default_factory=list)
    preacts: list = field(default_factory=list)


def _act(name, s):
    if name == "linear":
        return s
    if name == "relu":
        return np.maximum(s, 0.0)
    return 1.0 / (1.0 + np.exp(-s))  # sigmoid


def _act_deriv(name, s, a):
    if name == "linear":
        return np.ones_like(s)
    if name == "relu":
        return (s > 0).astype(FLOAT)
    return a * (1.0 - a)  # sigmoid, from the cached activation


def _rosenbrock_value(w):
    x, y = float(w[0, 0]), float(w[1, 0])
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def _rosenbrock_grad(w):
    x, y = float(w[0, 0]), float(w[1, 0])
    gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x)
    gy = 200.0 * (y - x * x)
    return np.array([[gx], [gy]])


def forward(model, params, inputs):
    """Run the network; returns (outputs, ForwardTrace)."""
    check_params(model, params)
    inputs = np.asarray(inputs, dtype=FLOAT)
    if inputs.ndim != 2:
        raise DimensionError(f"inputs must be 2-D, got {inputs.shape}")
    if model.kind == "rosenbrock":
        f = _rosenbrock_value(params.weights[0])
        outputs = np.full((inputs.shape[0], 1), f)
        return outputs, ForwardTrace([inputs], [outputs.copy()])
    if inputs.shape[1] != model.d_in:
        raise DimensionError(f"inputs have {inputs.shape[1]} features, model wants {model.d_in}")
    trace = ForwardTrace()
    a = inputs
    for spec, w, b in zip(model.layers, params.weights, params.biases):
        trace.layer_inputs.append(a)
        s = a @ w
        if b is not None:
            s = s + b
        trace.preacts.append(s)
        a = _act(spec.activation, s)
    if not np.all(np.isfinite(a)):
        raise NumericalError("forward pass produced non-finite outputs")
    return a, trace


def backward(model, params, trace, out_grad):
    """Vector-Jacobian product of the forward map.

    out_grad is d(scalar)/d(outputs), shape B x d_out.  Returns
    (ParamSet gradient, per-layer pre-activation gradients ds).
    """
    if model.kind == "rosenbrock":
        seed = float(np.sum(out_grad))
        g = params.from_flat(seed * _rosenbrock_grad(params.weights[0]))
        return g, [np.asarray(out_grad, dtype=FLOAT)]
    g = params.map(np.empty_like)
    ds_list = [None] * len(model.layers)
    da = np.asarray(out_grad, dtype=FLOAT)
    for idx in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[idx]
        s = trace.preacts[idx]
        a = _act(spec.activation, s)
        ds = da * _act_deriv(spec.activation, s, a)
        ds_list[idx] = ds
        np.matmul(trace.layer_inputs[idx].T, ds, out=g.weights[idx])
        if spec.has_bias:
            ds.sum(axis=0, out=g.biases[idx])
        if idx > 0:
            da = ds @ params.weights[idx].T
    return g, ds_list


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _as_labels(targets, n_classes, batch):
    if np.issubdtype(np.asarray(targets).dtype, np.integer):
        labels = np.asarray(targets).reshape(-1)
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ContractError(
                f"label outside [0, {n_classes}): {labels.min()}..{labels.max()}"
            )
        return labels
    onehot = np.asarray(targets, dtype=FLOAT)
    if onehot.shape != (batch, n_classes):
        raise DimensionError(f"one-hot targets must be {batch}x{n_classes}")
    return onehot.argmax(axis=1)


def loss_eval(head, outputs, targets):
    """Mean per-example loss: squared error for regression, softmax
    cross-entropy for classification, raw function value for rosenbrock."""
    outputs = np.asarray(outputs, dtype=FLOAT)
    b = outputs.shape[0]
    if head == "rosenbrock-direct":
        return float(outputs.mean())
    if head == "regression-gaussian-unit-variance":
        t = np.asarray(targets, dtype=FLOAT).reshape(outputs.shape)
        return float(np.mean(np.sum((outputs - t) ** 2, axis=1)))
    labels = _as_labels(targets, outputs.shape[1], b)
    z = outputs - outputs.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(z), axis=1))
    return float(np.mean(logz - z[np.arange(b), labels]))


def loss_out_grad(head, outputs, targets):
    """d loss_eval / d outputs (includes the 1/B mean factor)."""
    outputs = np.asarray(outputs, dtype=FLOAT)
    b = outputs.shape[0]
    if head == "rosenbrock-direct":
        return np.full_like(outputs, 1.0 / b)
    if head == "regression-gaussian-unit-variance":
        t = np.asarray(targets, dtype=FLOAT).reshape(outputs.shape)
        return 2.0 * (outputs - t) / b
    labels = _as_labels(targets, outputs.shape[1], b)
    p = _softmax(outputs)
    p[np.arange(b), labels] -= 1.0
    return p / b


def grad_params(model, params, batch, head=None):
    """Reverse-mode gradient of loss_eval(forward(.)) over the batch."""
    head = head or model.head
    outputs, trace = forward(model, params, batch.inputs)
    dy = loss_out_grad(head, outputs, batch.targets)
    g, _ = backward(model, params, trace, dy)
    if not g.all_finite():
        raise NumericalError("parameter gradient is non-finite")
    return g


def predictive(head, outputs):
    """Predictive-distribution parameters: softmax probabilities for
    classification, means passed through for regression."""
    outputs = np.asarray(outputs, dtype=FLOAT)
    if head == "classification-softmax":
        return _softmax(outputs)
    return outputs


def per_example_jacobian(model, params, inputs):
    """Exact per-example Jacobian d f(x_b, theta) / d theta, B x d_out x m.

    Parameter ordering is the ParamSet storage order (row-major W, then bias,
    per layer).  Loops over examples and output units; oracle scale only.
    """
    m = params.size
    if m > JACOBIAN_MAX_PARAMS:
        raise OracleScaleError(f"per_example_jacobian limited to {JACOBIAN_MAX_PARAMS} params, got {m}")
    inputs = np.asarray(inputs, dtype=FLOAT)
    bsz = inputs.shape[0]
    outputs, _ = forward(model, params, inputs)
    d_out = outputs.shape[1]
    jac = np.zeros((bsz, d_out, m))
    for bi in range(bsz):
        row = inputs[bi:bi + 1]
        _, trace = forward(model, params, row)
        for j in range(d_out):
            seed = np.zeros((1, d_out))
            seed[0, j] = 1.0
            g, _ = backward(model, params, trace, seed)
            jac[bi, j] = g.flat
    return jac
