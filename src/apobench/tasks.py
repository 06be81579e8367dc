"""Desk-scale problem generators and CSV ingestion.

Each task bundles a model, a seeded parameter initializer, a batch sampler
(driven by the caller's rng so training streams stay reproducible), and an
exact or full-dataset evaluation function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .diffnet import (Batch, LayerSpec, Model, ParamSet, forward, init_params,
                      loss_eval, mlp, rosenbrock_model)
from .errors import ContractError, IngestionError
from .numkit import FLOAT, make_rng, rand_orthogonal

SIGMA_FLOOR = 1e-12

# Per task kind, the builder keywords that TaskSpec.params may set, with the
# JSON type of each: "int", "number", "string", or "ints" (two or more ints).
TASK_PARAMS = {
    "rosenbrock": {},
    "illcond-linear": {"d": "int", "kappa": "number"},
    "synth-regression": {"d": "int", "noise": "number", "hidden": "int"},
    "synth-classification": {"d": "int", "classes": "int", "separation": "number",
                             "hidden": "int"},
    "bottleneck-autoencoder": {"widths": "ints"},
    "uci-csv": {"path": "string", "hidden": "int"},
}
TASK_KINDS = tuple(TASK_PARAMS)


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    batch_size: int = 32
    dataset_size: int | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ContractError(f"unknown task kind {self.kind!r}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.dataset_size is not None and self.batch_size > self.dataset_size:
            raise ContractError("batch_size cannot exceed dataset_size")


@dataclass
class Task:
    spec: TaskSpec
    model: Model
    sample_batch: object   # callable(rng) -> Batch
    eval_loss: object      # callable(theta) -> float
    init_theta: object     # callable(rng) -> ParamSet
    fsd_kind: str = "kl-gaussian-unit-variance"
    extras: dict = field(default_factory=dict)


def _finite_dataset_task(spec, model, features, targets, fsd_kind, extras=None):
    features = np.asarray(features, dtype=FLOAT)
    n = features.shape[0]
    if spec.batch_size > n:
        raise ContractError("batch_size cannot exceed dataset size")
    full = Batch(features, targets)

    def sample(rng):
        idx = rng.choice(n, size=spec.batch_size, replace=False)
        return Batch(features[idx], targets[idx])

    def evaluate(theta):
        outputs, _ = forward(model, theta, full.inputs)
        return loss_eval(model.head, outputs, full.targets)

    merged = {"dataset": (full.inputs, full.targets)}
    merged.update(extras or {})
    return Task(spec, model, sample, evaluate,
                lambda rng: init_params(model, rng), fsd_kind, merged)


def rosenbrock_task():
    """Two-parameter valley with the classic (1, -1.5) start; the single
    deterministic 'example' makes every batch identical and the function
    value doubles as both loss and discrepancy output."""
    spec = TaskSpec("rosenbrock", batch_size=1, dataset_size=1)
    model = rosenbrock_model()
    batch = Batch(np.zeros((1, 1)), np.zeros((1, 1)))

    def evaluate(theta):
        outputs, _ = forward(model, theta, batch.inputs)
        return float(outputs[0, 0])

    return Task(spec, model,
                sample_batch=lambda rng: batch,
                eval_loss=evaluate,
                init_theta=lambda rng: ParamSet.from_layers([(np.array([[1.0], [-1.5]]), None)]),
                fsd_kind="squared-output-distance")


def illcond_linear_task(d=64, kappa=1e10, seed=0, batch_size=64):
    """Linear regression against an ill-conditioned map: targets t = A x for
    x ~ N(0, I), fit by a two-layer linear network.  Singular values of A are
    log-uniform between 1 and 1/kappa, so kappa(A) is exact by construction.
    The evaluation loss is the exact population value |A^T - W1 W2|_F^2."""
    if d < 2:
        raise ContractError("need d >= 2")
    if kappa < 1:
        raise ContractError("kappa must be >= 1")
    rng = make_rng(seed)
    u = rand_orthogonal(rng, d)
    v = rand_orthogonal(rng, d)
    sigma = np.logspace(0.0, -np.log10(kappa), d)
    a = (u * sigma) @ v.T
    spec = TaskSpec("illcond-linear", batch_size=batch_size, seed=seed,
                    params={"d": d, "kappa": kappa})
    model = Model((LayerSpec(d, d, "linear", False),
                   LayerSpec(d, d, "linear", False)),
                  "regression-gaussian-unit-variance")

    def sample(rng_):
        x = rng_.standard_normal((batch_size, d))
        return Batch(x, x @ a.T)

    def evaluate(theta):
        m = theta.weights[0] @ theta.weights[1]
        return float(np.sum((a.T - m) ** 2))

    return Task(spec, model, sample, evaluate,
                lambda rng_: init_params(model, rng_),
                fsd_kind="kl-gaussian-unit-variance",
                extras={"a": a, "sigma": sigma})


def _standardize(x, axis=0):
    mean = x.mean(axis=axis)
    std = x.std(axis=axis)
    floored = np.maximum(std, SIGMA_FLOOR)
    if np.any(std < SIGMA_FLOOR):
        warnings.warn("constant column standardized to zeros", stacklevel=2)
    return (x - mean) / floored


def synth_regression_task(n=512, d=8, noise=0.1, seed=0, batch_size=32, hidden=16):
    """Teacher-MLP regression: targets from a fixed random sigmoid teacher
    plus Gaussian noise, then feature/target standardization."""
    if n < 1:
        raise ContractError("need n >= 1")
    rng = make_rng(seed)
    teacher = mlp([d, hidden, 1], activation="sigmoid")
    teacher_theta = init_params(teacher, rng)
    # widen the teacher a bit so its outputs are not near-linear
    teacher_theta = teacher_theta.map(lambda w: 3.0 * w)
    x = rng.standard_normal((n, d))
    clean, _ = forward(teacher, teacher_theta, x)
    t = clean + noise * rng.standard_normal(clean.shape)
    x_mean, x_std = x.mean(axis=0), np.maximum(x.std(axis=0), SIGMA_FLOOR)
    x = (x - x_mean) / x_std
    t_mean, t_std = t.mean(), max(t.std(), SIGMA_FLOOR)
    t = (t - t_mean) / t_std
    spec = TaskSpec("synth-regression", batch_size=batch_size, dataset_size=n,
                    seed=seed, params={"d": d, "noise": noise})
    model = mlp([d, hidden, 1], activation="sigmoid")
    extras = {"teacher": teacher, "teacher_theta": teacher_theta,
              "target_affine": (t_mean, t_std), "feature_affine": (x_mean, x_std)}
    return _finite_dataset_task(spec, model, x, t, "kl-gaussian-unit-variance", extras)


def synth_classification_task(n=512, d=8, classes=2, seed=0, batch_size=32,
                              separation=3.0, hidden=16):
    """Gaussian blobs with unit covariance and means at +-separation along
    orthogonal directions, standardized; well separated by a linear rule."""
    if classes < 2:
        raise ContractError("need at least 2 classes")
    rng = make_rng(seed)
    q = rand_orthogonal(rng, d)
    means = np.zeros((classes, d))
    for k in range(classes):
        direction = q[:, k % d] * (1.0 if (k // d) % 2 == 0 else -1.0)
        sign = 1.0 if k % 2 == 0 or classes > 2 else -1.0
        means[k] = separation * sign * direction
    if classes == 2:
        means[1] = -means[0]
    labels = rng.integers(0, classes, size=n)
    x = means[labels] + rng.standard_normal((n, d))
    mean, std = x.mean(axis=0), np.maximum(x.std(axis=0), SIGMA_FLOOR)
    x = (x - mean) / std
    means_std = (means - mean) / std
    spec = TaskSpec("synth-classification", batch_size=batch_size, dataset_size=n,
                    seed=seed, params={"d": d, "classes": classes,
                                       "separation": separation})
    model = mlp([d, hidden, classes], activation="relu",
                head="classification-softmax")
    extras = {"means": means_std, "labels": labels, "cov_scale": 1.0 / std}
    return _finite_dataset_task(spec, model, x, labels, "kl-categorical", extras)


def bottleneck_autoencoder_task(n=256, seed=0, batch_size=32,
                                widths=(16, 8, 2, 8, 16)):
    """Sigmoid autoencoder with a 2-unit bottleneck on full-rank synthetic
    data in (0, 1); reconstruction is squared error against the inputs."""
    rng = make_rng(seed)
    d = widths[0]
    q = rand_orthogonal(rng, d)
    z = rng.standard_normal((n, d))
    x = 1.0 / (1.0 + np.exp(-1.5 * (z @ q)))
    spec = TaskSpec("bottleneck-autoencoder", batch_size=batch_size,
                    dataset_size=n, seed=seed, params={"widths": tuple(widths)})
    model = mlp(list(widths), activation="sigmoid", out_activation="sigmoid")
    return _finite_dataset_task(spec, model, x, x, "kl-gaussian-unit-variance",
                                {"latent_dim": widths[len(widths) // 2]})


def uci_csv_load(path):
    """Numeric CSV with the target in the last column.  A non-numeric first
    line is treated as a header and skipped.  Features and target are
    standardized to zero mean and unit (population) variance.

    Returns (features, targets, report) where report carries row/column
    counts and the indices of any constant columns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ContractError(f"{path} is empty")
    start = 0
    try:
        [float(c) for c in lines[0].split(",")]
    except ValueError:
        start = 1
    if start == len(lines):
        raise ContractError(f"{path} has a header but no data rows")
    rows = []
    width = None
    for r, line in enumerate(lines[start:]):
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ContractError("need at least one feature column plus a target")
        elif len(cells) != width:
            raise IngestionError(f"row {r} has {len(cells)} cells, expected {width}",
                                 row=r)
        parsed = []
        for c, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"cell ({r}, {c}) is not numeric: {cell!r}", row=r, col=c
                ) from None
        rows.append(parsed)
    data = np.asarray(rows, dtype=FLOAT)
    features, targets = data[:, :-1], data[:, -1:]
    constant = [int(i) for i in np.flatnonzero(features.std(axis=0) < SIGMA_FLOOR)]
    features = _standardize(features)
    targets = _standardize(targets)
    report = {"rows": int(data.shape[0]), "features": int(features.shape[1]),
              "constant_columns": constant}
    return features, targets, report


def save_csv(features, targets, path):
    """Write a dataset back out in the ingestion convention (target last)."""
    features = np.asarray(features, dtype=FLOAT)
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[:, None]
    data = np.hstack([features, targets.astype(FLOAT)])
    with open(path, "w", encoding="utf-8") as fh:
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def uci_task(path, batch_size=32, hidden=16, seed=0):
    """Regression task over an ingested CSV (2-layer MLP student)."""
    features, targets, report = uci_csv_load(path)
    spec = TaskSpec("uci-csv", batch_size=batch_size,
                    dataset_size=features.shape[0], seed=seed,
                    params={"path": str(path)})
    model = mlp([features.shape[1], hidden, targets.shape[1]], activation="relu")
    task = _finite_dataset_task(spec, model, features, targets,
                                "kl-gaussian-unit-variance", {"report": report})
    return task


def build_task(spec):
    """Construct a task from its spec (harness entry point); spec.params are
    keyword arguments of the kind's builder, as listed in TASK_PARAMS."""
    p, common = dict(spec.params), {"seed": spec.seed, "batch_size": spec.batch_size}
    if spec.kind == "rosenbrock":
        return rosenbrock_task()
    if spec.kind == "illcond-linear":
        return illcond_linear_task(**p, **common)
    if spec.kind == "synth-regression":
        return synth_regression_task(n=spec.dataset_size or 512, **p, **common)
    if spec.kind == "synth-classification":
        return synth_classification_task(n=spec.dataset_size or 512, **p, **common)
    if spec.kind == "bottleneck-autoencoder":
        return bottleneck_autoencoder_task(n=spec.dataset_size or 256, **p, **common)
    if spec.kind == "uci-csv":
        return uci_task(**p, **common)
    raise ContractError(f"unknown task kind {spec.kind!r}")
