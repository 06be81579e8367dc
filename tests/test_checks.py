import numpy as np
import pytest

from apobench import oracles
from apobench.apo import loss_and_grad, proximal_value_and_grad
from apobench.baseopt import BaseOptKind
from apobench.diffnet import Batch, forward, init_params
from apobench.harness import checks, ppmdemo
from apobench.numkit import make_rng

from helpers import prox_work, textbook_step

# Every check with its threshold, in report order, a line per CHECKS entry
# (kfac-* takes three): loosening a threshold, or dropping or renaming a
# check, fails here.
THRESHOLDS = [
    ("kron-vec-identity", 1e-12),
    ("solve-spd-residual", 1e-8),
    ("rng-bit-stability", 1),
    ("gradient-finite-difference", 1e-5),
    ("jacobian-chain-consistency", 1e-10),
    ("eq10-eq11-equivalence", 1e-12), ("precond-psd-min-eig", -1e-10),
    ("eq11-negative-control", 1),
    ("precond-param-count", 1),
    ("identity-init-scaling-bitwise", 1),
    ("metagrad-fd-lr", 1e-4),
    ("metagrad-fd-precond", 1e-4),
    ("thm1-gradient-zero", 1e-8), ("thm1-local-min", 0), ("thm1-offset-sensitivity", 1e-8),
    ("kfac-recovery-identity", 1e-6), ("kfac-structured-identity", 1e-6),
    ("kfac-recovery-generic", 1e-6), ("kfac-structured-generic", 1e-6),
    ("kfac-diagonal-arithmetic", 1e-12),
    ("ppm-closed-form-limit", 1e-2), ("ppm-damped-newton-limit", 1e-4),
    ("adam-scale-invariance", 1e-6),
]


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    for result in check():
        assert result["pass"], result


def test_report_pins_every_name_and_threshold():
    report = checks.run_checks()
    assert [(r["check"], r["threshold"]) for r in report["checks"]] == THRESHOLDS
    assert report["n_checks"] == len(THRESHOLDS)
    assert report["passed"]


@pytest.mark.parametrize("seed", range(4))
def test_ppm_demo_regimes(seed, monkeypatch):
    """The demo's three regimes hold on its own seed and on seeds 1-3; on
    seed 0 the fsd-only solve, whose minimum is 0, ends certified by
    Q(u) <= tol * Q(theta)."""
    solves = []

    def recording(*args, **kwargs):
        u = oracles.exact_ppm_solve(*args, **kwargs)
        solves.append((args, kwargs, u))
        return u

    monkeypatch.setattr(ppmdemo, "exact_ppm_solve", recording)
    _, meta = ppmdemo.ppm_demo(seed=seed)
    for result in ppmdemo.regime_checks(meta):
        assert result["pass"], result
    if seed == 0:
        (model, theta, batch, lam_fsd, lam_wsd, fsd_inputs), kwargs, u = solves[2]
        assert (lam_fsd, lam_wsd) == ppmdemo.DEFAULT_SETTINGS[2] == (100.0, 0.0)

        y_ref, _ = forward(model, theta, fsd_inputs)
        prox = Batch(np.concatenate((batch.inputs, fsd_inputs)), batch.targets)

        def q(params):
            return proximal_value_and_grad(model, params, theta, prox, y_ref, lam_fsd,
                                           lam_wsd, kwargs["fsd_kind"],
                                           prox_work(model, theta, prox))[0]

        assert q(u) <= kwargs["tol"] * q(theta)


def test_ppm_demo_base_fit_is_textbook_adam():
    """The base fit steps through apo_train's mode none at init_lr 0.02; its
    theta equals full-batch Adam written out, bit for bit."""
    model, theta, x = ppmdemo._fit_base_model()
    ref = init_params(model, make_rng(0))
    batch = Batch(x, np.sin(1.5 * x) * 0.8)
    kind = BaseOptKind("adam")
    m = v = np.zeros(ref.size)
    for t in range(1, 3001):
        delta, m, v = textbook_step(kind, m, v, t, loss_and_grad(model, ref, batch)[1].flat)
        ref = ref.with_flat(ref.flat - 0.02 * delta)
    assert np.array_equal(theta.flat, ref.flat)
