import pytest

from apobench.harness import checks

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
