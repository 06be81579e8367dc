"""SPD factorization and solves, the seeded RNG, and the one size limit of
the package: a dense oracle, which builds matrices over a model's
parameters, calls ``require_oracle_scale`` at entry; the training path,
KFAC's factorizations included, has no limit.

Everything operates on plain float64 numpy arrays in row-major layout.

SPD solves
----------
``cholesky_spd`` factors with numpy's LAPACK.  A ``CholeskyFactor`` forms
its SPD inverse once, on its first solve, and ``solve_spd`` multiplies by
it, so a matrix and its factor solve to the same bytes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, NumericalError, OracleScaleError

FLOAT = np.float64

ORACLE_MAX_PARAMS = 2000


def require_oracle_scale(name, n):
    """Raise OracleScaleError when the dense oracle name would build an
    object over n > ORACLE_MAX_PARAMS parameters."""
    if n > ORACLE_MAX_PARAMS:
        raise OracleScaleError(f"{name} limited to {ORACLE_MAX_PARAMS} parameters, got {n}")


def make_rng(seed):
    """Seeded PCG64 generator: identical call sequences give identical streams."""
    return np.random.default_rng(np.uint64(seed))


def _require_symmetric(m):
    m = np.asarray(m, dtype=FLOAT)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    scale = np.abs(m).max()  # nan or inf when an entry is
    if not np.isfinite(scale):
        raise NumericalError("matrix has a non-finite entry")
    if np.abs(m - m.T).max() > 1e-8 * max(scale, 1.0):
        raise ContractError("matrix is not symmetric within 1e-8 relative")
    return m


class CholeskyFactor:
    """The lower Cholesky factor of an SPD matrix, as cholesky_spd returns
    it; solve_spd takes it in place of the matrix to skip the factorization
    and multiplies by its inverse (L L^T)^-1, formed on first use."""

    def __init__(self, lower):
        self.lower = lower

    @cached_property
    def inverse(self):
        li = np.linalg.inv(self.lower)
        return li.T @ li


def cholesky_spd(m):
    """Cholesky factor of a symmetric positive-definite m.  Raises
    NumericalError on a non-finite entry or when m is not positive definite."""
    m = _require_symmetric(m)
    try:
        return CholeskyFactor(np.linalg.cholesky(m))
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not SPD") from None


def solve_spd(m, rhs):
    """Solve m @ x = rhs for symmetric positive-definite m: m is the matrix,
    which cholesky_spd factors here (raising its NumericalError), or a
    CholeskyFactor of it; the solve is one product with its inverse."""
    factor = m if isinstance(m, CholeskyFactor) else cholesky_spd(m)
    n = factor.lower.shape[0]
    rhs = np.asarray(rhs, dtype=FLOAT)
    if rhs.shape[0] != n:
        raise DimensionError(f"rhs length {rhs.shape[0]} does not match n={n}")
    return factor.inverse @ rhs


def rand_orthogonal(rng, n):
    """Random orthogonal matrix, Haar-ish via QR with a positive-diagonal fix."""
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q
