"""Dense linear algebra, RNG, and small-matrix spectral utilities.

Everything operates on plain float64 numpy arrays in row-major layout.

SPD solves
----------
``cholesky_spd`` factors with numpy's LAPACK.  numpy does not say which
pivot failed, so a failure bisects over leading blocks for it: a leading
block that is not positive definite stays so in every larger one.  A
``CholeskyFactor`` forms its SPD inverse once, on its first solve, and
``solve_spd`` multiplies by it, so a matrix and its factor solve to the
same bytes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, NumericalError, OracleScaleError

FLOAT = np.float64

# Oracle-scale guards.  These routines materialize dense objects and are only
# meant for validating the production code paths at desk scale.
KRON_MAX_EXTENT = 256
SOLVE_SPD_MAX_N = 512
EIG_MAX_N = 256


def make_rng(seed):
    """Seeded PCG64 generator: identical call sequences give identical streams."""
    return np.random.default_rng(np.uint64(seed))


def as_matrix(a, name="array"):
    m = np.asarray(a, dtype=FLOAT)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def kron_dense(a, b):
    """Dense Kronecker product, guarded to oracle scale.

    Block (i, j) of the result equals a[i, j] * b.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    p, q = a.shape
    r, s = b.shape
    if p * r > KRON_MAX_EXTENT or q * s > KRON_MAX_EXTENT:
        raise OracleScaleError(
            f"kron_dense result {p * r}x{q * s} exceeds guard {KRON_MAX_EXTENT}"
        )
    return np.kron(a, b)


def _require_symmetric(m, name, tol=1e-8):
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    scale = np.abs(m).max()  # nan or inf when an entry is
    if not np.isfinite(scale):
        raise NumericalError(f"{name} has a non-finite entry")
    if np.abs(m - m.T).max() > tol * max(scale, 1.0):
        raise ContractError(f"{name} is not symmetric within {tol} relative")
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
    NumericalError on a non-finite entry, or with the 1-based index of the
    first failing pivot, found in at most ceil(log2 n) more factorizations."""
    m = _require_symmetric(m, "m")
    n = m.shape[0]
    if n > SOLVE_SPD_MAX_N:
        raise OracleScaleError(f"cholesky_spd limited to n <= {SOLVE_SPD_MAX_N}, got {n}")
    try:
        return CholeskyFactor(np.linalg.cholesky(m))
    except np.linalg.LinAlgError:
        good, bad = 0, n  # the leading block of order good is PD, of order bad not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(m[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    raise NumericalError(f"matrix is not SPD: pivot {bad} failed", pivot=bad)


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


def sym_eig_min(m):
    """Smallest eigenvalue of a symmetric matrix."""
    m = _require_symmetric(m, "m")
    if m.shape[0] > EIG_MAX_N:
        raise OracleScaleError(f"sym_eig_min limited to n <= {EIG_MAX_N}, got {m.shape[0]}")
    return float(np.linalg.eigvalsh(m)[0])


def rand_orthogonal(rng, n):
    """Random orthogonal matrix, Haar-ish via QR with a positive-diagonal fix."""
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q
