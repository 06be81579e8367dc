import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.errors import ApoBenchError, ContractError, DimensionError, NumericalError


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
def test_kron_vec_identity(seed, q, r):
    """(B kron A) X.ravel() == (B X A^T).ravel(), the row-major anchor."""
    rng = numkit.make_rng(seed)
    b = rng.standard_normal((q, q))
    x = rng.standard_normal((q, r))
    a = rng.standard_normal((r, r))
    lhs = np.kron(b, a) @ x.ravel()
    rhs = (b @ x @ a.T).ravel()
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_solve_spd_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(numkit.solve_spd(np.eye(3), b), b)


def test_solve_spd_diagonal():
    x = numkit.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_solve_spd_random_residual():
    rng = numkit.make_rng(3)
    for n in (6, 32, 64):
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        rhs = rng.standard_normal(n)
        x = numkit.solve_spd(spd, rhs)
        assert np.linalg.norm(spd @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
        # A factor computed once solves to the same bytes as the matrix.
        assert np.array_equal(numkit.solve_spd(numkit.cholesky_spd(spd), rhs), x)


def test_solve_spd_non_spd_reports_pivot():
    m = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NumericalError, match="^matrix is not SPD"):
        numkit.solve_spd(m, np.ones(3))


def test_solve_spd_rejects_asymmetric():
    with pytest.raises(ContractError):
        numkit.solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))


def test_cholesky_spd_checks_what_solve_spd_checked():
    with pytest.raises(NumericalError, match="^matrix is not SPD"):
        numkit.cholesky_spd(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(ContractError):
        numkit.cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_solve_spd_factor_rejects_wrong_rhs_length():
    with pytest.raises(DimensionError):
        numkit.solve_spd(numkit.cholesky_spd(np.eye(3)), np.ones(2))


@st.composite
def symmetric_matrices(draw):
    """Random symmetric n x n matrices, shifted so that the first leading
    block that is not positive definite falls anywhere, or nowhere."""
    n = draw(st.integers(1, 40))
    rng = numkit.make_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2 + draw(st.floats(0.0, 3.0)) * np.sqrt(n) * np.eye(n)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_cholesky_spd_raises_exactly_when_a_leading_block_is_not_pd(m):
    """NumericalError exactly when some leading block has a negative
    eigenvalue; otherwise the factor reconstructs m."""
    minima = [np.linalg.eigvalsh(m[:k, :k])[0] for k in range(1, len(m) + 1)]
    # a block within rounding of singular has no well-defined verdict
    assume(all(abs(e) > 1e-8 * np.abs(m).max() for e in minima))
    if min(minima) > 0:
        lower = numkit.cholesky_spd(m).lower
        assert np.abs(lower @ lower.T - m).max() <= 1e-12 * np.abs(m).max()
    else:
        with pytest.raises(NumericalError, match="^matrix is not SPD"):
            numkit.cholesky_spd(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 65), st.integers(1, 80), st.integers(1, 4),
       st.sampled_from([1e-3, 1e-2, 1e-1, 1.0]), st.integers(0, 2**32 - 1))
def test_solve_spd_residual_on_damped_blocks(n, rows, cols, damping, seed):
    """A KFAC-style block, a second moment plus damping * I, solves to a
    relative residual of at most 1e-8, from the matrix or its factor."""
    rng = numkit.make_rng(seed)
    x = rng.standard_normal((rows, n))
    block = x.T @ x / rows + damping * np.eye(n)
    rhs = rng.standard_normal((n, cols))
    solved = numkit.solve_spd(block, rhs)
    assert np.linalg.norm(block @ solved - rhs) <= 1e-8 * np.linalg.norm(rhs)
    assert np.array_equal(numkit.solve_spd(numkit.cholesky_spd(block), rhs), solved)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [[(0, 0)], [(1, 2), (2, 1)], [(0, 2)]])
def test_non_finite_block_raises_and_returns_no_factor(bad, where):
    m = np.eye(3)
    for i, j in where:
        m[i, j] = bad
    with pytest.raises(ApoBenchError):
        numkit.cholesky_spd(m)
    with pytest.raises(ApoBenchError):
        numkit.solve_spd(m, np.ones(3))


def test_rand_orthogonal_n1():
    q = numkit.rand_orthogonal(numkit.make_rng(0), 1)
    assert abs(abs(q[0, 0]) - 1.0) < 1e-12


def test_rand_orthogonal_orthonormal():
    q = numkit.rand_orthogonal(numkit.make_rng(0), 4)
    assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10


def test_rand_orthogonal_determinant():
    for seed in range(5):
        q = numkit.rand_orthogonal(numkit.make_rng(seed), 5)
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-8
