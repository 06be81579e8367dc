import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobench import numkit
from apobench.errors import ContractError, DimensionError, NumericalError, OracleScaleError


def test_kron_identity():
    assert np.array_equal(numkit.kron_dense(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_scalars():
    assert numkit.kron_dense(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0


def test_kron_block_expansion():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = numkit.kron_dense(a, b)
    expect = np.zeros((4, 4))
    expect[:2, :2] = b
    expect[2:, 2:] = 2.0 * b
    assert np.array_equal(out, expect)


def test_kron_scale_guard():
    with pytest.raises(OracleScaleError):
        numkit.kron_dense(np.ones((32, 1)), np.ones((32, 1)))


def test_vec_cm_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(numkit.vec_cm(m), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vec_cm_column_vector_passthrough():
    v = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(numkit.vec_cm(v), v.ravel())


def test_unvec_roundtrip():
    rng = numkit.make_rng(7)
    m = rng.standard_normal((3, 5))
    assert np.array_equal(numkit.unvec_cm(numkit.vec_cm(m), 3, 5), m)


def test_unvec_length_mismatch():
    with pytest.raises(DimensionError):
        numkit.unvec_cm(np.ones(5), 2, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
def test_kron_vec_identity(seed, q, r):
    """(A kron B) vec_cm(X) == vec_cm(B X A^T), the convention anchor."""
    rng = numkit.make_rng(seed)
    b = rng.standard_normal((q, q))
    x = rng.standard_normal((q, r))
    a = rng.standard_normal((r, r))
    lhs = numkit.kron_dense(a, b) @ numkit.vec_cm(x)
    rhs = numkit.vec_cm(b @ x @ a.T)
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
    with pytest.raises(NumericalError) as err:
        numkit.solve_spd(m, np.ones(3))
    assert err.value.pivot == 2


def test_solve_spd_rejects_asymmetric():
    with pytest.raises(ContractError):
        numkit.solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))


def test_cholesky_spd_checks_what_solve_spd_checked():
    with pytest.raises(NumericalError) as err:
        numkit.cholesky_spd(np.diag([1.0, -1.0, 2.0]))
    assert err.value.pivot == 2
    with pytest.raises(ContractError):
        numkit.cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    n = numkit.SOLVE_SPD_MAX_N + 1
    with pytest.raises(OracleScaleError):
        numkit.cholesky_spd(np.eye(n))


def test_solve_spd_factor_rejects_wrong_rhs_length():
    with pytest.raises(DimensionError):
        numkit.solve_spd(numkit.cholesky_spd(np.eye(3)), np.ones(2))


def test_sym_eig_min_identity():
    assert numkit.sym_eig_min(np.eye(4)) == pytest.approx(1.0, abs=1e-8)


def test_sym_eig_min_diagonal():
    assert numkit.sym_eig_min(np.diag([3.0, -2.0])) == pytest.approx(-2.0, abs=1e-8)


def test_sym_eig_min_gram_psd():
    rng = numkit.make_rng(11)
    m = rng.standard_normal((8, 8))
    assert numkit.sym_eig_min(m.T @ m) >= -1e-10


def test_sym_eig_min_rejects_asymmetric():
    with pytest.raises(ContractError):
        numkit.sym_eig_min(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
