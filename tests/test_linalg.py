import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rca.linalg import NotPositiveDefiniteError, gen_eig_spd

from oracles import jacobi_eigh, power_deflation_gen_eigvals


def random_spd(rng, n, shift=1.0):
    c = rng.standard_normal((n, n))
    return c.T @ c + shift * np.eye(n)


# ---------------------------------------------------------------- standard problem
# gen_eig_spd(a, I) is the library's symmetric eigensolver: same ordering,
# sign convention and input checks as against any other Sigma.

def test_sym_eig_identity():
    eig = gen_eig_spd(np.eye(3), np.eye(3))
    np.testing.assert_allclose(eig.values, np.ones(3))
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    np.testing.assert_allclose(recon, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal():
    eig = gen_eig_spd(np.diag([4.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(eig.values, [4.0, 1.0])
    np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)
    # sign convention: dominant entry positive
    assert (eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), [0, 1]] > 0).all()


def test_sym_eig_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    eig = gen_eig_spd(a, np.eye(6))
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
    vals_oracle, _ = jacobi_eigh(a)
    np.testing.assert_allclose(eig.values, vals_oracle, atol=1e-10)


def test_sym_eig_orthonormal_columns():
    rng = np.random.default_rng(8)
    a = random_spd(rng, 5)
    eig = gen_eig_spd(a, np.eye(5))
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(5), atol=1e-10)
    assert (np.diff(eig.values) <= 1e-12).all()


def test_sym_eig_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError, match="square"):
        gen_eig_spd(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        gen_eig_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        gen_eig_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))


# ---------------------------------------------------------------- whitening
# gen_eig_spd(I, Sigma) returns S with S' Sigma S = I: S' is a whitening
# transform of Sigma (of the jittered Sigma when the jitter policy fires).

def test_whiten_identity_gives_orthogonal():
    t = gen_eig_spd(np.eye(4), np.eye(4)).vectors.T
    np.testing.assert_allclose(t @ t.T, np.eye(4), atol=1e-12)


def test_whiten_diagonal():
    sigma = np.diag([4.0, 9.0])
    t = gen_eig_spd(np.eye(2), sigma).vectors.T
    np.testing.assert_allclose(t @ sigma @ t.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.sort(np.abs(t[t != 0.0])), [1 / 3, 1 / 2])


def test_whiten_random_spd():
    rng = np.random.default_rng(11)
    sigma = random_spd(rng, 5)
    t = gen_eig_spd(np.eye(5), sigma).vectors.T
    assert np.linalg.norm(t @ sigma @ t.T - np.eye(5)) <= 1e-8
    # invertible: T maps back through Sigma
    assert np.isfinite(np.linalg.cond(t))
    assert np.linalg.cond(t) < 1e8


def test_whiten_jitters_singular_then_fails_on_negative():
    # rank-deficient PSD: one zero eigenvalue -> jitter makes it pass
    v = np.array([[1.0], [1.0]])
    eig = gen_eig_spd(np.eye(2), v @ v.T)
    assert np.isfinite(eig.vectors).all()
    assert eig.jitter > 0
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        gen_eig_spd(np.eye(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------- gen_eig_spd

def test_gen_eig_equal_matrices_all_ones():
    rng = np.random.default_rng(13)
    sigma = random_spd(rng, 4)
    eig = gen_eig_spd(sigma, sigma)
    np.testing.assert_allclose(eig.values, np.ones(4), atol=1e-10)


def test_gen_eig_diagonal_case():
    eig = gen_eig_spd(np.diag([8.0, 2.0]), np.diag([2.0, 2.0]))
    np.testing.assert_allclose(eig.values, [4.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(eig.vectors), np.diag([2 ** -0.5, 2 ** -0.5]),
                               atol=1e-12)


def test_gen_eig_matches_power_iteration_oracle():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((6, 6))
    a = b.T @ b
    c = rng.standard_normal((6, 6))
    sigma = c.T @ c + np.eye(6)
    eig = gen_eig_spd(a, sigma)
    resid = np.linalg.norm(a @ eig.vectors - sigma @ eig.vectors @ np.diag(eig.values))
    assert resid <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(sigma))
    np.testing.assert_allclose(eig.vectors.T @ sigma @ eig.vectors, np.eye(6),
                               atol=1e-8)
    vals_oracle = power_deflation_gen_eigvals(a, sigma)
    np.testing.assert_allclose(eig.values, vals_oracle, rtol=1e-6, atol=1e-8)


def test_gen_eig_residual_and_normalization_many_dims():
    rng = np.random.default_rng(19)
    for n in range(2, 13):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        sigma = random_spd(rng, n)
        eig = gen_eig_spd(a, sigma)
        assert eig.values.shape == (n,)
        assert (np.diff(eig.values) <= 1e-12).all()
        resid = np.linalg.norm(a @ eig.vectors - sigma @ eig.vectors @ np.diag(eig.values))
        assert resid <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(sigma))
        assert np.linalg.norm(eig.vectors.T @ sigma @ eig.vectors - np.eye(n)) <= 1e-8


def test_gen_eig_with_identity_matches_sym_eig():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((7, 7))
    a = 0.5 * (a + a.T)
    ge = gen_eig_spd(a, np.eye(7))
    np.testing.assert_allclose(ge.values, np.linalg.eigvalsh(a)[::-1],
                               rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gen_eig_scale_covariance_property(n, c, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    a = b.T @ b
    sigma = random_spd(rng, n)
    base = gen_eig_spd(a, sigma)
    scaled = gen_eig_spd(c * a, sigma)
    np.testing.assert_allclose(scaled.values, c * base.values,
                               rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(scaled.vectors, base.vectors, atol=1e-8)


def test_gen_eig_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        gen_eig_spd(np.eye(3), np.eye(4))
