from collections import Counter

import numpy as np
import pytest

from rca.cca import CORR_TOL, cca_fit
from rca.core import BlockDiagonal, rca_fit

from oracles import cca_correlations


def make_views(rng, n, d1, d2, shared=2, strength=0.9):
    z = rng.standard_normal((n, shared))
    y1 = z @ rng.standard_normal((shared, d1)) * strength + rng.standard_normal((n, d1))
    y2 = z @ rng.standard_normal((shared, d2)) * strength + rng.standard_normal((n, d2))
    return y1, y2


_rng = np.random.default_rng(12)
_wide = _rng.standard_normal((20, 30))
_collinear = _rng.standard_normal((40, 6))
_collinear[:, 2] = _collinear[:, 0] + _collinear[:, 1]


def test_identical_views_give_unit_correlations():
    rng = np.random.default_rng(1)
    y1 = rng.standard_normal((40, 3))
    fit = cca_fit(y1, y1.copy())
    assert fit.correlations.shape == (3,)
    np.testing.assert_allclose(fit.correlations, np.ones(3), atol=1e-8)


def test_orthogonal_column_spaces_give_no_correlations():
    # mutually orthogonal zero-mean sign patterns: cross-covariance is exactly 0
    y1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y2 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])
    fit = cca_fit(y1, y2)
    assert fit.correlations.shape == (0,)
    oracle = cca_correlations(y1, y2)
    np.testing.assert_allclose(oracle, np.zeros(1), atol=1e-12)


def test_matches_direct_oracle():
    rng = np.random.default_rng(2)
    y1, y2 = make_views(rng, 30, 3, 4)
    fit = cca_fit(y1, y2)
    oracle = cca_correlations(y1, y2)
    np.testing.assert_allclose(fit.correlations, oracle[:fit.correlations.size],
                               atol=1e-8)


def test_spectrum_symmetric_about_one():
    rng = np.random.default_rng(3)
    y1, y2 = make_views(rng, 50, 4, 3)
    fit = cca_fit(y1, y2)
    values = fit.fit.eig.values
    np.testing.assert_allclose(values + values[::-1], 2.0 * np.ones_like(values),
                               atol=1e-8)


def test_per_view_normalization_and_diagonal_cross():
    rng = np.random.default_rng(4)
    y1, y2 = make_views(rng, 60, 4, 4)
    y1c = y1 - y1.mean(axis=0)
    y2c = y2 - y2.mean(axis=0)
    n = y1.shape[0]
    c11, c22, c12 = y1c.T @ y1c / n, y2c.T @ y2c / n, y1c.T @ y2c / n
    fit = cca_fit(y1, y2)
    q = fit.correlations.size
    assert q > 0
    np.testing.assert_allclose(fit.s1.T @ c11 @ fit.s1, np.eye(q), atol=1e-8)
    np.testing.assert_allclose(fit.s2.T @ c22 @ fit.s2, np.eye(q), atol=1e-8)
    cross = fit.s1.T @ c12 @ fit.s2
    np.testing.assert_allclose(cross, np.diag(fit.correlations), atol=1e-8)
    assert ((fit.correlations > 0) & (fit.correlations <= 1.0 + 1e-8)).all()


# the planted views take the closed form; the others are the jitter inputs of
# test_views_that_need_jitter_take_the_joint_solve, whose v1, v2 come from the
# joint solve's loadings
@pytest.mark.parametrize("y1,y2", [
    pytest.param(*make_views(np.random.default_rng(5), 45, 3, 5), id="planted"),
    pytest.param(_wide[:, :25], _wide[:, 25:], id="wider_than_n"),
    pytest.param(_collinear[:, :3], _collinear[:, 3:], id="collinear_column"),
    pytest.param(_wide[:, :25], _wide[:, :25].copy(), id="identical_wider_than_n")])
def test_probabilistic_loadings_identity(y1, y2):
    fit = cca_fit(y1, y2)
    q = fit.correlations.size
    assert q > 0
    np.testing.assert_allclose(fit.s1.T @ fit.v1,
                               np.diag(np.sqrt(fit.correlations)), atol=1e-8)
    np.testing.assert_allclose(fit.s2.T @ fit.v2,
                               np.diag(np.sqrt(fit.correlations)), atol=1e-8)
    assert fit.v1.shape == (y1.shape[1], q) and fit.v2.shape == (y2.shape[1], q)


def test_loadings_product_recovers_cross_covariance():
    # when every canonical pair is retained, V1 V2' rebuilds C12 exactly
    rng = np.random.default_rng(12)
    z = rng.standard_normal((200, 3))
    y1 = z @ rng.standard_normal((3, 3)) + 0.3 * rng.standard_normal((200, 3))
    y2 = z @ rng.standard_normal((3, 3)) + 0.3 * rng.standard_normal((200, 3))
    fit = cca_fit(y1, y2)
    assert fit.correlations.size == 3
    y1c = y1 - y1.mean(axis=0)
    y2c = y2 - y2.mean(axis=0)
    c12 = y1c.T @ y2c / y1.shape[0]
    np.testing.assert_allclose(fit.v1 @ fit.v2.T, c12, atol=1e-8)


def test_invariance_under_invertible_per_view_transforms():
    rng = np.random.default_rng(6)
    y1, y2 = make_views(rng, 40, 3, 3)
    base = cca_fit(y1, y2).correlations
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    b = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    transformed = cca_fit(y1 @ a, y2 @ b).correlations
    assert transformed.size == base.size
    np.testing.assert_allclose(transformed, base, atol=1e-8)


def test_rank_is_the_joint_fit_rank_near_the_threshold():
    # a canonical correlation of 5e-9 puts the eigenvalue 1 + rho inside
    # (1 + 1e-10, 1 + CORR_TOL]: dropped as a correlation, it must be
    # dropped from the joint fit's rank and loadings too
    basis, _ = np.linalg.qr(np.column_stack(
        [np.ones(50), np.random.default_rng(13).standard_normal((50, 2))]))
    a, e = basis[:, 1:2], basis[:, 2:3]  # orthonormal and zero-mean
    rho = 5e-9
    fit = cca_fit(a, rho * a + np.sqrt(1.0 - rho ** 2) * e)
    assert fit.correlations.size == 0
    assert fit.fit.q == fit.correlations.size
    assert fit.fit.loadings.shape == (2, 0)


def test_row_count_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cca_fit(np.ones((4, 2)), np.ones((5, 2)))


def test_oracle_rejects_degenerate_view():
    rng = np.random.default_rng(7)
    y1 = rng.standard_normal((20, 3))
    y1[:, 2] = y1[:, 0]  # collinear columns: singular view covariance
    y2 = rng.standard_normal((20, 2))
    with pytest.raises(np.linalg.LinAlgError, match="degenerate view"):
        cca_correlations(y1, y2)


def test_fit_survives_rank_deficient_views_via_jitter():
    # more columns than rows: covariances are singular but jitter carries
    # the solve through, and identical views still give unit correlations
    rng = np.random.default_rng(8)
    y1 = rng.standard_normal((10, 15))
    fit = cca_fit(y1, y1.copy())
    assert fit.correlations.size > 0
    np.testing.assert_allclose(fit.correlations,
                               np.ones_like(fit.correlations), atol=1e-6)


def _joint_covariance(y1, y2):
    joint = np.hstack([y1 - y1.mean(axis=0), y2 - y2.mean(axis=0)])
    return joint.T @ joint / joint.shape[0]


# The joint solve makes one cholesky and two eigh, plus one eigvalsh where
# the smallest eigenvalue leaves semidefiniteness open; view 1's whitener
# adds a cholesky and an eigh, and view 2's is never computed once view 1's
# has jitter.
@pytest.mark.parametrize("y1,y2,calls", [
    pytest.param(_wide[:, :25], _wide[:, 25:], Counter(cholesky=2, eigh=3, eigvalsh=1),
                 id="wider_than_n"),
    pytest.param(_collinear[:, :3], _collinear[:, 3:], Counter(cholesky=2, eigh=3),
                 id="collinear_column"),
    pytest.param(_wide[:, :25], _wide[:, :25].copy(), Counter(cholesky=2, eigh=3, eigvalsh=1),
                 id="identical_wider_than_n"),
    pytest.param(np.ones((20, 3)), _wide[:, :4], Counter(cholesky=2, eigh=3),
                 id="constant_view")])
def test_views_that_need_jitter_take_the_joint_solve(lapack_calls, y1, y2, calls):
    # a jittered view is not the identity once whitened, so the per-view
    # closed form does not hold; the fit is then exactly the joint rca_fit
    d1, n = y1.shape[1], y1.shape[0]
    c = _joint_covariance(y1, y2)
    ref = rca_fit(c, BlockDiagonal((c[:d1, :d1], c[d1:, d1:])), n_obs=n, rank_tol=CORR_TOL)
    lapack_calls.clear()
    fit = cca_fit(y1, y2).fit
    assert lapack_calls == calls
    assert ref.eig.jitter > 0
    for got, want in ((fit.eig.values, ref.eig.values), (fit.eig.vectors, ref.eig.vectors),
                      (fit.loadings, ref.loadings)):
        assert np.array_equal(got, want)
    assert (fit.eig.jitter, fit.eig.sigma_logdet, fit.q, fit.log_likelihood) == \
        (ref.eig.jitter, ref.eig.sigma_logdet, ref.q, ref.log_likelihood)


def test_views_scaled_1e12_apart_need_no_jitter():
    # the joint jitter rule sees trace/dim dominated by the large view and
    # jitters blockdiag(C11, C22); each view's own rule does not, so the
    # closed form runs unjittered and CCA stays invariant to the scale
    rng = np.random.default_rng(13)
    y1, y2 = make_views(rng, 200, 6, 4)
    big = 1e6 * y1
    c = _joint_covariance(big, y2)
    sigma = c.copy()
    sigma[:6, 6:] = sigma[6:, :6] = 0.0
    assert rca_fit(c, BlockDiagonal((c[:6, :6], c[6:, 6:])), rank_tol=CORR_TOL).eig.jitter > 0
    fit = cca_fit(big, y2)
    s, d = fit.fit.eig.vectors, fit.fit.eig.values
    assert fit.fit.eig.jitter == 0.0
    assert np.linalg.norm(c @ s - sigma @ s * d) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(s)
    np.testing.assert_allclose(fit.correlations, cca_fit(y1, y2).correlations, rtol=0, atol=1e-12)
