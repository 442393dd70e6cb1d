"""Canonical correlation analysis as a residual-component fit.

Against Sigma = blockdiag(C11, C22) the joint covariance has generalized
eigenvalues 1 +/- rho per canonical correlation rho, and 1 for the |d1 - d2|
left over: whitening each view by its own factor leaves [[I, K], [K', I]] with
K = T1 C12 T2', solved by one SVD of K (Bjorck & Golub, Math. Comp. 27, 1973).
"""

from dataclasses import dataclass

import numpy as np

from .core import BlockDiagonal, RcaFit, _block_diag, _fit_of_spectrum, _sample_covariance, rca_fit
from .linalg import GenEig, NotPositiveDefiniteError, _signed, _whitener, as_matrix

# Correlations below this are indistinguishable from zero and dropped;
# values above 1 by less than this are clamped (rank-deficiency artifacts).
CORR_TOL = 1e-8


@dataclass(frozen=True)
class CcaFit:
    """Canonical directions (per-view normalized), correlations and the
    probabilistic loadings v_i = C_ii s_i sqrt(rho), sqrt(2) times the view rows
    of fit.loadings (so C_ii carries any jitter); fit keeps the joint solve."""
    s1: np.ndarray
    s2: np.ndarray
    correlations: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    clamped: bool
    fit: RcaFit


def _center_views(y1, y2, means=None):
    """(joint, mu1, mu2): the two checked views centered by their column
    means, or by the given (mu1, mu2), and stacked side by side. The one
    front end of every two-view fit and likelihood."""
    y1 = as_matrix(y1, "y1")
    y2 = as_matrix(y2, "y2")
    if y2.shape[0] != y1.shape[0]:
        raise ValueError(f"row-count mismatch: y1 has {y1.shape[0]}, y2 has {y2.shape[0]}")
    mu1, mu2 = (y1.mean(axis=0), y2.mean(axis=0)) if means is None else means
    for name, y, mu in (("y1", y1, mu1), ("y2", y2, mu2)):
        if np.shape(mu) != (y.shape[1],):
            raise ValueError(f"{name} has {y.shape[1]} columns but {np.size(mu)} means")
    return np.hstack([y1 - mu1, y2 - mu2]), mu1, mu2


def cca_fit(y1, y2):
    """Canonical correlation analysis of two views with shared rows.

    Views are centered internally; covariances use the 1/n convention. A
    whitener per view and one SVD give the spectrum (rca_fit's joint solve if a
    view needs jitter). Each eigenvalue above 1 + CORR_TOL gives a correlation,
    its excess over one, clamped at 1 and flagged if roundoff puts it above.
    """
    joint, mu1, _ = _center_views(y1, y2)
    return _cca_of_covariance(_sample_covariance(joint, mu1.size), mu1.size, joint.shape[0])


def _cca_of_covariance(c, d1, n):
    """cca_fit's solve, from the joint 1/n covariance c of n rows whose
    first d1 columns are view 1."""
    c11, c22 = c[:d1, :d1], c[d1:, d1:]
    try:
        t1, logdet1, jitter = _whitener(c11)
        if not jitter:
            t2, logdet2, jitter = _whitener(c22)
    except NotPositiveDefiniteError:  # e.g. a constant view: the joint jitter rescues it
        jitter = 1.0
    if jitter:  # a jittered view is not I once whitened: solve jointly
        fit = rca_fit(c, BlockDiagonal((c11, c22)), n_obs=n, rank_tol=CORR_TOL)
    else:
        u, rho, wt = np.linalg.svd(t1 @ c[:d1, d1:] @ t2.T)
        a, b, m = t1.T @ u, t2.T @ wt.T, rho.size
        pair = [np.vstack([a[:, :m], sign * b[:, :m]]) * np.sqrt(0.5) for sign in (1, -1)]
        s = np.hstack([pair[0], _block_diag([a[:, m:], b[:, m:]]), pair[1][:, ::-1]])
        values = np.concatenate([1.0 + rho, np.ones(c.shape[0] - 2 * m), 1.0 - rho[::-1]])
        fit = _fit_of_spectrum(GenEig(values, _signed(s), logdet1 + logdet2, 0.0), c, n, CORR_TOL)

    correlations = fit.eig.values[:fit.q] - 1.0
    clamped = bool((correlations > 1.0).any())
    correlations = np.minimum(correlations, 1.0)

    # The joint vectors are blkdiag-orthonormal, so each view block carries
    # half the unit norm; sqrt(2) restores per-view normalization.
    s1, s2 = np.split(fit.eig.vectors[:, :fit.q] * np.sqrt(2.0), [d1])
    v1, v2 = np.split(fit.loadings * np.sqrt(2.0), [d1])
    return CcaFit(s1=s1, s2=s2, correlations=correlations, v1=v1, v2=v2,
                  clamped=clamped, fit=fit)
