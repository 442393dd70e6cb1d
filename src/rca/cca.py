"""Canonical correlation analysis as a residual-component fit.

Against Sigma = blockdiag(C11, C22) the joint covariance has generalized
eigenvalues 1 +/- rho per canonical correlation rho, and 1 for the |d1 - d2|
left over: whitening each view by its own factor leaves [[I, K], [K', I]] with
K = T1 C12 T2', solved by one SVD of K (Bjorck & Golub, Math. Comp. 27, 1973).
"""

from dataclasses import dataclass

import numpy as np

from .core import RcaFit, _fit_of_spectrum, _sample_covariance, rca_fit  # noqa: F401, re-exported
from .linalg import GenEig, _block_diag, _signed, _whitened_eig, _whitener

# Correlations at or below this are indistinguishable from zero and dropped.
# Every correlation above 1 (a rank-deficiency artifact) is clamped and flagged.
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


def cca_fit(y1, y2):
    """Canonical correlation analysis of two views with shared rows.

    Views are centered internally; covariances use the 1/n convention. A
    whitener per view and one SVD give the spectrum (one joint eigh on the same
    whiteners if a view needs jitter). Each eigenvalue above 1 + CORR_TOL gives
    a correlation, its excess over one, clamped at 1 and flagged if above.
    """
    c, (mu1, _) = _sample_covariance(y1, y2)
    return _cca_of_covariance(c, mu1.size, len(y1))


def _cca_of_covariance(c, d1, n):
    """cca_fit's solve, from the joint 1/n covariance c of n rows whose first d1
    columns are view 1: rca_fit(c, BlockDiagonal((C11, C22))) by one _whitener."""
    ts, logdet, jitter = _whitener(c[:d1, :d1], c[d1:, d1:])
    if jitter:  # a jittered view is not I once whitened: solve jointly
        eig = _whitened_eig(c, ts, logdet, jitter)
    else:
        u, rho, wt = np.linalg.svd(ts[0] @ c[:d1, d1:] @ ts[1].T)
        a, b, m = ts[0].T @ u, ts[1].T @ wt.T, rho.size
        pair = [np.vstack([a[:, :m], sign * b[:, :m]]) * np.sqrt(0.5) for sign in (1, -1)]
        s = np.hstack([pair[0], _block_diag([a[:, m:], b[:, m:]]), pair[1][:, ::-1]])
        values = np.concatenate([1.0 + rho, np.ones(c.shape[0] - 2 * m), 1.0 - rho[::-1]])
        eig = GenEig(values, _signed(s), logdet, 0.0)
    fit = _fit_of_spectrum(eig, c, n, CORR_TOL)

    correlations = fit.eig.values[:fit.q] - 1.0
    clamped = bool((correlations > 1.0).any())
    correlations = np.minimum(correlations, 1.0)

    # The joint vectors are blkdiag-orthonormal, so each view block carries
    # half the unit norm; sqrt(2) restores per-view normalization.
    s1, s2 = np.split(fit.eig.vectors[:, :fit.q] * np.sqrt(2.0), [d1])
    v1, v2 = np.split(fit.loadings * np.sqrt(2.0), [d1])
    return CcaFit(s1=s1, s2=s2, correlations=correlations, v1=v1, v2=v2,
                  clamped=clamped, fit=fit)
