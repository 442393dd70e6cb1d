"""Alternating residual-component fitting of the two-view shared/private
latent model, plus conditional prediction of one view from the other.

Each view carries a private low-rank subspace and both share a common one.
Fixing the noise variances to a fraction alpha of each view's variance
leaves alpha as the single free parameter; every retained rank is then
re-selected each pass by the unit-eigenvalue rule, so the latent
dimensionalities come out of the data.
"""

from dataclasses import dataclass

import numpy as np

from .cca import _cca_of_covariance
from .core import LowRankPlusNoise, _gaussian_log_density, _sample_covariance, rca_fit
from .linalg import _block_diag, as_matrix


@dataclass(frozen=True)
class SharedPrivateModel:
    """Fitted loadings of the shared/private model.

    w1/w2 are private loadings, v1/v2 the shared block split by view;
    history holds the joint log-marginal likelihood after each pass (the
    shared solve's closed form), rank_history the (q_shared, q1, q2)
    selected on that pass and start_rank the shared columns of the start.
    """
    w1: np.ndarray
    w2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    mu1: np.ndarray
    mu2: np.ndarray
    alpha: float
    history: np.ndarray
    converged: bool
    n_iter: int
    rank_history: tuple = ()
    start_rank: int = 0

    @property
    def ranks(self):
        """(q_shared, q1, q2) retained dimensionalities."""
        return self.v1.shape[1], self.w1.shape[1], self.w2.shape[1]

    def joint_covariance(self):
        """Implied covariance of the concatenated, centered views."""
        v = np.vstack([self.v1, self.v2])
        return _views_spec(self.w1, self.w2, self.sigma1_sq, self.sigma2_sq,
                           v).materialize(v.shape[0])


def _views_spec(w1, w2, sigma1_sq, sigma2_sq, *shared):
    """blockdiag(W1 W1' + sigma1^2 I, W2 W2' + sigma2^2 I), plus V V' for
    each shared block V given, as one LowRankPlusNoise."""
    return LowRankPlusNoise(np.hstack([_block_diag([w1, w2]), *shared]),
                            np.repeat([sigma1_sq, sigma2_sq], [len(w1), len(w2)]))


def iterative_rca(y1, y2, alpha, tol=None, max_iter=200):
    """Fit the shared/private model by alternating residual-component solves.

    The shared loadings start at the probabilistic-CCA solution
    V_i = C_ii S_i P^{1/2} (Bach & Jordan 2005) of the canonical
    correlations above the Wachter edge of pure noise, sqrt(g1 (1 - g2)) +
    sqrt(g2 (1 - g1)) with g_i = d_i / n (Johnstone, Ann. Statist. 36(6),
    2008); V starts empty if g1 + g2 >= 1 or none clears the edge. Per
    pass: (a) each view's private loadings solve the view covariance
    against shared-plus-noise, (b) the shared loadings solve the joint
    covariance against blockdiag of private-plus-noise, both via the
    standard recovery Sigma S_q (Lambda_q - I)^{1/2}. Iteration stops when
    the joint log-marginal likelihood moves by at most tol (default
    1e-6 * n * (d1 + d2), the likelihood being extensive) or after max_iter
    passes, in which case converged is False. Each pass's likelihood is the
    shared solve's closed form: that of the sample covariance under
    K = Sigma_shared + V V', read off the generalized spectrum. It equals
    joint_log_marginal unless the jitter policy fires on Sigma_shared, which
    needs the two views' scales about 1e12 apart: K then carries that
    jitter, while joint_log_marginal applies the same policy to K itself.

    alpha in (0, 1) fixes the noise floors: sigma_i^2 = (alpha / d_i)
    trace(C_ii).

    Every solve keeps only eigenvalues above 1 + 3 / sqrt(n). Sample
    covariances put O(n^{-1/2}) coupling fluctuations right above 1
    (cross-view sample correlations of retained components land at
    1 + |rho|), and that band drops them while leaving real structure,
    which sits far above it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if not (tol is None or tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be at least 1 and an integer, got {max_iter}")
    c, (mu1, mu2) = _sample_covariance(y1, y2)
    n, d1, d2 = len(y1), mu1.size, mu2.size
    tol = 1e-6 * n * (d1 + d2) if tol is None else tol

    c11, c22 = c[:d1, :d1], c[d1:, d1:]
    sigma1_sq = alpha * np.trace(c11) / d1
    sigma2_sq = alpha * np.trace(c22) / d2

    def solve(cov, sigma, block):
        """rca_fit of cov against the spec sigma; failures name the solve."""
        try:
            return rca_fit(cov, sigma, n_obs=n, rank_tol=3.0 / np.sqrt(n))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"iteration {iteration}, {block}: {exc}") from exc

    v1, v2 = np.zeros((d1, 0)), np.zeros((d2, 0))
    q0, g1, g2 = 0, d1 / n, d2 / n
    if g1 + g2 < 1.0:
        try:
            start = _cca_of_covariance(c, d1, n)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"start, canonical correlations: {exc}") from exc
        edge = np.sqrt(g1 * (1.0 - g2)) + np.sqrt(g2 * (1.0 - g1))
        q0 = int(np.sum(start.correlations > edge))
        v1, v2 = start.v1[:, :q0], start.v2[:, :q0]
    history, rank_history, converged = [], [], False
    for iteration in range(1, max_iter + 1):
        w1 = solve(c11, LowRankPlusNoise(v1, sigma1_sq), "private block view 1").loadings
        w2 = solve(c22, LowRankPlusNoise(v2, sigma2_sq), "private block view 2").loadings
        shared = solve(c, _views_spec(w1, w2, sigma1_sq, sigma2_sq), "shared block")
        v1, v2 = shared.loadings[:d1], shared.loadings[d1:]
        history.append(shared.log_likelihood)
        rank_history.append((shared.q, w1.shape[1], w2.shape[1]))
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= tol:
            converged = True
            break

    return SharedPrivateModel(w1=w1, w2=w2, v1=v1, v2=v2,
                              sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq,
                              mu1=mu1, mu2=mu2, alpha=alpha, start_rank=q0,
                              history=np.array(history), converged=converged,
                              n_iter=iteration, rank_history=tuple(rank_history))


def joint_log_marginal(model, y1, y2):
    """Exact Gaussian log likelihood of the two views under the model's
    joint covariance, summed over rows: their covariance about the model means,
    scored as log_marginal scores its columns, so the joint covariance gets
    rca_fit's jitter policy."""
    c, _ = _sample_covariance(y1, y2, means=(model.mu1, model.mu2))
    return _gaussian_log_density(c, model.joint_covariance(), len(y1))


def predict_view1(model, y2, mode="paper"):
    """Conditional-mean prediction of view 1 from view-2 observations.

    mode="paper" uses V1 V2' (W2 W2' + sigma2^2 I)^{-1} (y2 - mu2) + mu1;
    mode="exact" is the full Gaussian conditional, whose inverted block also
    carries V2 V2'. y2 may be one vector or a matrix of rows.
    """
    single = np.ndim(y2) == 1
    rows = as_matrix(np.reshape(y2, (1, -1)) if single else y2, "y2")
    if rows.shape[1] != model.mu2.size:
        raise ValueError(f"y2 has {rows.shape[1]} features, expected {model.mu2.size}")

    if mode not in ("paper", "exact"):
        raise ValueError(f"unknown prediction mode: {mode!r}")
    factors = np.hstack([model.w2, model.v2]) if mode == "exact" else model.w2
    c22 = LowRankPlusNoise(factors, model.sigma2_sq).materialize(model.mu2.size)
    cross = model.v1 @ model.v2.T
    pred = (rows - model.mu2) @ np.linalg.solve(c22, cross.T) + model.mu1
    return pred[0] if single else pred


def rms_error(pred, truth):
    """Root mean squared entrywise difference."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))
