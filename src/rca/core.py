"""Core residual-component fit: the maximum-likelihood low-rank term that
remains once a known positive-definite covariance is accounted for.

Conventions. The solver is agnostic about how the caller scaled the Gram
matrix, but the unit eigenvalue threshold is only the maximum-likelihood
rank rule when G is on the sample-covariance scale (divide a raw Gram by
the number of vectors it sums). The recovered ``loadings`` play the role of
the latent coordinates in dual mode (G between data points) and of the
subspace loadings in primal mode (G between features); the math is the
same, only the interpretation of rows changes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    GenEig,
    NotPositiveDefiniteError,
    as_matrix,
    check_square_symmetric,
    ensure_spd,
    gen_eig_spd,
)
from .kernels import rbf_gram

# Eigenvalues within RANK_TOL above 1 are treated as noise and dropped.
RANK_TOL = 1e-10


# ------------------------------------------------------------------ covariance specs

@dataclass(frozen=True)
class ScaledIdentity:
    variance: float

    def materialize(self, dim):
        if self.variance <= 0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        return self.variance * np.eye(dim)


@dataclass(frozen=True)
class Explicit:
    matrix: np.ndarray

    def materialize(self, dim):
        m = check_square_symmetric(self.matrix, "explicit covariance")
        if m.shape[0] != dim:
            raise ValueError(f"covariance is {m.shape[0]}x{m.shape[0]}, expected {dim}")
        return m.copy()


@dataclass(frozen=True)
class LowRankPlusNoise:
    """F F' + variance * I."""
    factors: np.ndarray
    variance: float

    def materialize(self, dim):
        f = as_matrix(self.factors, "factors")
        if f.shape[0] != dim:
            raise ValueError(f"factors have {f.shape[0]} rows, expected {dim}")
        if self.variance < 0:
            raise ValueError(f"noise variance must be nonnegative, got {self.variance}")
        return f @ f.T + self.variance * np.eye(dim)


@dataclass(frozen=True)
class BlockDiagonal:
    blocks: tuple

    def materialize(self, dim):
        blocks = [check_square_symmetric(b, f"block {i}")
                  for i, b in enumerate(self.blocks)]
        total = sum(b.shape[0] for b in blocks)
        if total != dim:
            raise ValueError(f"blocks sum to dimension {total}, expected {dim}")
        out = np.zeros((dim, dim))
        at = 0
        for b in blocks:
            k = b.shape[0]
            out[at:at + k, at:at + k] = b
            at += k
        return out


@dataclass(frozen=True)
class KernelCovariance:
    """Gram matrix of a kernel over fixed inputs (see rca.kernels)."""
    spec: object
    times: np.ndarray
    data_variance: float | None = None

    def materialize(self, dim):
        times = np.asarray(self.times, dtype=float)
        if times.shape[0] != dim:
            raise ValueError(f"{times.shape[0]} kernel inputs, expected {dim}")
        return rbf_gram(times, self.spec, data_variance=self.data_variance)


def _dense(spec, dim):
    return (Explicit(spec) if isinstance(spec, np.ndarray) else spec).materialize(dim)


def materialize(spec, dim):
    """Build the covariance a spec describes and check it is usable.

    The returned matrix is symmetric dim x dim and passes the same
    positive-definiteness check (including the one-shot jitter policy) that
    the generalized eigensolver applies.
    """
    sigma = check_square_symmetric(_dense(spec, dim), "covariance")
    ensure_spd(sigma)  # raises NotPositiveDefiniteError if unusable
    return sigma


# ------------------------------------------------------------------ fits

@dataclass(frozen=True)
class RcaFit:
    """Result of one residual-component solve.

    eig holds the full generalized spectrum; q counts eigenvalues above 1;
    loadings is Sigma S_q (D_q - I)^{1/2}, with zero columns when q = 0.
    """
    eig: GenEig
    q: int
    loadings: np.ndarray
    log_likelihood: float
    mean: np.ndarray | None = None


def retained_rank(values, tol=RANK_TOL):
    """Number of eigenvalues above the unit noise level (strictly > 1 + tol)."""
    return int(np.sum(values > 1.0 + tol))


def rca_fit(gram, sigma, n_obs=1, rank_tol=RANK_TOL):
    """Maximum-likelihood residual components of a Gram matrix given a
    covariance that is already explained.

    Parameters
    ----------
    gram : (p, p) symmetric positive semidefinite array, on the
        sample-covariance scale for the rank rule to be the ML one.
    sigma : covariance spec (or raw symmetric array) describing the
        explained part; must be positive definite after the jitter policy.
    n_obs : number of i.i.d. vectors the Gram averages; only scales the
        reported log-likelihood.
    rank_tol : eigenvalues in (1, 1 + rank_tol] count as noise. The strict
        default suits exactly-built Grams; callers fitting sample
        covariances should allow for sampling fluctuation around 1.

    Returns
    -------
    RcaFit. Eigenvalues at or below 1 contribute nothing to the loadings.
    """
    gram = check_square_symmetric(gram, "gram")
    p = gram.shape[0]
    sig = _dense(sigma, p)
    eig = gen_eig_spd(gram, sig)
    d = eig.values
    # Sylvester's inertia: d_min < 0 gives lambda_min(G) >= d_min trace(Sigma),
    # which settles semidefiniteness unless the bound is inconclusive.
    floor = -1e-8 * max(np.linalg.norm(gram), 1e-300)
    if d[-1] < 0 and d[-1] * (np.trace(sig) + p * eig.jitter) < floor \
            and np.linalg.eigvalsh(gram).min() < floor:
        raise ValueError("gram matrix is not positive semidefinite")
    q = retained_rank(d, tol=rank_tol)
    s_q = eig.vectors[:, :q]
    loadings = (sig @ s_q + eig.jitter * s_q) * np.sqrt(d[:q] - 1.0)
    # At the ML solution K = X X' + Sigma has log|K| = log|Sigma| +
    # sum_{i<=q} log d_i and trace(K^{-1} G) = q + sum_{i>q} d_i.
    ll = -0.5 * n_obs * (eig.sigma_logdet + np.log(d[:q]).sum() + q + d[q:].sum()
                         + p * np.log(2.0 * np.pi))
    return RcaFit(eig=eig, q=q, loadings=loadings, log_likelihood=float(ll))


def covariance_log_likelihood(k, cov, count):
    """Log likelihood of count i.i.d. vectors under N(0, k), given only
    their second moment cov (the sum of y y' over the vectors, / count).

    Raises NotPositiveDefiniteError when k has no Cholesky factor.
    """
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("model covariance is not positive definite") from exc
    t = np.linalg.inv(chol)
    quad = np.einsum("ij,ij->", t @ cov, t)  # trace(K^{-1} cov)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return float(-0.5 * count * (logdet + quad + k.shape[0] * np.log(2.0 * np.pi)))


def log_marginal(y, x, sigma):
    """Log likelihood of the columns of y under N(0, x x' + sigma).

    y is n x d (columns are the i.i.d. vectors), x is n x q (q may be 0)
    and sigma is n x n. Raises NotPositiveDefiniteError when the assembled
    covariance has no Cholesky factor.
    """
    y = as_matrix(y, "y")
    sigma = check_square_symmetric(sigma, "sigma")
    n, d = y.shape
    if sigma.shape[0] != n:
        raise ValueError(f"sigma is {sigma.shape[0]}x{sigma.shape[0]}, expected {n}")
    if x is None or np.size(x) == 0:
        k = sigma
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != n:
            raise ValueError(f"x has {x.shape[0]} rows, expected {n}")
        k = x @ x.T + sigma
    return covariance_log_likelihood(k, y @ y.T / d, d)


def ppca_fit(y, sigma2):
    """Probabilistic PCA as a residual-component fit with Sigma = sigma2 I.

    y is n x d; columns are centered internally and the column means are
    recorded on the returned fit. The retained loadings equal the classical
    closed form U_q diag(sqrt(lambda_q - sigma2)) on the 1/n sample
    covariance, with columns for lambda <= sigma2 dropped.
    """
    y = as_matrix(y, "y")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    n = y.shape[0]
    mean = y.mean(axis=0)
    yc = y - mean
    cov = yc.T @ yc / n
    return replace(rca_fit(cov, ScaledIdentity(sigma2), n_obs=n), mean=mean)
