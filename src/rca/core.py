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

from .linalg import (JITTER_FLOOR, GenEig, _frobenius, _whitener, as_matrix,
                     check_square_symmetric, gen_eig_lowrank, gen_eig_spd)

# Eigenvalues within RANK_TOL above 1 are treated as noise and dropped.
RANK_TOL = 1e-10
# A LowRankPlusNoise with ||D^{-1/2} F||_F^2 above this is reduced densely: its
# thin-SVD loadings would lose digits that the Cholesky route keeps.
LOW_RANK_LIMIT = 1e5


# ------------------------------------------------------------------ covariance specs
#
# Each spec checks only what it was given. rca_fit reduces a spec with parts by
# them, checking the gram once; gen_eig_spd checks the gram and any dense Sigma.

@dataclass(frozen=True)
class Explicit:
    matrix: np.ndarray

    def materialize(self, dim):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != dim:
            raise ValueError(f"covariance has shape {m.shape}, expected {dim} rows")
        return m


@dataclass(frozen=True)
class LowRankPlusNoise:
    """F F' + diag(variance). F may have zero columns; variance is one noise
    level for every row or a vector of one per row."""
    factors: np.ndarray
    variance: float | np.ndarray

    def parts(self, dim):
        """(F, variance) as float arrays with dim rows each, all finite."""
        f, v = np.asarray(self.factors, dtype=float), np.asarray(self.variance, dtype=float)
        if f.ndim != 2 or f.shape[0] != dim or v.shape not in ((), (dim,)):
            raise ValueError(f"factors have shape {f.shape} and variance {v.shape}, "
                             f"expected {dim} rows each")
        if not np.isfinite(f).all():
            raise ValueError("factors contain non-finite entries")
        bad = v[~((0 <= v) & (v < np.inf))]
        if bad.size:
            raise ValueError(f"noise variance must be finite and nonnegative, got {bad[0]}")
        return f, v

    def materialize(self, dim):
        f, v = self.parts(dim)
        return f @ f.T + v * np.eye(dim)


@dataclass(frozen=True)
class ScaledIdentity:
    variance: float

    def parts(self, dim):
        """(F, variance) of variance * I: F has dim rows and no columns."""
        if not 0 < self.variance < np.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")
        return np.zeros((dim, 0)), np.asarray(self.variance, dtype=float)

    materialize = LowRankPlusNoise.materialize


@dataclass(frozen=True)
class BlockDiagonal:
    blocks: tuple

    def materialize(self, dim):
        blocks = [np.asarray(b, dtype=float) for b in self.blocks]
        for i, b in enumerate(blocks):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"block {i} must be square, got shape {b.shape}")
        total = sum(b.shape[0] for b in blocks)
        if total != dim:
            raise ValueError(f"blocks sum to dimension {total}, expected {dim}")
        return _block_diag(blocks)


def _block_diag(blocks):
    """The 2-D blocks placed corner to corner down the diagonal of zeros."""
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0, dtype=int))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


# ------------------------------------------------------------------ fits

@dataclass(frozen=True)
class RcaFit:
    """Result of one residual-component solve.

    eig holds the full generalized spectrum; q counts eigenvalues above 1;
    loadings is Sigma S_q (D_q - I)^{1/2}, Sigma with any jitter (zero columns if q = 0).
    """
    eig: GenEig
    q: int
    loadings: np.ndarray
    log_likelihood: float
    mean: np.ndarray | None = None


def rca_fit(gram, sigma, n_obs=1, rank_tol=RANK_TOL):
    """Maximum-likelihood residual components of a Gram matrix given a
    covariance that is already explained.

    Parameters
    ----------
    gram : (p, p) symmetric positive semidefinite array, on the
        sample-covariance scale for the rank rule to be the ML one.
    sigma : covariance spec (or raw symmetric array) describing the
        explained part; must be positive definite after the jitter policy.
    n_obs : finite and positive: the number of i.i.d. vectors the Gram
        averages; only scales the reported log-likelihood.
    rank_tol : finite, nonnegative and absolute; eigenvalues in (1, 1 +
        rank_tol] count as noise. The strict default suits exactly-built
        Grams with a well-conditioned Sigma (rounding puts their bulk within
        ~cond(Sigma) eps of 1); sample covariances need room for sampling.

    Returns
    -------
    RcaFit. Eigenvalues at or below 1 contribute nothing to the loadings.
    """
    if not 0.0 < n_obs < np.inf:
        raise ValueError(f"n_obs must be finite and positive, got {n_obs}")
    if not 0.0 <= rank_tol < np.inf:
        raise ValueError(f"rank_tol must be finite and nonnegative, got {rank_tol}")
    gram = as_matrix(gram, "gram")  # the reduction checks its symmetry
    eig, trace = _reduce(gram, sigma if hasattr(sigma, "materialize")
                         else Explicit(sigma), gram.shape[0])
    # Sylvester's inertia: lambda_min(G) >= min(d_min, 0) trace(Sigma), which
    # settles semidefiniteness unless that bound falls below the floor.
    floor = -1e-8 * np.ldexp(*_frobenius(gram))
    if eig.values[-1] * trace < floor and np.linalg.eigvalsh(gram).min() < floor:
        raise ValueError("gram matrix is not positive semidefinite")
    return _fit_of_spectrum(eig, gram, n_obs, rank_tol)


def _fit_of_spectrum(eig, gram, n_obs, rank_tol):
    """The RcaFit of gram's solved spectrum: as G S = Sigma S D, the loadings are
    G S_q D_q^{-1} (D_q - I)^{1/2} for whichever Sigma the route whitened."""
    d = eig.values
    q = int(np.sum(d > 1.0 + rank_tol))
    loadings = gram @ (eig.vectors[:, :q] * (np.sqrt(d[:q] - 1.0) / d[:q]))
    # At the ML solution K = X X' + Sigma has log|K| = log|Sigma| +
    # sum_{i<=q} log d_i and trace(K^{-1} G) = q + sum_{i>q} d_i.
    ll = -0.5 * n_obs * (eig.sigma_logdet + np.log(d[:q]).sum() + q + d[q:].sum()
                         + d.size * np.log(2.0 * np.pi))
    return RcaFit(eig=eig, q=q, loadings=loadings, log_likelihood=float(ll))


def _reduce(gram, spec, p):
    """(GenEig, trace(Sigma)), Sigma with any jitter. A spec with parts clear of
    the jitter floor (so none can fire) and of LOW_RANK_LIMIT skips Sigma."""
    if hasattr(spec, "parts"):
        f, v = spec.parts(p)
        rows = np.einsum("ij,ij->i", f, f)  # squared row norms of F
        trace = np.sum(v + rows)
        if v.min() * p > JITTER_FLOOR * trace and np.sum(rows / v) <= LOW_RANK_LIMIT:
            return gen_eig_lowrank(check_square_symmetric(gram, "gram"), f, v), trace
    sig = spec.materialize(p)
    eig = gen_eig_spd(gram, sig)
    return eig, np.trace(sig) + p * eig.jitter


def log_marginal(y, x, sigma):
    """Log likelihood of the columns of y under N(0, x x' + sigma).

    y is n x d (columns are the i.i.d. vectors), x is n x q (q may be 0)
    and sigma is n x n. The assembled covariance is factored by rca_fit's
    whitener, so it gets the same jitter policy: a near-singular one is
    scored with the jitter added, and NotPositiveDefiniteError is raised
    when jitter does not rescue it.
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
        x = as_matrix(x[:, None] if x.ndim == 1 else x, "x")
        if x.shape[0] != n:
            raise ValueError(f"x has {x.shape[0]} rows, expected {n}")
        k = x @ x.T + sigma
    t, logdet, _ = _whitener(k)
    quad = np.einsum("ij,ij->", t @ (y @ y.T / d), t)  # trace(K^{-1} y y') / d
    return float(-0.5 * d * (logdet + quad + n * np.log(2.0 * np.pi)))


def ppca_fit(y, sigma2):
    """Probabilistic PCA as a residual-component fit with Sigma = sigma2 I.

    y is n x d; columns are centered internally and the column means are
    recorded on the returned fit. The retained loadings equal the classical
    closed form U_q diag(sqrt(lambda_q - sigma2)) on the 1/n sample
    covariance, with columns for lambda <= sigma2 dropped.
    """
    y = as_matrix(y, "y")
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    mean = y.mean(axis=0)
    return replace(rca_fit(_sample_covariance(y - mean), ScaledIdentity(sigma2),
                           n_obs=y.shape[0]), mean=mean)


def _sample_covariance(y, d1=None):
    """y' y / n of centered rows y. A column that is not constant and whose variance
    leaves the normal doubles is named as y's, or as y1's (the first d1) or y2's."""
    with np.errstate(all="ignore"):
        c = y.T @ y / y.shape[0]
    var = np.diag(c)
    for j in np.flatnonzero((var < np.finfo(float).tiny) | (var == np.inf)):
        if var[j] == np.inf or (y[:, j] != y[0, j]).any():
            view, k = ("y", j) if d1 is None else ("y1", j) if j < d1 else ("y2", j - d1)
            raise ValueError(f"{view} column {k}: variance {var[j]:.3g} is outside the "
                             "normal floating-point range; rescale the view")
    return c
